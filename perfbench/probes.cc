#include "perfbench/probes.h"

#include <cstdio>
#include <map>
#include <sstream>
#include <utility>

namespace perfbench {

using namespace platinum;  // NOLINT

SpanLog::Scope::Scope(SpanLog* log, std::string name) : log_(log) {
  if (log_ == nullptr) {
    return;
  }
  Span span;
  span.name = std::move(name);
  span.parent = log_->open_;
  span.begin_s = std::chrono::duration<double>(Clock::now() - log_->origin_).count();
  index_ = static_cast<int>(log_->spans_.size());
  log_->spans_.push_back(std::move(span));
  log_->open_ = index_;
}

SpanLog::Scope::~Scope() {
  if (log_ == nullptr) {
    return;
  }
  Span& span = log_->spans_[static_cast<size_t>(index_)];
  span.end_s = std::chrono::duration<double>(Clock::now() - log_->origin_).count();
  log_->open_ = span.parent;
}

std::string SpanLog::SelfTimeTable() const {
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_s[static_cast<size_t>(span.parent)] += span.end_s - span.begin_s;
    }
  }
  struct Row {
    double total_s = 0;
    double self_s = 0;
    int count = 0;
  };
  std::map<std::string, Row> rows;
  for (size_t i = 0; i < spans_.size(); ++i) {
    Row& row = rows[spans_[i].name];
    double total = spans_[i].end_s - spans_[i].begin_s;
    row.total_s += total;
    row.self_s += total - child_s[i];
    ++row.count;
  }
  std::ostringstream out;
  char line[160];
  std::snprintf(line, sizeof(line), "  %-28s %10s %10s %6s\n", "span", "total_s", "self_s",
                "count");
  out << line;
  for (const auto& [name, row] : rows) {
    std::snprintf(line, sizeof(line), "  %-28s %10.4f %10.4f %6d\n", name.c_str(), row.total_s,
                  row.self_s, row.count);
    out << line;
  }
  return out.str();
}

std::string SpanLog::ToJson() const {
  std::ostringstream out;
  out << "[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i > 0 ? ",\n " : "\n ") << "{\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"parent\": " << s.parent << ", \"begin_s\": " << s.begin_s
        << ", \"end_s\": " << s.end_s << "}";
  }
  out << "\n]\n";
  return out.str();
}

void BoundaryCounters::Attach(kernel::Kernel& kernel) {
  kernel.memory().SetAccessObserver(this);
  kernel.memory().SetPageEventSink(this);
  kernel.machine().scheduler().SetTimeObserver(this);
}

void BoundaryCounters::Detach(kernel::Kernel& kernel) {
  kernel.memory().SetAccessObserver(nullptr);
  kernel.memory().SetPageEventSink(nullptr);
  kernel.machine().scheduler().SetTimeObserver(nullptr);
}

void BoundaryCounters::OnMemoryAccess(const mem::MemoryAccess& access) {
  ++accesses;
  access_writes += access.is_write ? 1 : 0;
}

void BoundaryCounters::OnPageEvent(const mem::TraceEvent& event) {
  ++events[static_cast<size_t>(event.type)];
  if (event.type == mem::TraceEventType::kShootdown) {
    synchronous_shootdowns += event.detail > 0 ? 1 : 0;
    shootdown_ipis += event.detail;
  }
}

void BoundaryCounters::OnTimeAdvance(sim::SimTime /*now*/) { ++time_advances; }

CounterReadout CounterReadout::From(kernel::Kernel& kernel) {
  CounterReadout r;
  sim::Machine& machine = kernel.machine();
  r.stats = machine.stats();
  r.switches = machine.scheduler().context_switches();
  const obs::Observability& o = machine.obs();
  for (int p = 0; p < o.num_nodes(); ++p) {
    const obs::ProcessorCounters& c = o.cpu(p);
    r.cpu_sum.faults += c.faults;
    r.cpu_sum.read_faults += c.read_faults;
    r.cpu_sum.write_faults += c.write_faults;
    r.cpu_sum.initial_fills += c.initial_fills;
    r.cpu_sum.replications += c.replications;
    r.cpu_sum.migrations += c.migrations;
    r.cpu_sum.remote_maps += c.remote_maps;
    r.cpu_sum.shootdowns_initiated += c.shootdowns_initiated;
    r.cpu_sum.ipis_received += c.ipis_received;
    r.cpu_sum.local_refs += c.local_refs;
    r.cpu_sum.remote_refs += c.remote_refs;
    r.cpu_sum.pages_freed += c.pages_freed;
    const obs::ModuleCounters& m = o.module(p);
    r.module_sum.references_served += m.references_served;
    r.module_sum.block_transfers_in += m.block_transfers_in;
    r.module_sum.block_transfers_out += m.block_transfers_out;
    r.module_sum.queue_wait_ns += m.queue_wait_ns;
  }
  for (int k = 0; k < obs::kNumHistKinds; ++k) {
    r.hist[static_cast<size_t>(k)] = o.hist(static_cast<obs::HistKind>(k));
  }
  const mem::CpageTable& cpages = kernel.memory().cpages();
  for (uint32_t id = 0; id < cpages.size(); ++id) {
    const mem::CpageStats& s = cpages.at(id).stats();
    r.cpage_sum.faults += s.faults;
    r.cpage_sum.read_faults += s.read_faults;
    r.cpage_sum.write_faults += s.write_faults;
    r.cpage_sum.replications += s.replications;
    r.cpage_sum.migrations += s.migrations;
    r.cpage_sum.remote_maps += s.remote_maps;
    r.cpage_sum.freezes += s.freezes;
    r.cpage_sum.thaws += s.thaws;
    r.cpage_sum.handler_wait_ns += s.handler_wait_ns;
    r.cpage_sum.lease_waits += s.lease_waits;
  }
  return r;
}

std::vector<CrossCheck> CrossCheckCounters(const CounterReadout& r, const BoundaryCounters& b) {
  using T = mem::TraceEventType;
  const sim::MachineStats& s = r.stats;
  const mem::CpageStats& c = r.cpage_sum;
  auto hist_count = [&](obs::HistKind kind) { return r.hist[static_cast<size_t>(kind)].count(); };
  auto ns = [](sim::SimTime t) { return static_cast<uint64_t>(t); };
  return {
      {"access_observer==atc_hits+atc_misses", b.accesses, s.atc_hits + s.atc_misses},
      {"atc_hits+atc_misses==total_references", s.atc_hits + s.atc_misses,
       s.total_references()},
      {"sink.fault==stats.faults", b.event(T::kFault), s.faults},
      {"sink.shootdown==stats.shootdowns", b.event(T::kShootdown), s.shootdowns},
      {"sink.replicate==stats.replications", b.event(T::kReplicate), s.replications},
      {"sink.shootdown_ipis==stats.ipis_sent", b.shootdown_ipis, s.ipis_sent},
      {"cpages.faults==stats.faults", c.faults, s.faults},
      {"cpages.read_faults==stats.read_faults", c.read_faults, s.read_faults},
      {"cpages.write_faults==stats.write_faults", c.write_faults, s.write_faults},
      {"cpages.replications==stats.replications", c.replications, s.replications},
      {"cpages.migrations==stats.migrations", c.migrations, s.migrations},
      {"cpages.remote_maps==stats.remote_maps", c.remote_maps, s.remote_maps},
      {"cpages.freezes==stats.freezes", c.freezes, s.freezes},
      {"cpages.thaws==stats.thaws", c.thaws, s.thaws},
      {"cpages.handler_wait_ns==stats.fault_handler_wait_ns", ns(c.handler_wait_ns),
       ns(s.fault_handler_wait_ns)},
      {"cpages.lease_waits==stats.lease_waits", c.lease_waits, s.lease_waits},
      {"cpus.faults==stats.faults", r.cpu_sum.faults, s.faults},
      {"cpus.read_faults==stats.read_faults", r.cpu_sum.read_faults, s.read_faults},
      {"cpus.write_faults==stats.write_faults", r.cpu_sum.write_faults, s.write_faults},
      {"cpus.initial_fills==stats.initial_fills", r.cpu_sum.initial_fills, s.initial_fills},
      {"cpus.replications==stats.replications", r.cpu_sum.replications, s.replications},
      {"cpus.migrations==stats.migrations", r.cpu_sum.migrations, s.migrations},
      {"cpus.remote_maps==stats.remote_maps", r.cpu_sum.remote_maps, s.remote_maps},
      {"cpus.pages_freed==stats.pages_freed", r.cpu_sum.pages_freed, s.pages_freed},
      {"cpus.refs==stats.total_references", r.cpu_sum.local_refs + r.cpu_sum.remote_refs,
       s.total_references()},
      {"cpus.shootdowns==stats.shootdowns", r.cpu_sum.shootdowns_initiated, s.shootdowns},
      {"cpus.ipis_received==stats.ipis_sent", r.cpu_sum.ipis_received, s.ipis_sent},
      {"modules.refs==stats.total_references", r.module_sum.references_served,
       s.total_references()},
      {"modules.queue_wait_ns==stats.module_wait_ns", ns(r.module_sum.queue_wait_ns),
       ns(s.module_wait_ns)},
      {"modules.block_in==stats.block_transfers", r.module_sum.block_transfers_in,
       s.block_transfers},
      {"modules.block_out==stats.block_transfers", r.module_sum.block_transfers_out,
       s.block_transfers},
      {"hist.fault_service==stats.faults", hist_count(obs::HistKind::kFaultService), s.faults},
      {"hist.shootdown==sink.synchronous_shootdowns", hist_count(obs::HistKind::kShootdown),
       b.synchronous_shootdowns},
      {"hist.block_transfer==stats.block_transfers", hist_count(obs::HistKind::kBlockTransfer),
       s.block_transfers},
  };
}

}  // namespace perfbench
