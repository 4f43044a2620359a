// The simulator's benchmark binary. One process runs one workload on one host
// thread, repeating it on a fresh machine + kernel until --seconds have been
// measured, and prints its metrics as one JSON object on the last line of
// standard output:
//
//   perfbench --workload sort|trie|trie-tardis --seed N --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics: host seconds of the app call
// (fastest repetition), set-up seconds (median), peak resident memory, and the
// simulated duration of the measured phase. --trace 1 is the traced run: it
// repeats the workload with the layer-boundary hooks attached, reads out every
// public counter, cross-checks them, times each layer's public call in
// isolation and reports the per-layer metrics, host-time shares and the
// tracing overhead.
// README.md in this directory defines every metric.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/layer_costs.h"
#include "perfbench/probes.h"
#include "perfbench/system.h"
#include "src/apps/mergesort.h"
#include "src/apps/workloads.h"
#include "src/load/driver.h"
#include "src/load/request_gen.h"
#include "src/obs/histogram.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) || __has_feature(undefined_behavior_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#endif

namespace perfbench {
namespace {

using namespace platinum;  // NOLINT

// Fixed input sizes: every repetition of a workload does the same work, so
// host_s compares like for like across commits. Each is sized for one to two
// seconds of host time per repetition, so a run has tens of repetitions.
constexpr size_t kSortWords = size_t{1} << 18;
constexpr uint64_t kTrieOps = 200000;
constexpr uint64_t kTrieTardisOps = 100000;
constexpr uint32_t kTrieKeys = 1u << 14;

// Set-up is tens of milliseconds against a noisy host, so a run times it
// several times and reports the median.
constexpr int kSetups = 30;
constexpr int kMinReps = 3;
// Rounds of the layer cost table in a traced run.
constexpr int kCostRounds = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload sort|trie|trie-tardis --seed N --seconds S "
               "--trace 0|1 [--spans-out FILE]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      long trace = std::strtol(value, &end, 10);
      if (trace != 0 && trace != 1) {
        Usage("--trace takes 0 or 1");
      }
      args.trace = trace == 1;
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && (*end != '\0' || end == value)) {
      Usage(("malformed value for " + flag).c_str());
    }
  }
  if (!have_workload) {
    Usage("--workload is required");
  }
  if (!(args.seconds > 0)) {
    Usage("--seconds must be positive");
  }
  return args;
}

// --- Workloads -----------------------------------------------------------------

struct Workload {
  std::string name;
  const char* protocol = kDirectory;
  bool sort = false;
  uint64_t ops = 0;  // elements sorted, or requests served, per repetition
};

Workload WorkloadNamed(const std::string& name) {
  if (name == "sort") {
    return {name, kDirectory, true, kSortWords};
  }
  if (name == "trie") {
    return {name, kDirectory, false, kTrieOps};
  }
  if (name == "trie-tardis") {
    return {name, kTardis, false, kTrieTardisOps};
  }
  Usage(("unknown workload '" + name + "'").c_str());
}

apps::SortConfig SortConfigFor(const Workload& w, uint64_t seed) {
  apps::SortConfig config;
  config.count = w.ops;
  config.processors = kNodes;
  config.seed = seed;
  config.verify = true;
  return config;
}

load::DriverConfig DriverConfigFor(const Workload& w, uint64_t seed) {
  load::DriverConfig config;
  config.spec.seed = seed;
  config.spec.keys = kTrieKeys;
  config.spec.ops = w.ops;
  config.spec.zipf_s = 0.99;
  config.spec.read_fraction = 0.90;
  config.spec.churn = 0.5;
  config.procs = kNodes;
  config.arrival = load::ArrivalMode::kClosed;
  config.verify = true;
  return config;
}

// The output a correct run must produce, computed on the host.
uint64_t ReferenceChecksum(const Workload& w, uint64_t seed) {
  if (w.sort) {
    return apps::SortReferenceChecksum(seed, w.ops);
  }
  load::DriverConfig config = DriverConfigFor(w, seed);
  return load::RequestScript::Generate(config.spec, static_cast<uint32_t>(config.procs))
      .ReplayReference()
      .checksum;
}

// What every repetition of one (workload, seed) must reproduce exactly.
struct Fingerprint {
  sim::SimTime sim_ns = 0;
  uint64_t refs = 0;
  uint64_t faults = 0;
  uint64_t shootdowns = 0;
  uint64_t switches = 0;
  uint64_t checksum = 0;

  bool operator==(const Fingerprint&) const = default;
};

struct Rep {
  double host_s = 0;
  Fingerprint fingerprint;
  bool correct = false;
  load::ServeResult serve;  // trie workloads
};

// The hooks and read-out a traced repetition uses; all null when untraced.
struct Tracing {
  SpanLog* spans = nullptr;
  BoundaryCounters* boundary = nullptr;
  CounterReadout* readout = nullptr;
};

Rep RunRep(const Workload& w, uint64_t seed, uint64_t expected_checksum, const Tracing& t) {
  SpanLog::Scope rep_span(t.spans, "rep");
  Rep rep;
  std::unique_ptr<System> sys;
  {
    SpanLog::Scope span(t.spans, "setup:machine+kernel");
    sys = std::make_unique<System>(w.protocol);
  }
  if (t.boundary != nullptr) {
    t.boundary->Attach(sys->kernel);
  }
  bool verified = false;
  {
    SpanLog::Scope span(t.spans, "app:" + w.name);
    Clock::time_point start = Clock::now();
    if (w.sort) {
      apps::SortResult result = apps::RunMergeSortPlatinum(sys->kernel, SortConfigFor(w, seed));
      rep.host_s = SecondsSince(start);
      rep.fingerprint.sim_ns = result.sort_ns;
      rep.fingerprint.checksum = result.checksum;
      verified = result.verified;
    } else {
      rep.serve = load::RunTrieServe(sys->kernel, DriverConfigFor(w, seed));
      rep.host_s = SecondsSince(start);
      rep.fingerprint.sim_ns = rep.serve.serve_ns;
      rep.fingerprint.checksum = rep.serve.checksum;
      verified = rep.serve.verified && rep.serve.requests == w.ops;
    }
  }
  if (t.boundary != nullptr) {
    t.boundary->Detach(sys->kernel);
  }
  {
    SpanLog::Scope span(t.spans, "readout");
    const sim::MachineStats& stats = sys->machine.stats();
    rep.fingerprint.refs = stats.total_references();
    rep.fingerprint.faults = stats.faults;
    rep.fingerprint.shootdowns = stats.shootdowns;
    rep.fingerprint.switches = sys->machine.scheduler().context_switches();
    if (t.readout != nullptr) {
      *t.readout = CounterReadout::From(sys->kernel);
    }
  }
  {
    SpanLog::Scope span(t.spans, "teardown");
    sys.reset();
  }
  rep.correct = verified && rep.fingerprint.checksum == expected_checksum;
  return rep;
}

double Min(const std::vector<double>& values) {
  return values.empty() ? 0 : *std::min_element(values.begin(), values.end());
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// Repetitions of one workload, with the determinism and correctness tally.
struct RepSet {
  std::vector<Rep> reps;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Fingerprint reference;
  bool has_reference = false;

  // Records `rep`; a repetition that fails verification, or drifts from the
  // reference fingerprint (by default the first repetition's), counts all its
  // operations as failed.
  void Add(const Workload& w, Rep rep, const char* label) {
    if (!has_reference) {
      reference = rep.fingerprint;
      has_reference = true;
    }
    attempted += w.ops;
    bool drifted = !(rep.fingerprint == reference);
    if (!rep.correct || drifted) {
      failed += w.ops;
      std::fprintf(stderr,
                   "perfbench: %s repetition %zu %s (sim_ns=%" PRId64 " refs=%" PRIu64
                   " faults=%" PRIu64 " shootdowns=%" PRIu64 " switches=%" PRIu64
                   " checksum=%" PRIu64 ")\n",
                   label, reps.size(), !rep.correct ? "failed verification" : "drifted",
                   static_cast<int64_t>(rep.fingerprint.sim_ns), rep.fingerprint.refs,
                   rep.fingerprint.faults, rep.fingerprint.shootdowns,
                   rep.fingerprint.switches, rep.fingerprint.checksum);
    }
    reps.push_back(std::move(rep));
  }

  std::vector<double> HostSeconds() const {
    std::vector<double> v;
    for (const Rep& r : reps) {
      v.push_back(r.host_s);
    }
    return v;
  }
};

// Runs repetitions until `budget_s` is spent (a repetition is started only if
// it is expected to finish in time), at least kMinReps of them.
void RunReps(const Workload& w, uint64_t seed, uint64_t expected, double budget_s,
             RepSet* set) {
  Clock::time_point start = Clock::now();
  int done = 0;
  double last_s = 0;
  while (done < kMinReps || SecondsSince(start) + last_s <= budget_s) {
    Clock::time_point rep_start = Clock::now();
    set->Add(w, RunRep(w, seed, expected, Tracing{}), "end-to-end");
    last_s = SecondsSince(rep_start);
    ++done;
  }
}

// --- Output ----------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}", i > 0 ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

std::string HostName() {
  char name[256] = {};
  if (gethostname(name, sizeof(name) - 1) != 0) {
    return "unknown";
  }
  return name;
}

void PrintBuildInfo(const Args& args) {
  std::printf("perfbench: workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              args.workload.c_str(), args.seed, args.seconds, args.trace ? 1 : 0);
  std::printf("perfbench: compiler=%s build_type=%s flags=\"%s\" nproc=%ld host=%s\n",
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS,
              sysconf(_SC_NPROCESSORS_ONLN), HostName().c_str());
}

// Refuses to measure a build whose numbers would mislead: unoptimised, or
// instrumented by a sanitizer.
void CheckBuild() {
  const char* refusal = nullptr;
#if !defined(__OPTIMIZE__)
  refusal = "the build is not optimised";
#endif
#if defined(PERFBENCH_SANITIZED)
  refusal = "the build is instrumented by a sanitizer";
#endif
  if (std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize") != nullptr) {
    refusal = "the build flags enable a sanitizer";
  }
  if (refusal != nullptr) {
    std::fprintf(stderr, "perfbench: refusing to report numbers: %s (flags: %s)\n", refusal,
                 PERFBENCH_CXX_FLAGS);
    std::exit(3);
  }
}

// Median seconds to construct the system. Each construction first returns
// free heap memory to the operating system, so it first-touches the machine's
// memory as it would in a fresh process, whatever the repetitions left behind.
// Run after the repetitions, so the trimming never slows an app call.
double SetupMedian(const Workload& w) {
  std::vector<double> samples;
  for (int i = 0; i < kSetups; ++i) {
    malloc_trim(0);
    Clock::time_point start = Clock::now();
    auto sys = std::make_unique<System>(w.protocol);
    samples.push_back(SecondsSince(start));
  }
  return Median(samples);
}

int RunEndToEnd(const Args& args, const Workload& w, uint64_t expected) {
  Clock::time_point start = Clock::now();
  RepSet set;
  RunReps(w, args.seed, expected, args.seconds, &set);
  double setup_s = SetupMedian(w);
  const Rep& first = set.reps.front();
  std::printf("perfbench: %zu repetitions in %.2f s; host_s fastest %.4f, median %.4f; "
              "per repetition:",
              set.reps.size(), SecondsSince(start), Min(set.HostSeconds()),
              Median(set.HostSeconds()));
  for (double s : set.HostSeconds()) {
    std::printf(" %.4f", s);
  }
  std::printf("\n");
  std::vector<Metric> metrics = {
      {"host_s", Min(set.HostSeconds()), "s"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"sim_s", sim::ToSeconds(first.fingerprint.sim_ns), "s"},
  };
  PrintResult(set.failed == 0, set.attempted, set.failed, metrics);
  return 0;
}

// --- The traced run ------------------------------------------------------------------

double Ratio(double num, double den) { return den != 0 ? num / den : 0.0; }

double Us(sim::SimTime ns) { return static_cast<double>(ns) / 1000.0; }

int RunTraced(const Args& args, const Workload& w, uint64_t expected) {
  Clock::time_point start = Clock::now();
  LayerCosts costs = MeasureLayerCosts(kCostRounds);

  // Untraced and traced repetitions alternate, so both see the same host
  // conditions; the median ratio within pairs is the tracing overhead.
  RepSet plain;
  RepSet traced;
  SpanLog spans;
  BoundaryCounters boundary;
  CounterReadout readout;
  std::vector<double> pair_ratios;
  double pair_s = 0;
  while (pair_ratios.size() < 2 || SecondsSince(start) + pair_s <= args.seconds) {
    Clock::time_point pair_start = Clock::now();
    plain.Add(w, RunRep(w, args.seed, expected, Tracing{}), "untraced");
    // A traced repetition must reproduce the untraced fingerprint: the hooks
    // observe, they must not perturb.
    traced.reference = plain.reference;
    traced.has_reference = true;
    boundary = BoundaryCounters{};
    traced.Add(w, RunRep(w, args.seed, expected, Tracing{&spans, &boundary, &readout}),
               "traced");
    pair_ratios.push_back(traced.reps.back().host_s / plain.reps.back().host_s);
    pair_s = SecondsSince(pair_start);
  }

  const double host_s = Min(plain.HostSeconds());
  const double traced_host_s = Min(traced.HostSeconds());
  const double overhead = Median(pair_ratios) - 1;
  const sim::MachineStats& s = readout.stats;
  const Rep& last = traced.reps.back();
  auto hist = [&](obs::HistKind kind) -> const obs::LatencyHistogram& {
    return readout.hist[static_cast<size_t>(kind)];
  };
  const double refs = static_cast<double>(s.total_references());
  const double reads = static_cast<double>(s.local_reads + s.remote_reads);
  const uint64_t refills = s.atc_misses > s.faults ? s.atc_misses - s.faults : 0;

  // Host-time shares: count x host ns per operation / host_s, using each
  // layer's self cost (its cost table entry minus the child layer's).
  const double hit_ns =
      Ratio(reads, refs) * costs.hit_read_ns + (1 - Ratio(reads, refs)) * costs.hit_write_ns;
  const double per_ipi_ns = std::max(0.0, (costs.fanout15_ns - costs.write_invalidate_ns) / 15);
  const double sched_s = static_cast<double>(readout.switches) * costs.yield_ns * 1e-9;
  const double machine_s = refs * costs.reference_ns * 1e-9;
  const double hw_s =
      (static_cast<double>(s.atc_hits) * std::max(0.0, hit_ns - costs.reference_ns) +
       static_cast<double>(refills) * std::max(0.0, costs.refill_ns - costs.reference_ns)) *
      1e-9;
  const double fault_s =
      (static_cast<double>(s.read_faults) * costs.read_replicate_ns +
       static_cast<double>(s.write_faults) * costs.write_invalidate_ns +
       static_cast<double>(s.ipis_sent) * per_ipi_ns) *
      1e-9;
  const double sched_share = Ratio(sched_s, host_s);
  const double machine_share = Ratio(machine_s, host_s);
  const double hw_share = Ratio(hw_s, host_s);
  const double fault_share = Ratio(fault_s, host_s);

  uint64_t hist_records = 0;
  for (const obs::LatencyHistogram& h : readout.hist) {
    hist_records += h.count();
  }
  const obs::LatencyHistogram& read_hit = last.serve.latency[load::kOpReadHit];
  const uint64_t lookups = read_hit.count() + last.serve.latency[load::kOpReadMiss].count();
  // Samples beyond p99.9 of the read-hit distribution.
  const uint64_t beyond_p999 = read_hit.count() / 1000;

  std::vector<CrossCheck> checks = CrossCheckCounters(readout, boundary);
  uint64_t mismatches = 0;
  for (const CrossCheck& c : checks) {
    mismatches += c.ok() ? 0 : 1;
  }

  std::vector<Metric> m = {
      {"sim.scheduler.switches", static_cast<double>(readout.switches), "count"},
      {"sim.scheduler.refs_per_switch", Ratio(refs, static_cast<double>(readout.switches)),
       "ratio"},
      {"sim.scheduler.time_advances", static_cast<double>(boundary.time_advances), "count"},
      {"sim.scheduler.yield_ns", costs.yield_ns, "ns"},
      {"sim.scheduler.sleep_ns", costs.sleep_ns, "ns"},
      {"sim.scheduler.host_share", sched_share, "share"},
      {"sim.machine.refs", refs, "count"},
      {"sim.machine.remote_frac", Ratio(static_cast<double>(s.remote_references()), refs),
       "share"},
      {"sim.machine.refs_per_host_s", Ratio(refs, host_s), "1/s"},
      {"sim.machine.reference_ns", costs.reference_ns, "ns"},
      {"sim.machine.host_share", machine_share, "share"},
      {"sim.machine.module_wait_s", sim::ToSeconds(s.module_wait_ns), "sim_s"},
      {"sim.machine.queue_p99_ns",
       static_cast<double>(hist(obs::HistKind::kModuleQueue).Percentile(99)), "sim_ns"},
      {"hw.atc.hits", static_cast<double>(s.atc_hits), "count"},
      {"hw.atc.misses", static_cast<double>(s.atc_misses), "count"},
      {"hw.atc.hit_ratio",
       Ratio(static_cast<double>(s.atc_hits), static_cast<double>(s.atc_hits + s.atc_misses)),
       "ratio"},
      {"hw.atc.hit_read_ns", costs.hit_read_ns, "ns"},
      {"hw.atc.hit_write_ns", costs.hit_write_ns, "ns"},
      {"hw.pmap.refill_ns", costs.refill_ns, "ns"},
      {"hw.host_share", hw_share, "share"},
      {"mem.fault.count", static_cast<double>(s.faults), "count"},
      {"mem.fault.read", static_cast<double>(s.read_faults), "count"},
      {"mem.fault.write", static_cast<double>(s.write_faults), "count"},
      {"mem.fault.replications", static_cast<double>(s.replications), "count"},
      {"mem.fault.migrations", static_cast<double>(s.migrations), "count"},
      {"mem.fault.remote_maps", static_cast<double>(s.remote_maps), "count"},
      {"mem.fault.freezes", static_cast<double>(s.freezes), "count"},
      {"mem.fault.thaws", static_cast<double>(s.thaws), "count"},
      {"mem.fault.pages_freed", static_cast<double>(s.pages_freed), "count"},
      {"mem.fault.per_kref", Ratio(static_cast<double>(s.faults) * 1000, refs), "1/kref"},
      {"mem.fault.read_replicate_ns", costs.read_replicate_ns, "ns"},
      {"mem.fault.write_invalidate_ns", costs.write_invalidate_ns, "ns"},
      {"mem.fault.host_share", fault_share, "share"},
      {"mem.fault.service_p50_ns",
       static_cast<double>(hist(obs::HistKind::kFaultService).Percentile(50)), "sim_ns"},
      {"mem.fault.service_p99_ns",
       static_cast<double>(hist(obs::HistKind::kFaultService).Percentile(99)), "sim_ns"},
      {"mem.fault.handler_wait_s", sim::ToSeconds(s.fault_handler_wait_ns), "sim_s"},
      {"mem.shootdown.rounds", static_cast<double>(s.shootdowns), "count"},
      {"mem.shootdown.ipis", static_cast<double>(s.ipis_sent), "count"},
      {"mem.shootdown.mappings_invalidated", static_cast<double>(s.mappings_invalidated),
       "count"},
      {"mem.shootdown.fanout1_ns", costs.fanout1_ns, "ns"},
      {"mem.shootdown.fanout15_ns", costs.fanout15_ns, "ns"},
      {"mem.shootdown.round_p99_ns",
       static_cast<double>(hist(obs::HistKind::kShootdown).Percentile(99)), "sim_ns"},
      // MachineStats::lease_waits is never incremented (the per-page counter
      // is); the per-page sum is the real count. See the cross-check.
      {"mem.tardis.lease_waits", static_cast<double>(readout.cpage_sum.lease_waits), "count"},
      {"mem.tardis.lease_wait_s", sim::ToSeconds(s.lease_wait_ns), "sim_s"},
      {"mem.tardis.lease_expiries",
       static_cast<double>(boundary.event(mem::TraceEventType::kLeaseExpire)), "count"},
      {"mem.block.transfers", static_cast<double>(s.block_transfers), "count"},
      {"mem.block.words", static_cast<double>(s.block_words_copied), "count"},
      {"mem.block.p99_ns",
       static_cast<double>(hist(obs::HistKind::kBlockTransfer).Percentile(99)), "sim_ns"},
      {"kernel.atomic_tas_ns", costs.atomic_tas_ns, "ns"},
      {"kernel.read_words_ns_per_word", costs.read_words_ns_per_word, "ns"},
      {"apps.trie.lookup_retries", static_cast<double>(last.serve.trie.lookup_retries),
       "count"},
      {"apps.trie.retry_ratio",
       Ratio(static_cast<double>(last.serve.trie.lookup_retries), static_cast<double>(lookups)),
       "ratio"},
      {"load.requests", static_cast<double>(last.serve.requests), "count"},
      {"sim_read_p50_us", Us(read_hit.Percentile(50)), "sim_us"},
      {"sim_read_p999_us", Us(read_hit.Percentile(99.9)), "sim_us"},
      {"sim_read_samples", static_cast<double>(read_hit.count()), "count"},
      {"sim_insert_p99_us", Us(last.serve.latency[load::kOpInsert].Percentile(99)), "sim_us"},
      {"obs.hist_records", static_cast<double>(hist_records), "count"},
      {"obs.hist_record_ns", costs.hist_record_ns, "ns"},
      {"host.residual_share", 1 - sched_share - machine_share - hw_share - fault_share, "share"},
      {"trace.overhead", overhead, "share"},
      {"check.counter_mismatches", static_cast<double>(mismatches), "count"},
  };

  std::printf("\n== per-layer metrics (%s, seed %" PRIu64 ", traced repetition) ==\n",
              w.name.c_str(), args.seed);
  for (const Metric& metric : m) {
    std::printf("  %-36s %16.6g %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
  }
  std::printf("\n== host-time shares (untraced host_s fastest %.4f s of %zu repetitions; "
              "traced %.4f s of %zu) ==\n",
              host_s, plain.reps.size(), traced_host_s, traced.reps.size());
  std::printf("  %-22s %12s %14s %10s %8s\n", "layer", "count", "self ns/op", "host s", "share");
  auto share_row = [&](const char* layer, double count, double ns, double secs) {
    std::printf("  %-22s %12.0f %14.1f %10.4f %8.4f\n", layer, count, ns, secs,
                Ratio(secs, host_s));
  };
  share_row("sim.scheduler", static_cast<double>(readout.switches), costs.yield_ns, sched_s);
  share_row("sim.machine", refs, costs.reference_ns, machine_s);
  share_row("hw (atc hit + refill)", static_cast<double>(s.atc_hits + refills),
            Ratio(hw_s * 1e9, static_cast<double>(s.atc_hits + refills)), hw_s);
  share_row("mem.fault (+ ipis)", static_cast<double>(s.faults),
            Ratio(fault_s * 1e9, static_cast<double>(s.faults)), fault_s);
  std::printf("  %-22s %12s %14s %10.4f %8.4f\n", "residual", "", "",
              host_s - sched_s - machine_s - hw_s - fault_s,
              1 - sched_share - machine_share - hw_share - fault_share);
  std::printf("\n== layer boundary counts (hooks) ==\n");
  std::printf("  access observer: %" PRIu64 " accesses (%" PRIu64 " writes)\n",
              boundary.accesses, boundary.access_writes);
  std::printf("  time observer: %" PRIu64 " advances\n", boundary.time_advances);
  std::printf("  page events:");
  for (int type = 0; type < BoundaryCounters::kNumEventTypes; ++type) {
    std::printf(" %s=%" PRIu64,
                mem::TraceEventTypeName(static_cast<mem::TraceEventType>(type)),
                boundary.events[static_cast<size_t>(type)]);
  }
  std::printf("\n  read-hit latency samples: %" PRIu64 " (%" PRIu64 " beyond p99.9)\n",
              read_hit.count(), beyond_p999);
  std::printf("\n== spans (host time, traced repetitions) ==\n%s", spans.SelfTimeTable().c_str());
  std::printf("\n== counter cross-check: %" PRIu64 " mismatch(es) ==\n", mismatches);
  for (const CrossCheck& c : checks) {
    std::printf("  %-8s %-52s %14" PRIu64 " %14" PRIu64 "\n", c.ok() ? "ok" : "MISMATCH",
                c.name.c_str(), c.left, c.right);
  }
  std::printf("\n");
  if (!args.spans_out.empty()) {
    std::ofstream out(args.spans_out);
    out << spans.ToJson();
  }
  const uint64_t attempted = plain.attempted + traced.attempted;
  const uint64_t failed = plain.failed + traced.failed;
  PrintResult(failed == 0, attempted, failed, m);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;  // NOLINT
  CheckBuild();
  Args args = ParseArgs(argc, argv);
  Workload w = WorkloadNamed(args.workload);
  PrintBuildInfo(args);
  uint64_t expected = ReferenceChecksum(w, args.seed);
  return args.trace ? RunTraced(args, w, expected) : RunEndToEnd(args, w, expected);
}
