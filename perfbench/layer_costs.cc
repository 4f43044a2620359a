#include "perfbench/layer_costs.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "perfbench/probes.h"
#include "perfbench/system.h"
#include "src/apps/workloads.h"
#include "src/obs/histogram.h"

namespace perfbench {
namespace {

using namespace platinum;  // NOLINT

// First page of the microbenchmarks' mapped region.
constexpr uint32_t kBaseVpn = 16;

// Keeps a computed value alive so the timed loop is not optimised away.
volatile uint64_t g_sink = 0;

double NsPerOp(double seconds, uint64_t ops) {
  return ops > 0 ? seconds * 1e9 / static_cast<double>(ops) : 0.0;
}

void Require(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "perfbench: layer-cost scenario broke its premise: %s\n", what);
    std::exit(1);
  }
}

// Maps `pages` read-write pages of a fresh memory object at kBaseVpn.
vm::AddressSpace* MapRegion(kernel::Kernel& kernel, uint32_t pages) {
  vm::AddressSpace* space = kernel.CreateAddressSpace("perfbench");
  vm::MemoryObject* object = kernel.CreateMemoryObject("perfbench-region", pages);
  kernel.Map(space, object, 0, pages, kBaseVpn, hw::Rights::kReadWrite);
  return space;
}

uint32_t PageVa(const kernel::Kernel& kernel, uint32_t page) {
  return (kBaseVpn + page) * kernel.page_size();
}

// Host seconds of `body`, minus the fiber switches it triggered (each billed
// at `yield_ns`), so a per-access cost does not also carry the scheduler's.
template <typename Body>
double TimeWithoutSwitches(sim::Scheduler& sched, double yield_ns, Body&& body) {
  uint64_t switches = sched.context_switches();
  Clock::time_point start = Clock::now();
  body();
  double seconds = SecondsSince(start);
  return seconds - static_cast<double>(sched.context_switches() - switches) * yield_ns * 1e-9;
}

double MeasureYield() {
  constexpr int kRounds = 200000;
  System s(kDirectory);
  sim::Scheduler& sched = s.machine.scheduler();
  for (int p = 0; p < 2; ++p) {
    sched.Spawn(p, "ping-pong", [&sched] {
      for (int i = 0; i < kRounds; ++i) {
        sched.Yield();
      }
    });
  }
  uint64_t switches = sched.context_switches();
  Clock::time_point start = Clock::now();
  sched.Run();
  return NsPerOp(SecondsSince(start), sched.context_switches() - switches);
}

double MeasureSleep() {
  constexpr int kSleeps = 200000;
  System s(kDirectory);
  sim::Scheduler& sched = s.machine.scheduler();
  double seconds = 0;
  sched.Spawn(0, "sleeper", [&] {
    Clock::time_point start = Clock::now();
    for (int i = 0; i < kSleeps; ++i) {
      sched.Sleep(sim::kMicrosecond);
    }
    seconds = SecondsSince(start);
  });
  sched.Run();
  return NsPerOp(seconds, kSleeps);
}

double MeasureReference() {
  constexpr int kRefs = 2000000;
  System s(kDirectory);
  sim::Machine& machine = s.machine;
  std::vector<int> targets(64);
  for (size_t i = 0; i < targets.size(); ++i) {
    targets[i] = static_cast<int>(apps::Mix64(i) % 16);
  }
  double seconds = 0;
  machine.scheduler().Spawn(0, "references", [&] {
    sim::SimTime total = 0;
    Clock::time_point start = Clock::now();
    for (int i = 0; i < kRefs; ++i) {
      total += machine.Reference(targets[static_cast<size_t>(i) & 63],
                                 (i & 1) ? sim::AccessKind::kWrite : sim::AccessKind::kRead);
    }
    seconds = SecondsSince(start);
    g_sink = static_cast<uint64_t>(total);
  });
  machine.scheduler().Run();
  return NsPerOp(seconds, kRefs);
}

// ATC-hit reads and writes, Pmap refills, test-and-set and block reads, all
// by one thread on processor 0 against pages it already holds.
void MeasureAccessPaths(double yield_ns, LayerCosts* costs) {
  constexpr uint32_t kAccesses = 1000000;
  constexpr uint32_t kRefills = 400000;
  constexpr uint32_t kTas = 200000;
  constexpr uint32_t kBlocks = 8000;
  constexpr uint32_t kBlockWords = 256;
  System s(kDirectory);
  kernel::Kernel& k = s.kernel;
  sim::Scheduler& sched = s.machine.scheduler();
  const uint32_t atc_entries = s.machine.params().atc_entries;
  const uint32_t words_per_page = s.machine.params().words_per_page();
  vm::AddressSpace* space = MapRegion(k, atc_entries + 1);
  const uint32_t va0 = PageVa(k, 0);
  const uint32_t va_conflict = PageVa(k, atc_entries);
  k.SpawnThread(space, 0, "access-paths", [&] {
    k.WriteWord(space, va0, 1);
    k.WriteWord(space, va_conflict, 1);
    uint64_t sum = 0;
    double seconds = TimeWithoutSwitches(sched, yield_ns, [&] {
      for (uint32_t i = 0; i < kAccesses; ++i) {
        sum += k.ReadWord(space, va0 + (i % words_per_page) * 4);
      }
    });
    costs->hit_read_ns = NsPerOp(seconds, kAccesses);
    seconds = TimeWithoutSwitches(sched, yield_ns, [&] {
      for (uint32_t i = 0; i < kAccesses; ++i) {
        k.WriteWord(space, va0 + (i % words_per_page) * 4, i);
      }
    });
    costs->hit_write_ns = NsPerOp(seconds, kAccesses);

    uint64_t misses = s.machine.stats().atc_misses;
    uint64_t faults = s.machine.stats().faults;
    seconds = TimeWithoutSwitches(sched, yield_ns, [&] {
      for (uint32_t i = 0; i < kRefills; ++i) {
        sum += k.ReadWord(space, (i & 1) ? va0 : va_conflict);
      }
    });
    Require(s.machine.stats().atc_misses - misses == kRefills &&
                s.machine.stats().faults == faults,
            "every conflicting read is a Pmap refill");
    costs->refill_ns = NsPerOp(seconds, kRefills);

    seconds = TimeWithoutSwitches(sched, yield_ns, [&] {
      for (uint32_t i = 0; i < kTas; ++i) {
        sum += k.AtomicTestAndSet(space, va0);
      }
    });
    costs->atomic_tas_ns = NsPerOp(seconds, kTas);

    std::vector<uint32_t> block(kBlockWords);
    const uint32_t blocks_per_page = words_per_page / kBlockWords;
    seconds = TimeWithoutSwitches(sched, yield_ns, [&] {
      for (uint32_t i = 0; i < kBlocks; ++i) {
        k.ReadWords(space, va0 + (i % blocks_per_page) * kBlockWords * 4, kBlockWords,
                    block.data());
        sum += block[i % kBlockWords];
      }
    });
    costs->read_words_ns_per_word = NsPerOp(seconds, uint64_t{kBlocks} * kBlockWords);
    g_sink = sum;
  });
  k.Run();
}

struct FaultCosts {
  double read_ns = 0;
  double write_ns = 0;
};

// `readers` threads on processors 1..readers read-fault every page of a
// region that processor 0 holds read-only (each fault replicates), then a
// writer on processor 0 write-faults every page, invalidating the readers'
// copies. Readers that stay active take a shootdown IPI per write fault;
// readers that have finished are reached by Cmap messages instead.
FaultCosts MeasureFaults(int readers, bool readers_stay_active) {
  constexpr uint32_t kPages = 256;
  const sim::SimTime poll = 100 * sim::kMicrosecond;
  System s(kDirectory);
  kernel::Kernel& k = s.kernel;
  mem::CoherentMemory& memory = k.memory();
  sim::Scheduler& sched = s.machine.scheduler();
  vm::AddressSpace* space = MapRegion(k, kPages);
  const uint32_t as_id = space->id();

  bool filled = false;
  int readers_done = 0;
  bool writes_done = false;
  double read_s = 0;
  double write_s = 0;
  uint64_t ipis = 0;
  auto fault = [&](uint32_t page, sim::AccessKind kind) {
    Clock::time_point start = Clock::now();
    mem::AccessOutcome outcome = memory.HandleFault(as_id, kBaseVpn + page, kind);
    double seconds = SecondsSince(start);
    Require(outcome == mem::AccessOutcome::kOk, "fault resolves");
    return seconds;
  };
  k.SpawnThread(space, 0, "fill", [&] {
    for (uint32_t page = 0; page < kPages; ++page) {
      fault(page, sim::AccessKind::kRead);
    }
    filled = true;
  });
  for (int r = 1; r <= readers; ++r) {
    k.SpawnThread(space, r, "reader", [&] {
      while (!filled) {
        sched.Sleep(poll);
      }
      for (uint32_t page = 0; page < kPages; ++page) {
        read_s += fault(page, sim::AccessKind::kRead);
      }
      ++readers_done;
      while (readers_stay_active && !writes_done) {
        sched.Sleep(poll);
      }
    });
  }
  k.SpawnThread(space, 0, "writer", [&] {
    while (readers_done < readers) {
      sched.Sleep(poll);
    }
    uint64_t ipis_before = s.machine.stats().ipis_sent;
    for (uint32_t page = 0; page < kPages; ++page) {
      write_s += fault(page, sim::AccessKind::kWrite);
    }
    ipis = s.machine.stats().ipis_sent - ipis_before;
    writes_done = true;
  });
  k.Run();
  Require(s.machine.stats().replications == uint64_t{kPages} * static_cast<uint64_t>(readers),
          "every read fault replicates");
  Require(ipis == (readers_stay_active ? uint64_t{kPages} * static_cast<uint64_t>(readers) : 0),
          "write faults interrupt exactly the active readers");
  FaultCosts costs;
  costs.read_ns = NsPerOp(read_s, uint64_t{kPages} * static_cast<uint64_t>(readers));
  costs.write_ns = NsPerOp(write_s, kPages);
  return costs;
}

double MeasureHistogramRecord() {
  constexpr int kRecords = 4000000;
  std::vector<sim::SimTime> values(4096);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<sim::SimTime>(apps::Mix64(i) % 2000000);
  }
  obs::LatencyHistogram histogram;
  Clock::time_point start = Clock::now();
  for (int i = 0; i < kRecords; ++i) {
    histogram.Record(values[static_cast<size_t>(i) & 4095]);
  }
  double seconds = SecondsSince(start);
  g_sink = histogram.count() + static_cast<uint64_t>(histogram.sum());
  return NsPerOp(seconds, kRecords);
}

LayerCosts MeasureOnce() {
  LayerCosts costs;
  costs.yield_ns = MeasureYield();
  costs.sleep_ns = MeasureSleep();
  costs.reference_ns = MeasureReference();
  MeasureAccessPaths(costs.yield_ns, &costs);
  FaultCosts quiet = MeasureFaults(1, /*readers_stay_active=*/false);
  costs.read_replicate_ns = quiet.read_ns;
  costs.write_invalidate_ns = quiet.write_ns;
  costs.fanout1_ns = MeasureFaults(1, /*readers_stay_active=*/true).write_ns;
  costs.fanout15_ns = MeasureFaults(15, /*readers_stay_active=*/true).write_ns;
  costs.hist_record_ns = MeasureHistogramRecord();
  return costs;
}

}  // namespace

LayerCosts MeasureLayerCosts(int rounds) {
  static constexpr double LayerCosts::*kEntries[] = {
      &LayerCosts::yield_ns,          &LayerCosts::sleep_ns,
      &LayerCosts::reference_ns,      &LayerCosts::hit_read_ns,
      &LayerCosts::hit_write_ns,      &LayerCosts::refill_ns,
      &LayerCosts::read_replicate_ns, &LayerCosts::write_invalidate_ns,
      &LayerCosts::fanout1_ns,        &LayerCosts::fanout15_ns,
      &LayerCosts::atomic_tas_ns,     &LayerCosts::read_words_ns_per_word,
      &LayerCosts::hist_record_ns,
  };
  LayerCosts best = MeasureOnce();
  for (int i = 1; i < rounds; ++i) {
    LayerCosts costs = MeasureOnce();
    for (double LayerCosts::*entry : kEntries) {
      best.*entry = std::min(best.*entry, costs.*entry);
    }
  }
  return best;
}

}  // namespace perfbench
