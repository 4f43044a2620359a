// Tracing for the benchmark's traced run, built only from the simulator's
// public hooks and counters:
//   * host-time spans around each call the benchmark makes into a layer;
//   * counting hooks at the layer boundaries (mem::AccessObserver,
//     mem::PageEventSink, sim::TimeObserver);
//   * a read-out of the public counters (MachineStats, per-processor and
//     per-module counters, obs histograms, the scheduler's switch count and
//     per-Cpage statistics) and the cross-checks between them.
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/kernel/kernel.h"
#include "src/mem/access_observer.h"
#include "src/mem/cpage.h"
#include "src/mem/page_event.h"
#include "src/mem/trace.h"
#include "src/obs/observability.h"
#include "src/sim/scheduler.h"
#include "src/sim/stats.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Host-time spans, kept in memory and written out when the run ends. A
// span's parent is the span open when it began.
class SpanLog {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double begin_s = 0;
    double end_s = 0;
  };

  // RAII span; a null log records nothing.
  class Scope {
   public:
    Scope(SpanLog* log, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    int index_ = -1;
  };

  // Total and self time (duration minus the time covered by child spans)
  // per span name, as "name total_s self_s count" lines.
  std::string SelfTimeTable() const;
  std::string ToJson() const;

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  int open_ = -1;
};

// Counts at the memory and scheduler layer boundaries. Installed on a fresh
// kernel before the app call and detached after it.
class BoundaryCounters : public platinum::mem::AccessObserver,
                         public platinum::mem::PageEventSink,
                         public platinum::sim::TimeObserver {
 public:
  static constexpr int kNumEventTypes =
      static_cast<int>(platinum::mem::TraceEventType::kLeaseExpire) + 1;

  void Attach(platinum::kernel::Kernel& kernel);
  void Detach(platinum::kernel::Kernel& kernel);

  void OnMemoryAccess(const platinum::mem::MemoryAccess& access) override;
  void OnPageEvent(const platinum::mem::TraceEvent& event) override;
  void OnTimeAdvance(platinum::sim::SimTime now) override;

  uint64_t accesses = 0;
  uint64_t access_writes = 0;
  uint64_t time_advances = 0;
  std::array<uint64_t, kNumEventTypes> events{};
  // Shootdown events carry the number of processors interrupted; rounds that
  // interrupt none only post Cmap messages.
  uint64_t synchronous_shootdowns = 0;
  uint64_t shootdown_ipis = 0;

  uint64_t event(platinum::mem::TraceEventType type) const {
    return events[static_cast<size_t>(type)];
  }
};

// Everything the traced run reads out of one machine after the app call.
struct CounterReadout {
  platinum::sim::MachineStats stats;
  uint64_t switches = 0;
  platinum::obs::ProcessorCounters cpu_sum;
  platinum::obs::ModuleCounters module_sum;
  platinum::mem::CpageStats cpage_sum;
  std::array<platinum::obs::LatencyHistogram, platinum::obs::kNumHistKinds> hist;

  static CounterReadout From(platinum::kernel::Kernel& kernel);
};

// One pair of counters that must agree, by name.
struct CrossCheck {
  std::string name;
  uint64_t left = 0;
  uint64_t right = 0;
  bool ok() const { return left == right; }
};

std::vector<CrossCheck> CrossCheckCounters(const CounterReadout& readout,
                                           const BoundaryCounters& boundary);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
