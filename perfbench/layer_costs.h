// The layer cost table: host nanoseconds per call of each layer's public
// entry point, each timed in isolation on a fresh 16-node machine. Multiplied
// by the per-layer counts of a workload run, the table predicts where that
// run's host time went (see README.md, "Host-time shares").
#ifndef PERFBENCH_LAYER_COSTS_H_
#define PERFBENCH_LAYER_COSTS_H_

namespace perfbench {

struct LayerCosts {
  // sim: one fiber switch (Scheduler::Yield ping-pong between two fibers)
  // and one Scheduler::Sleep.
  double yield_ns = 0;
  double sleep_ns = 0;
  // sim: one Machine::Reference (interconnect + module queue + obs record).
  double reference_ns = 0;
  // hw: Kernel::ReadWord / WriteWord on a resident page (ATC hit), and a read
  // of one of two pages that conflict in the direct-mapped ATC (Pmap refill).
  // Each includes its Machine::Reference; the yields the accesses trigger
  // are subtracted.
  double hit_read_ns = 0;
  double hit_write_ns = 0;
  double refill_ns = 0;
  // mem: CoherentMemory::HandleFault for a read fault that replicates a page
  // from another node, a write fault that invalidates one inactive reader's
  // copy (no IPI), and write faults that shoot down 1 or 15 active readers.
  double read_replicate_ns = 0;
  double write_invalidate_ns = 0;
  double fanout1_ns = 0;
  double fanout15_ns = 0;
  // kernel: Kernel::AtomicTestAndSet on a resident word, and
  // Kernel::ReadWords per word in 256-word blocks.
  double atomic_tas_ns = 0;
  double read_words_ns_per_word = 0;
  // obs: one LatencyHistogram::Record.
  double hist_record_ns = 0;
};

// Runs every microbenchmark `rounds` times and keeps each entry's fastest
// round, the estimator host_s uses too. Takes about a second per round.
LayerCosts MeasureLayerCosts(int rounds);

}  // namespace perfbench

#endif  // PERFBENCH_LAYER_COSTS_H_
