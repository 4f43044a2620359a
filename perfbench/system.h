// The simulated system every workload and layer-cost microbenchmark runs on:
// a 16-node Butterfly Plus (4 KB pages) under a kernel with the paper's
// timestamp replication policy (t1 = 10 ms) and the defrost daemon running.
#ifndef PERFBENCH_SYSTEM_H_
#define PERFBENCH_SYSTEM_H_

#include <string>

#include "src/kernel/kernel.h"
#include "src/sim/machine.h"
#include "src/sim/params.h"

namespace perfbench {

inline constexpr const char* kDirectory = "directory";
inline constexpr const char* kTardis = "tardis";
inline constexpr int kNodes = 16;

inline platinum::kernel::KernelOptions KernelOptionsFor(const std::string& protocol) {
  platinum::kernel::KernelOptions options;
  options.protocol = protocol;
  return options;
}

// Constructed in place (neither member can move); the kernel is destroyed
// before the machine it runs on.
struct System {
  explicit System(const std::string& protocol)
      : machine(platinum::sim::ButterflyPlusParams(kNodes)),
        kernel(&machine, KernelOptionsFor(protocol)) {}

  platinum::sim::Machine machine;
  platinum::kernel::Kernel kernel;
};

}  // namespace perfbench

#endif  // PERFBENCH_SYSTEM_H_
