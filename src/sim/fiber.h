// Cooperative fibers for the virtual-time simulation.
//
// Every simulated thread of control (application thread, kernel daemon) is a
// fiber with its own stack and its own virtual clock. Fibers never run
// concurrently: the scheduler resumes exactly one at a time, always the
// runnable fiber with the smallest virtual clock, so simulated executions are
// deterministic and data structures need no host-level locking. A fiber that
// stops switches directly to the next one (src/sim/scheduler.h).
#ifndef SRC_SIM_FIBER_H_
#define SRC_SIM_FIBER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/time.h"

// Under AddressSanitizer every context switch is announced to the runtime
// (docs/CHECKING.md), which needs the stack bounds of each context.
#if defined(__SANITIZE_ADDRESS__)
#define PLATINUM_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PLATINUM_ASAN_FIBERS 1
#endif
#endif

namespace platinum::sim {

class Scheduler;

// One unit of fiber stack, aligned as the ABI requires of a stack pointer.
struct alignas(16) StackChunk {
  unsigned char bytes[16];
};

// A suspended host execution context: the host thread's own stack, suspended
// in Scheduler::Run() while fibers run, or a fiber.
class ExecutionContext {
 public:
  // Makes this a fresh context that begins `entry` on the given stack when
  // first resumed. `entry` must call OnEntry() first and must never return.
  void Prepare(StackChunk* stack, size_t chunks, void (*entry)());
  // Suspends the calling context into this one and resumes `next`. Returns
  // when another context resumes this one.
  void SwitchTo(ExecutionContext& next);
  // Like SwitchTo, for a calling context that will never be resumed.
  void ExitTo(ExecutionContext& next);
  // Completes the switch that first resumed a fresh context.
  static void OnEntry();

 private:
  // Where platinum_sim_switch left the suspended context's saved state.
  void* sp_ = nullptr;
#ifdef PLATINUM_ASAN_FIBERS
  const void* stack_bottom_ = nullptr;
  size_t stack_size_ = 0;
  void* fake_stack_ = nullptr;
#endif
};

class Fiber {
 public:
  enum class State : uint8_t {
    kReady,    // in the scheduler's run queue
    kRunning,  // currently executing
    kBlocked,  // waiting for an explicit Wake
    kDone,     // body returned
  };

  Fiber(uint32_t id, int processor, std::string name, std::function<void()> body,
        uint32_t stack_bytes, bool daemon);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  uint32_t id() const { return id_; }
  int processor() const { return processor_; }
  const std::string& name() const { return name_; }
  State state() const { return state_; }
  bool daemon() const { return daemon_; }
  // This fiber's virtual clock: the simulated time it has reached.
  SimTime clock() const { return clock_; }

 private:
  friend class Scheduler;

  const uint32_t id_;
  int processor_;
  const std::string name_;
  std::function<void()> body_;
  const bool daemon_;

  State state_ = State::kReady;
  SimTime clock_ = 0;
  // Virtual time at which this fiber was last resumed; used for quantum
  // accounting.
  SimTime resumed_at_ = 0;
  // Fibers waiting in Join() on this fiber.
  std::vector<Fiber*> joiners_;

  // Released once the body has finished.
  std::unique_ptr<StackChunk[]> stack_;
  const size_t stack_chunks_;
  ExecutionContext context_;
};

}  // namespace platinum::sim

#endif  // SRC_SIM_FIBER_H_
