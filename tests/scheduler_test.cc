// Unit tests for the virtual-time fiber scheduler.
#include "src/sim/scheduler.h"

#include <gtest/gtest.h>

#include <cfenv>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/sim/time.h"

namespace platinum::sim {
namespace {

constexpr SimTime kQuantum = 20 * kMicrosecond;
constexpr uint32_t kStack = 128 * 1024;

TEST(SchedulerTest, RunsSingleFiberToCompletion) {
  Scheduler sched(2, kQuantum, kStack);
  bool ran = false;
  sched.Spawn(0, "solo", [&] {
    sched.Advance(5 * kMicrosecond);
    ran = true;
  });
  sched.Run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sched.global_now(), 5 * kMicrosecond);
}

TEST(SchedulerTest, InterleavesByVirtualTime) {
  Scheduler sched(2, kQuantum, kStack);
  std::vector<int> order;
  // Fiber A advances in large steps, B in small ones; with yields between
  // steps, B's events must come first in virtual-time order.
  sched.Spawn(0, "A", [&] {
    for (int i = 0; i < 3; ++i) {
      sched.Advance(100 * kMicrosecond);
      order.push_back(1);
      sched.Yield();
    }
  });
  sched.Spawn(1, "B", [&] {
    for (int i = 0; i < 3; ++i) {
      sched.Advance(10 * kMicrosecond);
      order.push_back(2);
      sched.Yield();
    }
  });
  sched.Run();
  ASSERT_EQ(order.size(), 6u);
  // A (spawned first) runs its first step to the yield at t=100us, after
  // which the scheduler prefers B until B's clock passes A's: the recorded
  // order is A, B, B, B, A, A.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 2, 2, 1, 1}));
}

TEST(SchedulerTest, MaybeYieldHonorsQuantum) {
  Scheduler sched(1, kQuantum, kStack);
  sched.Spawn(0, "f", [&] {
    sched.Advance(kQuantum / 2);
    EXPECT_FALSE(sched.MaybeYield());
    sched.Advance(kQuantum);
    EXPECT_TRUE(sched.MaybeYield());
  });
  sched.Run();
}

TEST(SchedulerTest, SameProcessorFibersSerialize) {
  Scheduler sched(1, kQuantum, kStack);
  // Two fibers on one processor, each consuming 50us of CPU; total elapsed
  // must be at least 100us even though both start at t=0.
  for (int i = 0; i < 2; ++i) {
    std::string name = "f";
    name += std::to_string(i);
    sched.Spawn(0, name, [&] { sched.Advance(50 * kMicrosecond); });
  }
  sched.Run();
  EXPECT_EQ(sched.global_now(), 100 * kMicrosecond);
}

TEST(SchedulerTest, DifferentProcessorsRunInParallel) {
  Scheduler sched(2, kQuantum, kStack);
  for (int i = 0; i < 2; ++i) {
    std::string name = "f";
    name += std::to_string(i);
    sched.Spawn(i, name, [&] { sched.Advance(50 * kMicrosecond); });
  }
  sched.Run();
  EXPECT_EQ(sched.global_now(), 50 * kMicrosecond);
}

TEST(SchedulerTest, SleepReleasesProcessor) {
  Scheduler sched(1, kQuantum, kStack);
  SimTime b_done = 0;
  sched.Spawn(0, "sleeper", [&] { sched.Sleep(1 * kMillisecond); });
  sched.Spawn(0, "worker", [&] {
    sched.Advance(100 * kMicrosecond);
    b_done = sched.now();
  });
  sched.Run();
  // The worker must not wait for the sleeper's wakeup.
  EXPECT_EQ(b_done, 100 * kMicrosecond);
  EXPECT_EQ(sched.global_now(), 1 * kMillisecond);
}

TEST(SchedulerTest, BlockAndWake) {
  Scheduler sched(2, kQuantum, kStack);
  Fiber* blocked = nullptr;
  SimTime resumed_at = 0;
  blocked = sched.Spawn(0, "blocked", [&] {
    sched.Block();
    resumed_at = sched.now();
  });
  sched.Spawn(1, "waker", [&] {
    sched.Advance(300 * kMicrosecond);
    sched.Wake(blocked, sched.now());
  });
  sched.Run();
  EXPECT_EQ(resumed_at, 300 * kMicrosecond);
}

TEST(SchedulerTest, JoinAdvancesJoinerClock) {
  Scheduler sched(2, kQuantum, kStack);
  Fiber* worker = sched.Spawn(0, "worker", [&] { sched.Advance(500 * kMicrosecond); });
  SimTime join_time = 0;
  sched.Spawn(1, "joiner", [&] {
    sched.Join(worker);
    join_time = sched.now();
  });
  sched.Run();
  EXPECT_EQ(join_time, 500 * kMicrosecond);
}

TEST(SchedulerTest, JoinFinishedFiberReturnsImmediately) {
  Scheduler sched(2, kQuantum, kStack);
  Fiber* worker = sched.Spawn(0, "worker", [&] { sched.Advance(10 * kMicrosecond); });
  sched.Spawn(1, "late-joiner", [&] {
    sched.Advance(1 * kMillisecond);
    sched.Join(worker);
    EXPECT_EQ(sched.now(), 1 * kMillisecond);  // no extra wait
  });
  sched.Run();
}

TEST(SchedulerTest, DaemonDoesNotKeepRunAlive) {
  Scheduler sched(1, kQuantum, kStack);
  int daemon_iterations = 0;
  sched.Spawn(
      0, "daemon",
      [&] {
        for (;;) {
          sched.Sleep(10 * kMicrosecond);
          ++daemon_iterations;
        }
      },
      /*daemon=*/true);
  sched.Spawn(0, "app", [&] { sched.Sleep(35 * kMicrosecond); });
  sched.Run();
  // The daemon ticked while the app was alive, then Run() stopped.
  EXPECT_GE(daemon_iterations, 2);
  EXPECT_LE(daemon_iterations, 4);
}

TEST(SchedulerTest, InterruptCostChargedToNextOccupant) {
  Scheduler sched(1, kQuantum, kStack);
  sched.AddInterruptCost(0, 7 * kMicrosecond);
  sched.Spawn(0, "victim", [&] { EXPECT_EQ(sched.now(), 7 * kMicrosecond); });
  sched.Run();
}

TEST(SchedulerTest, MigrateCurrentMovesProcessor) {
  Scheduler sched(2, kQuantum, kStack);
  // Processor 1 is busy until t=200us.
  sched.Spawn(1, "busy", [&] { sched.Advance(200 * kMicrosecond); });
  sched.Spawn(0, "migrant", [&] {
    sched.Advance(50 * kMicrosecond);
    sched.MigrateCurrent(1);
    EXPECT_EQ(sched.current_processor(), 1);
    // Arrival waits for the busy fiber to release the node.
    EXPECT_GE(sched.now(), 200 * kMicrosecond);
  });
  sched.Run();
}

TEST(SchedulerTest, DeterministicAcrossRuns) {
  auto run_once = [] {
    Scheduler sched(4, kQuantum, kStack);
    std::vector<uint32_t> order;
    for (int p = 0; p < 4; ++p) {
      sched.Spawn(p, "f", [&, p] {
        for (int i = 0; i < 10; ++i) {
          sched.Advance((p + 1) * 7 * kMicrosecond);
          order.push_back(static_cast<uint32_t>(p));
          sched.Yield();
        }
      });
    }
    sched.Run();
    return std::pair(order, sched.global_now());
  };
  auto a = run_once();
  auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(SchedulerDeathTest, DeadlockAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Scheduler sched(1, kQuantum, kStack);
        sched.Spawn(0, "stuck", [&] { sched.Block(); });
        sched.Run();
      },
      "deadlock");
}

TEST(SchedulerTest, SpawnFromFiberStartsAtSpawnerClock) {
  Scheduler sched(2, kQuantum, kStack);
  SimTime child_start = 0;
  sched.Spawn(0, "parent", [&] {
    sched.Advance(123 * kMicrosecond);
    sched.Spawn(1, "child", [&] { child_start = sched.now(); });
  });
  sched.Run();
  EXPECT_EQ(child_start, 123 * kMicrosecond);
}

// --- The fiber switch --------------------------------------------------------
// These cases cover what a hand-written context switch can get wrong: the
// stack a fiber starts on, the state that must survive a switch, unwinding
// and deep stacks.

bool IsAligned16(const void* p) {
  // Read through a volatile so the compiler cannot fold the check from the
  // declared alignment.
  const void* volatile address = p;
  return reinterpret_cast<uintptr_t>(address) % 16 == 0;
}

TEST(SchedulerTest, FiberBodyStartsOnAnAlignedStack) {
  Scheduler sched(2, kQuantum, kStack);
  bool outer_aligned = false;
  bool inner_aligned = false;
  sched.Spawn(0, "outer", [&] {
    alignas(16) char probe[16];
    outer_aligned = IsAligned16(probe);
    sched.Spawn(1, "inner", [&] {
      alignas(16) char inner_probe[16];
      inner_aligned = IsAligned16(inner_probe);
    });
  });
  sched.Run();
  EXPECT_TRUE(outer_aligned);
  EXPECT_TRUE(inner_aligned);
}

// 1/3 rounded under the current rounding mode, computed at run time.
float OneThird() {
  volatile float one = 1.0f;
  volatile float three = 3.0f;
  return one / three;
}

TEST(SchedulerTest, RoundingModeIsPerFiber) {
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  Scheduler sched(2, kQuantum, kStack);
  int up_mode_after_yield = -1;
  int down_mode_at_start = -1;
  int down_mode_after_yield = -1;
  float up_third = 0;
  float down_third = 0;
  sched.Spawn(0, "up", [&] {
    std::fesetround(FE_UPWARD);
    sched.Yield();
    up_mode_after_yield = std::fegetround();
    up_third = OneThird();
    std::fesetround(FE_TONEAREST);
  });
  sched.Spawn(1, "down", [&] {
    // Runs while "up" is suspended with FE_UPWARD set.
    down_mode_at_start = std::fegetround();
    std::fesetround(FE_DOWNWARD);
    sched.Yield();
    down_mode_after_yield = std::fegetround();
    down_third = OneThird();
  });
  sched.Run();
  EXPECT_EQ(down_mode_at_start, FE_TONEAREST);
  EXPECT_EQ(up_mode_after_yield, FE_UPWARD);
  EXPECT_EQ(down_mode_after_yield, FE_DOWNWARD);
  // The SSE control register (MXCSR) follows the fiber, not just x87's.
  EXPECT_GT(up_third, down_third);
  // The dispatch loop's mode is untouched by either fiber.
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
}

TEST(SchedulerTest, ExceptionUnwindsInsideFiberAcrossYield) {
  Scheduler sched(2, kQuantum, kStack);
  std::vector<std::string> log;
  struct Guard {
    std::vector<std::string>* log;
    ~Guard() { log->push_back("unwound"); }
  };
  sched.Spawn(0, "thrower", [&] {
    try {
      Guard guard{&log};
      sched.Yield();
      throw std::runtime_error("caught");
    } catch (const std::runtime_error& e) {
      log.push_back(e.what());
    }
    sched.Yield();
    log.push_back("resumed");
  });
  sched.Spawn(1, "other", [&] {
    log.push_back("other");
    sched.Yield();
    log.push_back("other again");
  });
  sched.Run();
  EXPECT_EQ(log, (std::vector<std::string>{"other", "unwound", "caught", "other again",
                                           "resumed"}));
}

// Fills a 4 KB frame per level with a pattern of (seed, depth), yields at
// every fourth level and at the bottom, and checks the frame on the way back.
bool RecurseAndYield(Scheduler& sched, uint32_t seed, uint32_t depth) {
  volatile uint32_t frame[1024];
  auto expected = [&](uint32_t i) { return seed * 1000003u + depth * 257u + i; };
  for (uint32_t i = 0; i < 1024; ++i) {
    frame[i] = expected(i);
  }
  if (depth % 4 == 0) {
    sched.Yield();
  }
  bool deeper_intact = depth == 0 || RecurseAndYield(sched, seed, depth - 1);
  for (uint32_t i = 0; i < 1024; ++i) {
    if (frame[i] != expected(i)) {
      return false;
    }
  }
  return deeper_intact;
}

TEST(SchedulerTest, DeepStacksSurviveYields) {
  Scheduler sched(2, kQuantum, kStack);
  // About three quarters of each fiber's stack in 4 KB frames (more under
  // AddressSanitizer, whose redzones make each frame larger).
  constexpr uint32_t kDepth = kStack * 3 / 4 / 4096;
  bool intact[2] = {false, false};
  for (uint32_t f = 0; f < 2; ++f) {
    sched.Spawn(static_cast<int>(f), "deep", [&, f] {
      intact[f] = RecurseAndYield(sched, f + 1, kDepth);
    });
  }
  sched.Run();
  EXPECT_TRUE(intact[0]);
  EXPECT_TRUE(intact[1]);
}

TEST(SchedulerTest, TenThousandFibersAreDeterministic) {
  constexpr int kFibers = 10000;
  struct Outcome {
    uint64_t switches;
    SimTime global_now;
    std::vector<SimTime> clocks;
  };
  auto run_once = [] {
    Scheduler sched(4, kQuantum, kStack);
    std::vector<Fiber*> fibers;
    sched.Spawn(0, "spawner", [&] {
      for (int i = 0; i < kFibers; ++i) {
        fibers.push_back(sched.Spawn(i % 4, "w" + std::to_string(i), [&sched, i] {
          sched.Advance((i % 7 + 1) * kMicrosecond);
          sched.Yield();
          sched.Sleep((i % 5) * kMicrosecond);
          sched.Advance(kMicrosecond);
        }));
        if (i % 100 == 99) {
          sched.Sleep(10 * kMicrosecond);  // let the wave run
        }
      }
    });
    sched.Run();
    Outcome outcome{sched.context_switches(), sched.global_now(), {}};
    for (const Fiber* fiber : fibers) {
      EXPECT_EQ(fiber->state(), Fiber::State::kDone);
      outcome.clocks.push_back(fiber->clock());
    }
    return outcome;
  };
  Outcome a = run_once();
  Outcome b = run_once();
  ASSERT_EQ(a.clocks.size(), static_cast<size_t>(kFibers));
  // Every worker is dispatched at least three times, once per switch point.
  EXPECT_GE(a.switches, 3u * kFibers);
  EXPECT_EQ(a.switches, b.switches);
  EXPECT_EQ(a.global_now, b.global_now);
  EXPECT_EQ(a.clocks, b.clocks);
}

}  // namespace
}  // namespace platinum::sim
