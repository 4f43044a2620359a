// Unit tests for the virtual-time fiber scheduler.
#include "src/sim/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cfenv>
#include <cstdint>
#include <functional>
#include <ostream>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
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

class RecordingObserver : public TimeObserver {
 public:
  void OnTimeAdvance(SimTime now) override { seen.push_back(now); }
  std::vector<SimTime> seen;
};

// A deadlock found while a fiber is switching out is reported the same way
// as one found before the first dispatch.
TEST(SchedulerDeathTest, DeadlockWhenLastRunnableFiberBlocks) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Scheduler sched(2, kQuantum, kStack);
        sched.Spawn(0, "first", [&] { sched.Block(); });
        sched.Spawn(1, "second", [&] {
          sched.Advance(kMicrosecond);
          sched.Block();
        });
        sched.Run();
      },
      "deadlock: 2 non-daemon fibers alive but none runnable");
}

TEST(SchedulerDeathTest, DeadlockWhenFiberFinishesLeavingOnlyBlockedOnes) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Scheduler sched(2, kQuantum, kStack);
        sched.Spawn(0, "stuck", [&] { sched.Block(); });
        sched.Spawn(1, "leaver", [&] { sched.Advance(kMicrosecond); });
        sched.Run();
      },
      "deadlock: 1 non-daemon fibers alive but none runnable");
}

TEST(SchedulerDeathTest, DeadlockWhenOnlyABlockedDaemonRemains) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Scheduler sched(1, kQuantum, kStack);
        sched.Spawn(0, "daemon", [&] { sched.Block(); }, /*daemon=*/true);
        sched.Spawn(0, "app", [&] {
          sched.Yield();
          sched.Block();
        });
        sched.Run();
      },
      "deadlock: 1 non-daemon fibers alive but none runnable");
}

TEST(SchedulerTest, SuspendedDaemonResumesInSecondRun) {
  Scheduler sched(1, kQuantum, kStack);
  std::vector<SimTime> ticks;
  Fiber* daemon = sched.Spawn(
      0, "daemon",
      [&] {
        for (;;) {
          sched.Sleep(10 * kMicrosecond);
          ticks.push_back(sched.now());
        }
      },
      /*daemon=*/true);
  sched.Spawn(0, "first", [&] { sched.Sleep(35 * kMicrosecond); });
  sched.Run();
  EXPECT_EQ(ticks, (std::vector<SimTime>{10 * kMicrosecond, 20 * kMicrosecond,
                                         30 * kMicrosecond}));
  EXPECT_EQ(daemon->state(), Fiber::State::kReady);
  EXPECT_EQ(sched.global_now(), 35 * kMicrosecond);
  EXPECT_EQ(sched.context_switches(), 6u);

  // The second Run() picks the daemon up where it was suspended (due at
  // 40 us); the new fiber starts at the global clock.
  sched.Spawn(0, "second", [&] { sched.Sleep(25 * kMicrosecond); });
  sched.Run();
  EXPECT_EQ(ticks, (std::vector<SimTime>{10 * kMicrosecond, 20 * kMicrosecond,
                                         30 * kMicrosecond, 40 * kMicrosecond,
                                         50 * kMicrosecond}));
  EXPECT_EQ(sched.global_now(), 60 * kMicrosecond);
  EXPECT_EQ(sched.context_switches(), 10u);
}

TEST(SchedulerTest, TimeObserverSeesEachAdvanceOnce) {
  RecordingObserver recorder;
  Scheduler sched(2, kQuantum, kStack);
  sched.SetTimeObserver(&recorder);
  sched.Spawn(0, "A", [&] {
    sched.Advance(10 * kMicrosecond);
    sched.Yield();  // releases processor 0 at 10 us
    sched.Advance(5 * kMicrosecond);
    sched.Sleep(20 * kMicrosecond);   // releases at 15 us, due at 35 us
    sched.Advance(1 * kMicrosecond);  // A is re-dispatched to itself first
  });
  sched.Spawn(1, "B", [&] {
    sched.Sleep(7 * kMicrosecond);
    sched.Advance(4 * kMicrosecond);  // finishes at 11 us
  });
  sched.Run();
  // A sleeping fiber's wake-up time is seen only once it is dispatched.
  EXPECT_EQ(recorder.seen,
            (std::vector<SimTime>{10 * kMicrosecond, 11 * kMicrosecond, 15 * kMicrosecond,
                                  35 * kMicrosecond, 36 * kMicrosecond}));
  // A, B, B, A, A.
  EXPECT_EQ(sched.context_switches(), 5u);
}

TEST(SchedulerTest, MaybeYieldReportsSelfRedispatch) {
  Scheduler sched(2, kQuantum, kStack);
  sched.Spawn(1, "far", [&] { sched.Sleep(10 * kQuantum); });
  sched.Spawn(0, "ahead", [&] {
    sched.Advance(kQuantum);
    uint64_t before = sched.context_switches();
    // The only other fiber is further ahead: this one is dispatched again
    // at once, which still counts as a switch and restarts its quantum.
    EXPECT_TRUE(sched.MaybeYield());
    EXPECT_EQ(sched.context_switches(), before + 1);
    EXPECT_EQ(sched.now(), kQuantum);
    EXPECT_FALSE(sched.MaybeYield());
  });
  sched.Run();
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
        // Appended rather than `"w" + std::to_string(i)`: GCC 12 at -O2 and
        // above raises a false -Wrestrict on that operator+.
        std::string name = "w";
        name += std::to_string(i);
        fibers.push_back(sched.Spawn(i % 4, std::move(name), [&sched, i] {
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


// --- Dispatch order against a reference model ---------------------------------
// Seeded random fiber programs run on the scheduler and on a naive model of
// its rule: dispatch the ready fiber with the smallest (clock when it became
// ready, order in which it became ready), starting it at the later of its
// clock and the moment its processor was released, plus the processor's
// pending interrupt cost. The model keeps every fiber in one list and finds
// the next one by a linear scan.

enum class OpKind {
  kAdvance,     // Advance(time)
  kYield,       // Yield()
  kMaybeYield,  // MaybeYield()
  kSleep,       // Sleep(time)
  kBlock,       // Block(), until some fiber's kWakeAll
  kWakeAll,     // Wake every fiber parked by kBlock, not before now + time
  kJoin,        // Join(fiber id - arg) if that is a non-daemon fiber
  kMigrate,     // MigrateCurrent(arg)
  kInterrupt,   // AddInterruptCost(arg, time)
  kSpawn,       // Spawn(programs[arg]) from the running fiber
};

struct Op {
  OpKind kind;
  SimTime time = 0;
  int arg = 0;
};

struct Program {
  int processor = 0;
  bool daemon = false;  // daemons repeat their ops forever
  std::vector<Op> ops;
};

struct ProgramSet {
  std::vector<Program> programs;
  int initial = 0;  // programs[0, initial) are spawned before Run()
};

struct Dispatch {
  uint32_t fiber;
  SimTime start;
  bool operator==(const Dispatch&) const = default;
  friend void PrintTo(const Dispatch& d, std::ostream* os) {
    *os << "fiber " << d.fiber << " at " << d.start;
  }
};

class ProgramGenerator {
 public:
  ProgramGenerator(uint64_t seed, int procs) : rng_(seed), procs_(procs) {}

  ProgramSet Generate() {
    ProgramSet set;
    // Fiber 0 is the daemon that releases parked fibers, so every kBlock ends.
    set.programs.push_back(
        {0, true, {{OpKind::kSleep, 150 * kMicrosecond, 0}, {OpKind::kWakeAll, 0, 0}}});
    const int initial = procs_ + 4;
    for (int i = 1; i < initial; ++i) {
      set.programs.push_back(Draw(6) == 0 ? Daemon() : Worker(&set, /*may_spawn=*/true));
    }
    set.initial = initial;
    // Children are appended after the initial programs, so their indices are
    // only known once every initial program exists.
    for (auto& [parent, child] : pending_spawns_) {
      set.programs[static_cast<size_t>(parent)].ops[child.first].arg =
          static_cast<int>(set.programs.size());
      set.programs.push_back(child.second);
    }
    return set;
  }

 private:
  uint64_t Draw(uint64_t n) { return rng_() % n; }
  // Multiples of 5 us, so that equal clocks (and the spawn-order tie-break)
  // are common.
  SimTime Time(uint64_t max_steps) {
    return static_cast<SimTime>(Draw(max_steps + 1)) * 5 * kMicrosecond;
  }
  int Processor() { return static_cast<int>(Draw(static_cast<uint64_t>(procs_))); }

  Program Daemon() {
    Program program{Processor(), true, {}};
    program.ops.push_back({OpKind::kSleep, 5 * kMicrosecond + Time(8), 0});
    for (int i = 0; i < 4; ++i) {
      switch (Draw(5)) {
        case 0:
          program.ops.push_back({OpKind::kAdvance, Time(6), 0});
          break;
        case 1:
          program.ops.push_back({OpKind::kYield, 0, 0});
          break;
        case 2:
          program.ops.push_back({OpKind::kMaybeYield, 0, 0});
          break;
        case 3:
          program.ops.push_back({OpKind::kInterrupt, Time(2), Processor()});
          break;
        default:
          program.ops.push_back({OpKind::kWakeAll, Time(2), 0});
          break;
      }
    }
    return program;
  }

  Program Worker(ProgramSet* set, bool may_spawn) {
    Program program{Processor(), false, {}};
    const int length = 10 + static_cast<int>(Draw(30));
    for (int i = 0; i < length; ++i) {
      switch (Draw(may_spawn ? 11 : 10)) {
        case 0:
        case 1:
          program.ops.push_back({OpKind::kAdvance, Time(6), 0});
          break;
        case 2:
          program.ops.push_back({OpKind::kYield, 0, 0});
          break;
        case 3:
          program.ops.push_back({OpKind::kAdvance, Time(6), 0});
          program.ops.push_back({OpKind::kMaybeYield, 0, 0});
          break;
        case 4:
          program.ops.push_back({OpKind::kSleep, Time(10), 0});
          break;
        case 5:
          program.ops.push_back({OpKind::kBlock, 0, 0});
          break;
        case 6:
          program.ops.push_back({OpKind::kWakeAll, Time(2), 0});
          break;
        case 7:
          program.ops.push_back({OpKind::kJoin, 0, 1 + static_cast<int>(Draw(4))});
          break;
        case 8:
          program.ops.push_back({OpKind::kMigrate, 0, Processor()});
          break;
        case 9:
          program.ops.push_back({OpKind::kInterrupt, Time(2), Processor()});
          break;
        default: {
          Program child = Draw(4) == 0 ? Daemon() : Worker(set, /*may_spawn=*/false);
          pending_spawns_.push_back(
              {static_cast<int>(set->programs.size()), {program.ops.size(), std::move(child)}});
          program.ops.push_back({OpKind::kSpawn, 0, -1});
          break;
        }
      }
    }
    return program;
  }

  std::mt19937_64 rng_;
  const int procs_;
  // (parent program index, (op index, child program)).
  std::vector<std::pair<int, std::pair<size_t, Program>>> pending_spawns_;
};

// The naive model of Scheduler's dispatch rule.
class DispatchModel {
 public:
  DispatchModel(const ProgramSet& set, int procs, SimTime quantum)
      : set_(set), quantum_(quantum), available_(static_cast<size_t>(procs), 0),
        interrupt_(static_cast<size_t>(procs), 0) {}

  void Run() {
    for (int i = 0; i < set_.initial; ++i) {
      Spawn(i, global_now_);
    }
    while (live_non_daemon_ > 0) {
      int next = -1;
      for (size_t i = 0; i < fibers_.size(); ++i) {
        const F& f = fibers_[i];
        if (f.state == State::kReady &&
            (next < 0 || f.key < fibers_[static_cast<size_t>(next)].key ||
             (f.key == fibers_[static_cast<size_t>(next)].key &&
              f.seq < fibers_[static_cast<size_t>(next)].seq))) {
          next = static_cast<int>(i);
        }
      }
      ASSERT_GE(next, 0) << "model deadlock";
      DispatchFiber(next);
      RunUntilSwitch(next);
    }
  }

  std::vector<Dispatch> dispatches;
  std::vector<SimTime> time_advances;

 private:
  enum class State { kReady, kRunning, kBlocked, kDone };
  struct F {
    int program = 0;
    int processor = 0;
    SimTime clock = 0;
    SimTime resumed_at = 0;
    State state = State::kReady;
    SimTime key = 0;
    uint64_t seq = 0;
    size_t pc = 0;
    bool parked = false;  // blocked by kBlock (not by Join)
    std::vector<int> joiners;
  };

  const Program& ProgramOf(const F& f) const {
    return set_.programs[static_cast<size_t>(f.program)];
  }

  void Bump(SimTime t) {
    if (t > global_now_) {
      global_now_ = t;
      time_advances.push_back(t);
    }
  }
  void Release(const F& f, SimTime at) {
    SimTime& available = available_[static_cast<size_t>(f.processor)];
    available = std::max(available, at);
  }
  void MakeReady(F& f) {
    f.state = State::kReady;
    f.key = f.clock;
    f.seq = next_seq_++;
  }
  void Spawn(int program, SimTime clock) {
    const Program& p = set_.programs[static_cast<size_t>(program)];
    F f;
    f.program = program;
    f.processor = p.processor;
    f.clock = clock;
    if (!p.daemon) {
      ++live_non_daemon_;
    }
    fibers_.push_back(f);
    MakeReady(fibers_.back());
  }
  void Wake(F& f, SimTime not_before) {
    f.clock = std::max(f.clock, not_before);
    MakeReady(f);
  }
  void DispatchFiber(int id) {
    F& f = fibers_[static_cast<size_t>(id)];
    auto p = static_cast<size_t>(f.processor);
    SimTime start = std::max(f.clock, available_[p]) + interrupt_[p];
    interrupt_[p] = 0;
    f.clock = start;
    f.resumed_at = start;
    f.state = State::kRunning;
    Bump(start);
    dispatches.push_back({static_cast<uint32_t>(id), start});
  }
  void Yield(F& f) {
    MakeReady(f);
    Release(f, f.clock);
    Bump(f.clock);
  }
  void Block(F& f) {
    f.state = State::kBlocked;
    Release(f, f.clock);
    Bump(f.clock);
  }
  void Finish(int id) {
    F& f = fibers_[static_cast<size_t>(id)];
    f.state = State::kDone;
    if (!ProgramOf(f).daemon) {
      --live_non_daemon_;
    }
    for (int joiner : f.joiners) {
      Wake(fibers_[static_cast<size_t>(joiner)], f.clock);
    }
    f.joiners.clear();
    Release(f, f.clock);
    Bump(f.clock);
  }

  // Interprets fiber `id`'s program from where it stopped up to its next
  // switch point or its end.
  void RunUntilSwitch(int id) {
    for (;;) {
      // References into fibers_ are re-taken after every kSpawn.
      F* f = &fibers_[static_cast<size_t>(id)];
      const Program& program = ProgramOf(*f);
      if (f->pc == program.ops.size()) {
        if (!program.daemon) {
          Finish(id);
          return;
        }
        f->pc = 0;
      }
      const Op& op = program.ops[f->pc++];
      switch (op.kind) {
        case OpKind::kAdvance:
          f->clock += op.time;
          break;
        case OpKind::kYield:
          Yield(*f);
          return;
        case OpKind::kMaybeYield:
          if (f->clock - f->resumed_at >= quantum_) {
            Yield(*f);
            return;
          }
          break;
        case OpKind::kSleep: {
          SimTime release = f->clock;
          f->clock += op.time;
          MakeReady(*f);
          Release(*f, release);
          Bump(release);
          return;
        }
        case OpKind::kBlock:
          f->parked = true;
          Block(*f);
          return;
        case OpKind::kWakeAll:
          for (F& other : fibers_) {
            if (other.parked) {
              other.parked = false;
              Wake(other, f->clock + op.time);
            }
          }
          break;
        case OpKind::kJoin: {
          int target = id - op.arg;
          if (target < 0 || ProgramOf(fibers_[static_cast<size_t>(target)]).daemon) {
            break;
          }
          F& t = fibers_[static_cast<size_t>(target)];
          if (t.state == State::kDone) {
            f->clock = std::max(f->clock, t.clock);
            break;
          }
          t.joiners.push_back(id);
          Block(*f);
          return;
        }
        case OpKind::kMigrate:
          if (op.arg == f->processor) {
            break;
          }
          Release(*f, f->clock);
          f->processor = op.arg;
          Yield(*f);
          return;
        case OpKind::kInterrupt:
          interrupt_[static_cast<size_t>(op.arg)] += op.time;
          break;
        case OpKind::kSpawn:
          Spawn(op.arg, f->clock);
          break;
      }
    }
  }

  const ProgramSet& set_;
  const SimTime quantum_;
  std::vector<F> fibers_;
  std::vector<SimTime> available_;
  std::vector<SimTime> interrupt_;
  SimTime global_now_ = 0;
  uint64_t next_seq_ = 0;
  int live_non_daemon_ = 0;
};

// Runs `set` on a real Scheduler. Each fiber records a dispatch when its body
// starts and after every call that switched; the context-switch counter read
// at that moment must number the dispatches 1, 2, 3, ...
struct RealRun {
  std::vector<Dispatch> dispatches;
  std::vector<uint64_t> switch_counts;
  std::vector<SimTime> time_advances;
  uint64_t context_switches = 0;
};

RealRun RunPrograms(const ProgramSet& set, int procs) {
  Scheduler sched(procs, kQuantum, 64 * 1024);
  RecordingObserver observer;
  sched.SetTimeObserver(&observer);
  RealRun run;
  // Indexed by fiber id.
  std::vector<Fiber*> fibers;
  std::vector<int> program_of;
  std::vector<bool> parked;
  std::function<void(int)> spawn = [&](int program) {
    const Program& p = set.programs[static_cast<size_t>(program)];
    program_of.push_back(program);
    parked.push_back(false);
    fibers.push_back(nullptr);
    Fiber* fiber = sched.Spawn(
        p.processor, "p" + std::to_string(program),
        [&, program] {
          const Program& self_program = set.programs[static_cast<size_t>(program)];
          const uint32_t self = sched.current()->id();
          auto record = [&] {
            run.dispatches.push_back({self, sched.now()});
            run.switch_counts.push_back(sched.context_switches());
          };
          record();
          for (size_t pc = 0;; ++pc) {
            if (pc == self_program.ops.size()) {
              if (!self_program.daemon) {
                return;
              }
              pc = 0;
            }
            const Op& op = self_program.ops[pc];
            switch (op.kind) {
              case OpKind::kAdvance:
                sched.Advance(op.time);
                break;
              case OpKind::kYield:
                sched.Yield();
                record();
                break;
              case OpKind::kMaybeYield:
                if (sched.MaybeYield()) {
                  record();
                }
                break;
              case OpKind::kSleep:
                sched.Sleep(op.time);
                record();
                break;
              case OpKind::kBlock:
                parked[self] = true;
                sched.Block();
                record();
                break;
              case OpKind::kWakeAll:
                for (size_t id = 0; id < fibers.size(); ++id) {
                  if (parked[id]) {
                    parked[id] = false;
                    sched.Wake(fibers[id], sched.now() + op.time);
                  }
                }
                break;
              case OpKind::kJoin: {
                int target = static_cast<int>(self) - op.arg;
                if (target < 0 ||
                    set.programs[static_cast<size_t>(program_of[static_cast<size_t>(target)])]
                        .daemon) {
                  break;
                }
                Fiber* t = fibers[static_cast<size_t>(target)];
                bool done = t->state() == Fiber::State::kDone;
                sched.Join(t);
                if (!done) {
                  record();
                }
                break;
              }
              case OpKind::kMigrate: {
                bool moves = op.arg != sched.current_processor();
                sched.MigrateCurrent(op.arg);
                if (moves) {
                  record();
                }
                break;
              }
              case OpKind::kInterrupt:
                sched.AddInterruptCost(op.arg, op.time);
                break;
              case OpKind::kSpawn:
                spawn(op.arg);
                break;
            }
          }
        },
        p.daemon);
    fibers.back() = fiber;
  };
  for (int i = 0; i < set.initial; ++i) {
    spawn(i);
  }
  sched.Run();
  run.time_advances = observer.seen;
  run.context_switches = sched.context_switches();
  return run;
}

TEST(SchedulerTest, DispatchOrderMatchesLinearScanModel) {
  for (int procs : {1, 4, 16, 64}) {
    for (uint64_t seed : {1u, 2u, 3u, 4u}) {
      SCOPED_TRACE("procs=" + std::to_string(procs) + " seed=" + std::to_string(seed));
      ProgramSet set =
          ProgramGenerator(seed * 1000 + static_cast<uint64_t>(procs), procs).Generate();
      DispatchModel model(set, procs, kQuantum);
      model.Run();
      ASSERT_FALSE(HasFatalFailure());
      RealRun real = RunPrograms(set, procs);

      ASSERT_GT(model.dispatches.size(), static_cast<size_t>(set.initial));
      EXPECT_EQ(real.dispatches, model.dispatches);
      EXPECT_EQ(real.time_advances, model.time_advances);
      // Every dispatch is counted, a fiber re-dispatched to itself included.
      EXPECT_EQ(real.context_switches, real.dispatches.size());
      for (size_t i = 0; i < real.switch_counts.size(); ++i) {
        ASSERT_EQ(real.switch_counts[i], i + 1) << "dispatch " << i;
      }
    }
  }
}

}  // namespace
}  // namespace platinum::sim
