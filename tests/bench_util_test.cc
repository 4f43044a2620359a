// Tests for the bench harness helpers: EnvInt validation, SpeedupTable
// degenerate-baseline handling, SweepRunner's worker-count invariance, and
// the RunMetrics line that tools/bench_report.py parses.
#include "bench/bench_util.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <regex>
#include <string>
#include <vector>

#include "src/kernel/kernel.h"
#include "src/runtime/shared_array.h"
#include "src/runtime/zone_allocator.h"
#include "src/sim/machine.h"
#include "tests/test_util.h"

namespace platinum {
namespace {

TEST(EnvIntTest, ParsesIntegersAndFallsBack) {
  unsetenv("PLATINUM_TEST_ENVINT");
  EXPECT_EQ(bench::EnvInt("PLATINUM_TEST_ENVINT", 17), 17);
  setenv("PLATINUM_TEST_ENVINT", "42", 1);
  EXPECT_EQ(bench::EnvInt("PLATINUM_TEST_ENVINT", 17), 42);
  setenv("PLATINUM_TEST_ENVINT", "-7", 1);
  EXPECT_EQ(bench::EnvInt("PLATINUM_TEST_ENVINT", 17), -7);
  unsetenv("PLATINUM_TEST_ENVINT");
}

TEST(EnvIntDeathTest, AbortsOnMalformedValue) {
  // The motivating typo: PLATINUM_GAUSS_N=8oo must not silently become 8
  // (or 0, as std::atoi would have returned for "oo8").
  setenv("PLATINUM_TEST_ENVINT", "8oo", 1);
  EXPECT_DEATH(bench::EnvInt("PLATINUM_TEST_ENVINT", 3), "is not an integer");
  setenv("PLATINUM_TEST_ENVINT", "", 1);
  EXPECT_DEATH(bench::EnvInt("PLATINUM_TEST_ENVINT", 3), "is not an integer");
  setenv("PLATINUM_TEST_ENVINT", "99999999999999999999", 1);
  EXPECT_DEATH(bench::EnvInt("PLATINUM_TEST_ENVINT", 3), "is not an integer");
  unsetenv("PLATINUM_TEST_ENVINT");
}

TEST(SpeedupTableTest, ZeroBaselineReportsNa) {
  bench::SpeedupTable table("degenerate", {"sys"});
  table.AddRow(1, {0});                    // degenerate baseline: nothing measured
  table.AddRow(4, {2 * sim::kMillisecond});
  testing::internal::CaptureStdout();
  table.Print();
  std::string out = testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("n/a"), std::string::npos);
  EXPECT_EQ(out.find("0.00\n"), std::string::npos);

  std::string json = table.ToJson();
  EXPECT_TRUE(obs::CheckJsonBalanced(json));
  EXPECT_NE(json.find("null"), std::string::npos);
}

TEST(SpeedupTableTest, HealthyBaselineStillPrintsSpeedups) {
  bench::SpeedupTable table("ok", {"sys"});
  table.AddRow(1, {8 * sim::kMillisecond});
  table.AddRow(4, {2 * sim::kMillisecond});
  std::string json = table.ToJson();
  EXPECT_TRUE(obs::CheckJsonBalanced(json));
  EXPECT_EQ(json.find("null"), std::string::npos);
  EXPECT_NE(json.find("4.000"), std::string::npos);  // 8ms / 2ms
}

// One self-contained simulation per sweep point, as the bench binaries use
// SweepRunner: builds a machine, runs a workload, returns its virtual time.
uint64_t SimPoint(int i) {
  test::TestSystem sys(2);
  auto* space = sys.kernel.CreateAddressSpace("pt");
  rt::ZoneAllocator zone(&sys.kernel, space);
  auto arr = rt::SharedArray<uint32_t>::Create(zone, "a", 64);
  sys.kernel.SpawnThread(space, i % 2, "t", [&] {
    for (size_t k = 0; k < 32; ++k) {
      arr.Set(k, static_cast<uint32_t>(i) + static_cast<uint32_t>(k));
    }
  });
  sys.kernel.Run();
  return static_cast<uint64_t>(sys.machine.scheduler().global_now());
}

TEST(SweepRunnerTest, ParallelMatchesSerial) {
  // Real simulations on 4 host threads vs. forced single-thread: identical
  // results in identical order (each point owns its machine; the scheduler's
  // active-pointer is thread-local).
  std::vector<uint64_t> serial = bench::SweepRunner(1).Map(10, SimPoint);
  std::vector<uint64_t> parallel = bench::SweepRunner(4).Map(10, SimPoint);
  ASSERT_EQ(serial.size(), 10u);
  EXPECT_EQ(serial, parallel);
  for (uint64_t t : serial) {
    EXPECT_GT(t, 0u);
  }
}

TEST(SweepRunnerTest, WorkerCountDefaultsAndClamps) {
  setenv("PLATINUM_BENCH_WORKERS", "3", 1);
  EXPECT_EQ(bench::SweepRunner().workers(), 3);
  unsetenv("PLATINUM_BENCH_WORKERS");
  EXPECT_GE(bench::SweepRunner().workers(), 1);
  EXPECT_EQ(bench::SweepRunner(7).workers(), 7);
}

// A sweep point that reports its machine to RunMetrics, as the bench
// binaries do. Each index sleeps a further quarter second, so every point
// ends at a different simulated time.
struct PointTotals {
  uint64_t references = 0;
  uint64_t sim_ns = 0;
};

PointTotals CountedPoint(int i) {
  test::TestSystem sys(2);
  auto* space = sys.kernel.CreateAddressSpace("pt");
  rt::ZoneAllocator zone(&sys.kernel, space);
  auto arr = rt::SharedArray<uint32_t>::Create(zone, "a", 64);
  sys.kernel.SpawnThread(space, i % 2, "t", [&] {
    for (size_t k = 0; k < 16; ++k) {
      arr.Set(k, static_cast<uint32_t>(i) + static_cast<uint32_t>(k));
    }
    sys.machine.scheduler().Sleep((i + 1) * 250 * sim::kMillisecond);
  });
  sys.kernel.Run();
  bench::RunMetrics::Count(sys.machine);
  return {sys.machine.stats().total_references(),
          static_cast<uint64_t>(sys.machine.scheduler().global_now())};
}

TEST(RunMetricsTest, PrintsSummedTotalsInTheReportFormat) {
  // RunMetrics is process-wide; no other test in this binary counts into it.
  std::vector<PointTotals> points = bench::SweepRunner(4).Map(6, CountedPoint);
  uint64_t references = 0;
  uint64_t sim_ns = 0;
  for (const PointTotals& point : points) {
    references += point.references;
    sim_ns += point.sim_ns;
  }
  ASSERT_GT(references, 0u);

  testing::internal::CaptureStdout();
  bench::RunMetrics::Print();
  std::string out = testing::internal::GetCapturedStdout();
  ASSERT_FALSE(out.empty());
  ASSERT_EQ(out.back(), '\n');
  std::string line = out.substr(0, out.size() - 1);

  // The shape tools/bench_report.py's METRICS_RE accepts, on one line.
  std::smatch report;
  ASSERT_TRUE(std::regex_match(line, report, std::regex(R"(PLATINUM_BENCH_METRICS (\{.*\}))")))
      << line;
  std::string json = report[1].str();
  EXPECT_TRUE(obs::CheckJsonBalanced(json));

  std::smatch fields;
  ASSERT_TRUE(std::regex_match(
      json, fields,
      std::regex(R"(\{"machines": (\d+), "references": (\d+), "sim_ns": (\d+)\})")))
      << json;
  EXPECT_EQ(std::stoull(fields[1].str()), points.size());
  EXPECT_EQ(std::stoull(fields[2].str()), references);
  EXPECT_EQ(std::stoull(fields[3].str()), sim_ns);
  EXPECT_GT(std::stoull(fields[3].str()), 5'250'000'000u);  // the sleeps alone sum to 5.25 s
}

}  // namespace
}  // namespace platinum
