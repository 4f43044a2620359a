// Live behaviour gate: re-runs the platsim smoke scenarios of
// tools/determinism_check.sh and requires their simulated outcome to equal a
// committed golden file exactly.
//
//   platsim_golden tests/golden/platsim_smoke.json   # compare; exit 1 on drift
//   platsim_golden --print                           # print the current values
//
// Per scenario the gate fixes the simulated end time, the reference count,
// faults, shootdown rounds, context switches and the application checksum —
// so a host-side optimisation of the simulator cannot change what it
// simulates without failing here. Regenerate the file with --print only for
// a change that is meant to alter simulated behaviour, and say why in the
// commit.
//
// Each scenario boots its machine and kernel exactly as platsim does with
// default options (a 16-node Butterfly Plus, 4 KB pages, the timestamp
// policy with t1 = 10 ms, the defrost daemon on).
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/apps/gauss.h"
#include "src/apps/mergesort.h"
#include "src/kernel/kernel.h"
#include "src/load/driver.h"
#include "src/mem/policy.h"
#include "src/sim/machine.h"

using namespace platinum;  // NOLINT

namespace {

struct Scenario {
  const char* name;
  const char* protocol;
  int procs;
  // Runs the workload on a fresh kernel; returns the application checksum.
  std::function<uint64_t(kernel::Kernel&)> run;
};

uint64_t RunGauss(kernel::Kernel& kernel, int procs, int n) {
  apps::GaussConfig config;
  config.n = n;
  config.processors = procs;
  return apps::RunGaussPlatinum(kernel, config).checksum;
}

uint64_t RunSort(kernel::Kernel& kernel, int procs, size_t count) {
  apps::SortConfig config;
  config.count = count;
  config.processors = procs;
  return apps::RunMergeSortPlatinum(kernel, config).checksum;
}

uint64_t RunTrie(kernel::Kernel& kernel, int procs, load::ArrivalMode arrival) {
  load::DriverConfig config;
  config.spec.ops = 20000;
  config.spec.keys = 4096;
  config.procs = procs;
  config.arrival = arrival;
  return load::RunTrieServe(kernel, config).checksum;
}

// The scenarios of tools/determinism_check.sh, in its order.
std::vector<Scenario> Scenarios() {
  return {
      {"gauss", "directory", 4, [](kernel::Kernel& k) { return RunGauss(k, 4, 48); }},
      {"sort", "directory", 4, [](kernel::Kernel& k) { return RunSort(k, 4, 8192); }},
      {"gauss_tardis", "tardis", 4, [](kernel::Kernel& k) { return RunGauss(k, 4, 48); }},
      {"sort_tardis", "tardis", 4, [](kernel::Kernel& k) { return RunSort(k, 4, 8192); }},
      {"trie", "directory", 8,
       [](kernel::Kernel& k) { return RunTrie(k, 8, load::ArrivalMode::kClosed); }},
      {"trie_tardis", "tardis", 8,
       [](kernel::Kernel& k) { return RunTrie(k, 8, load::ArrivalMode::kClosed); }},
      {"trie_open", "directory", 8,
       [](kernel::Kernel& k) { return RunTrie(k, 8, load::ArrivalMode::kOpen); }},
  };
}

// One JSON member per scenario, on one line so a drift diffs cleanly.
std::string RunScenario(const Scenario& scenario) {
  sim::MachineParams params = sim::ButterflyPlusParams(std::max(16, scenario.procs));
  params.page_size_bytes = 4096;
  params.frames_per_module = (4u << 20) / params.page_size_bytes;
  sim::Machine machine(params);
  kernel::KernelOptions options;
  options.policy = std::make_unique<mem::TimestampPolicy>(10 * sim::kMillisecond);
  options.protocol = scenario.protocol;
  kernel::Kernel kernel(&machine, std::move(options));

  uint64_t checksum = scenario.run(kernel);
  const sim::MachineStats& stats = machine.stats();
  char line[512];
  std::snprintf(line, sizeof(line),
                "  \"%s\": {\"sim_ns\": %" PRIu64 ", \"references\": %" PRIu64
                ", \"faults\": %" PRIu64 ", \"shootdowns\": %" PRIu64
                ", \"context_switches\": %" PRIu64 ", \"checksum\": \"0x%016" PRIx64 "\"}",
                scenario.name, static_cast<uint64_t>(machine.scheduler().global_now()),
                stats.total_references(), stats.faults, stats.shootdowns,
                machine.scheduler().context_switches(), checksum);
  return line;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    lines.push_back(line);
  }
  return lines;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: platsim_golden <golden.json> | --print\n");
    return 2;
  }
  std::vector<Scenario> scenarios = Scenarios();
  std::string doc = "{\n";
  for (size_t i = 0; i < scenarios.size(); ++i) {
    doc += RunScenario(scenarios[i]);
    doc += i + 1 < scenarios.size() ? ",\n" : "\n";
  }
  doc += "}\n";

  if (std::strcmp(argv[1], "--print") == 0) {
    std::fputs(doc.c_str(), stdout);
    return 0;
  }
  std::ifstream file(argv[1]);
  if (!file) {
    std::fprintf(stderr, "platsim_golden: cannot read %s\n", argv[1]);
    return 2;
  }
  std::stringstream golden;
  golden << file.rdbuf();
  if (golden.str() == doc) {
    std::printf("platsim_golden: %zu scenarios match %s exactly\n", scenarios.size(), argv[1]);
    return 0;
  }
  std::vector<std::string> want = SplitLines(golden.str());
  std::vector<std::string> got = SplitLines(doc);
  for (size_t i = 0; i < std::max(want.size(), got.size()); ++i) {
    const std::string& w = i < want.size() ? want[i] : std::string();
    const std::string& g = i < got.size() ? got[i] : std::string();
    if (w != g) {
      std::fprintf(stderr, "platsim_golden: drift\n  golden: %s\n  live:   %s\n", w.c_str(),
                   g.c_str());
    }
  }
  std::fprintf(stderr, "platsim_golden: simulated behaviour differs from %s\n", argv[1]);
  return 1;
}
