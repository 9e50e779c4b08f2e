// Reproduces Fig. 6.9: per-benchmark platform power savings and performance
// loss of the proposed DTPM algorithm relative to the default-with-fan
// configuration, with the reactive heuristic's performance loss for
// comparison (§6.3.3: ~3.3 % average DTPM loss vs ~20 % reactive; power
// savings around 3 % / 8 % / 14 % for low / medium / high activity).
#include <cstdio>
#include <map>
#include <vector>

#include "bench_common.hpp"
#include "workload/suite.hpp"

int main() {
  using namespace dtpm;
  bench::print_header("Figure 6.9",
                      "Power savings and performance loss summary "
                      "(all Table 6.4 benchmarks)");

  std::printf("  %-12s %-7s %9s %9s %9s %10s %10s\n", "benchmark", "class",
              "save [%]", "loss [%]", "react[%]", "P_def [W]", "P_dtpm [W]");
  struct ClassAccum {
    double save = 0.0;
    double loss = 0.0;
    int n = 0;
  };
  std::map<workload::PowerClass, ClassAccum> by_class;
  double total_save = 0.0, total_loss = 0.0, total_react = 0.0;
  int n = 0;

  // One parallel batch over the whole benchmark x policy grid; sweep() is
  // row-major (benchmark outermost), so each benchmark's three policy runs
  // are adjacent in the result vector.
  sim::SweepGrid grid;
  grid.base = bench::policy_config("", "default+fan",
                                   /*record_trace=*/false);
  for (const auto& b : workload::standard_suite()) {
    grid.benchmarks.push_back(b.name);
  }
  grid.policies = {"default+fan", "dtpm", "reactive"};
  const std::vector<sim::RunResult> results =
      bench::run_batch(sim::sweep(grid));

  std::size_t i = 0;
  for (const auto& b : workload::standard_suite()) {
    const sim::RunResult& def = results[i++];
    const sim::RunResult& dtpm = results[i++];
    const sim::RunResult& react = results[i++];
    const double save = 100.0 *
                        (def.avg_platform_power_w - dtpm.avg_platform_power_w) /
                        def.avg_platform_power_w;
    const double loss = 100.0 *
                        (dtpm.execution_time_s - def.execution_time_s) /
                        def.execution_time_s;
    const double react_loss = 100.0 *
                              (react.execution_time_s - def.execution_time_s) /
                              def.execution_time_s;
    std::printf("  %-12s %-7s %9.1f %9.1f %9.1f %10.2f %10.2f\n",
                b.name.c_str(), to_string(b.power_class), save, loss,
                react_loss, def.avg_platform_power_w,
                dtpm.avg_platform_power_w);
    auto& acc = by_class[b.power_class];
    acc.save += save;
    acc.loss += loss;
    ++acc.n;
    total_save += save;
    total_loss += loss;
    total_react += react_loss;
    ++n;
  }

  std::printf("\n  per activity class (paper: ~3 %% low, ~8 %% medium, ~14 %% "
              "high savings):\n");
  for (const auto& [cls, acc] : by_class) {
    std::printf("    %-7s avg savings %.1f %%, avg perf loss %.1f %% "
                "(%d benchmarks)\n",
                to_string(cls), acc.save / acc.n, acc.loss / acc.n, acc.n);
  }
  std::printf("\n  suite averages: savings %.1f %%, DTPM perf loss %.1f %% "
              "(paper 3.3 %%), reactive perf loss %.1f %% (paper ~20 %%)\n",
              total_save / n, total_loss / n, total_react / n);
  return 0;
}
