#include "bench_common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace dtpm::bench {

const sysid::IdentifiedPlatformModel& shared_model() {
  return sim::default_calibration().model;
}

sim::ExperimentConfig policy_config(const std::string& benchmark,
                                    const std::string& policy,
                                    bool record_trace,
                                    bool observe_predictions,
                                    unsigned horizon_steps) {
  sim::ExperimentConfig config;
  config.benchmark = benchmark;
  config.policy_name = policy;
  config.record_trace = record_trace;
  config.observe_predictions = observe_predictions;
  config.observe_horizon_steps = horizon_steps;
  return config;
}

sim::RunResult run_policy(const std::string& benchmark,
                          const std::string& policy, bool record_trace,
                          bool observe_predictions, unsigned horizon_steps) {
  return sim::run_experiment(policy_config(benchmark, policy, record_trace,
                                           observe_predictions, horizon_steps),
                             &shared_model());
}

std::vector<sim::RunResult> run_batch(
    const std::vector<sim::ExperimentConfig>& configs) {
  return sim::BatchRunner().run(configs, &shared_model());
}

void print_header(const std::string& id, const std::string& caption) {
  std::printf("\n================================================================\n");
  std::printf("%s -- %s\n", id.c_str(), caption.c_str());
  std::printf("================================================================\n");
}

namespace {

constexpr int kPlotWidth = 72;
constexpr int kPlotHeight = 16;
constexpr const char* kMarkers = "*o+x#@";

}  // namespace

void print_chart(const std::vector<Series>& series, const std::string& x_label,
                 const std::string& y_label, std::size_t table_points) {
  if (series.empty()) return;
  double x_min = 1e300, x_max = -1e300, y_min = 1e300, y_max = -1e300;
  for (const auto& s : series) {
    for (double x : s.x) {
      x_min = std::min(x_min, x);
      x_max = std::max(x_max, x);
    }
    for (double y : s.y) {
      if (std::isnan(y)) continue;
      y_min = std::min(y_min, y);
      y_max = std::max(y_max, y);
    }
  }
  if (x_max <= x_min) x_max = x_min + 1.0;
  if (y_max <= y_min) y_max = y_min + 1.0;
  const double y_pad = 0.05 * (y_max - y_min);
  y_min -= y_pad;
  y_max += y_pad;

  std::vector<std::string> grid(kPlotHeight, std::string(kPlotWidth, ' '));
  for (std::size_t si = 0; si < series.size(); ++si) {
    const char marker = kMarkers[si % 6];
    const auto& s = series[si];
    for (std::size_t i = 0; i < s.x.size(); ++i) {
      if (std::isnan(s.y[i])) continue;
      const int col = int((s.x[i] - x_min) / (x_max - x_min) * (kPlotWidth - 1));
      const int row = int((y_max - s.y[i]) / (y_max - y_min) * (kPlotHeight - 1));
      if (col >= 0 && col < kPlotWidth && row >= 0 && row < kPlotHeight) {
        grid[row][col] = marker;
      }
    }
  }
  std::printf("  %s\n", y_label.c_str());
  for (int r = 0; r < kPlotHeight; ++r) {
    const double y_val = y_max - (y_max - y_min) * r / (kPlotHeight - 1);
    std::printf("  %7.2f |%s|\n", y_val, grid[r].c_str());
  }
  std::printf("          +%s+\n", std::string(kPlotWidth, '-').c_str());
  std::printf("           %-8.2f%*s%8.2f  (%s)\n", x_min, kPlotWidth - 16, "",
              x_max, x_label.c_str());
  std::printf("  legend: ");
  for (std::size_t si = 0; si < series.size(); ++si) {
    std::printf("%c=%s  ", kMarkers[si % 6], series[si].name.c_str());
  }
  std::printf("\n\n");

  // Numeric table.
  std::printf("  %-10s", x_label.c_str());
  for (const auto& s : series) std::printf(" %14s", s.name.c_str());
  std::printf("\n");
  const auto& ref = series.front();
  const std::size_t n = ref.x.size();
  const std::size_t stride = std::max<std::size_t>(1, n / table_points);
  for (std::size_t i = 0; i < n; i += stride) {
    std::printf("  %-10.1f", ref.x[i]);
    for (const auto& s : series) {
      const std::size_t idx = std::min(i, s.y.size() - 1);
      if (std::isnan(s.y[idx])) {
        std::printf(" %14s", "-");
      } else {
        std::printf(" %14.2f", s.y[idx]);
      }
    }
    std::printf("\n");
  }
}

Series sampled_series(const std::string& name, const std::vector<double>& x,
                      const std::vector<double>& y, std::size_t max_points) {
  Series s;
  s.name = name;
  const std::size_t stride = std::max<std::size_t>(1, x.size() / max_points);
  for (std::size_t i = 0; i < x.size(); i += stride) {
    s.x.push_back(x[i]);
    s.y.push_back(y[i]);
  }
  return s;
}

}  // namespace dtpm::bench
