// Simulation throughput benchmark: the perf baseline every future PR is
// measured against. Expands the scenario catalog over {family x policy x
// seed}, then runs the grid through the BatchRunner once per (stepping
// engine x worker count) cell -- reference-rk4, propagator and batched,
// each on 1, 2, 4 and all hardware workers -- and reports aggregate
// steps/sec, runs/sec, and per-step latency percentiles from the per-run
// RunResult cost counters. Each cell then runs a second, phase-profiled
// pass (ExperimentConfig::profile_phases) whose sensor/policy/schedule/
// plant tick breakdown lands in the artifact next to the throughput
// number, so "where the time goes" is diffable in CI, not folklore.
//
// Worker counts above the host's hardware concurrency are still listed --
// the artifact records the requested AND the effective count (the pool
// clamps to the hardware), so a sweep archived on a small host can't be
// misread as a scaling regression on a big one.
//
// Results (plus compiler/build metadata, so an archived number can never
// be mistaken for one from a different toolchain) are written to
// BENCH_throughput.json; scripts/check_bench_regression.py diffs a fresh
// run against the checked-in artifact in CI (see README "Performance").
//
// Calibration (the identified model the DTPM policy needs) runs before the
// clock starts; the measurement covers simulation stepping only.
//
// Usage: bench_throughput [--smoke] [seed_count] [json_path]
//   --smoke     CI mode: 1 seed per family, 30 s sim-time cap, one timed
//               pass per cell (full mode keeps the faster of two)
//   seed_count  seeds per family/policy (default 10; short cells measure
//               scheduler noise, and wide cells drive the lockstep lanes
//               at fleet-representative group widths)
//   json_path   output JSON (default BENCH_throughput.json)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "sim/scenario_catalog.hpp"
#include "sim/stepping_engine.hpp"
#include "util/phase.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double percentile(const std::vector<double>& sorted_values, double p) {
  if (sorted_values.empty()) return 0.0;
  const double rank = p * double(sorted_values.size() - 1);
  const std::size_t lo = std::size_t(rank);
  const std::size_t hi = std::min(lo + 1, sorted_values.size() - 1);
  const double frac = rank - double(lo);
  return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac;
}

/// One (engine x workers) cell of the sweep.
struct Measurement {
  std::string engine;
  unsigned workers = 0;            ///< requested
  unsigned workers_effective = 0;  ///< what the pool actually spawned
  std::size_t runs = 0;
  std::size_t failed = 0;
  std::size_t control_steps = 0;
  std::size_t plant_substeps = 0;
  double wall_s = 0.0;
  double p50 = 0.0, p90 = 0.0, p99 = 0.0;
  /// Aggregate phase ticks from the profiled pass (unit: TSC, comparable
  /// only as ratios within one run of this bench).
  dtpm::util::PhaseCycles phases;

  double runs_per_sec() const { return double(runs - failed) / wall_s; }
  double steps_per_sec() const { return double(control_steps) / wall_s; }
  double substeps_per_sec() const { return double(plant_substeps) / wall_s; }
  double phase_fraction(dtpm::util::Phase p) const {
    const double total = double(phases.total());
    return total > 0.0
               ? double(phases.ticks[static_cast<unsigned>(p)]) / total
               : 0.0;
  }
};

const char* compiler_string() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

const char* build_type() {
#ifdef DTPM_BUILD_TYPE
  return DTPM_BUILD_TYPE;
#else
  return "unknown";
#endif
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dtpm;
  bool smoke = false;
  int seed_count = 10;
  std::string json_path = "BENCH_throughput.json";
  std::vector<std::string> positional;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--smoke") == 0) {
      smoke = true;
    } else {
      positional.emplace_back(argv[a]);
    }
  }
  // A numeric positional is the seed count; anything else is the JSON path
  // (so `bench_throughput --smoke out.json` does what it looks like).
  for (const std::string& arg : positional) {
    const int parsed = std::atoi(arg.c_str());
    if (parsed > 0) {
      seed_count = parsed;
    } else {
      json_path = arg;
    }
  }
  if (smoke) seed_count = 1;

  bench::print_header(
      "Throughput",
      "Scenario-catalog sweep: steps/sec per engine and worker count");

  // Calibrate outside the measurement window.
  const sysid::IdentifiedPlatformModel& model = bench::shared_model();

  const sim::ScenarioCatalog catalog = sim::ScenarioCatalog::standard();
  sim::ScenarioCatalog::Sweep sweep;
  sweep.base.max_sim_time_s = smoke ? 30.0 : 120.0;
  sweep.base.record_trace = false;
  sweep.policies = {"default+fan", "dtpm"};
  sweep.seeds.clear();
  for (int s = 1; s <= seed_count; ++s) sweep.seeds.push_back(s);
  // The perf baseline is tied to the plant it measured; record it so a
  // future platform change in this bench can't be mistaken for a perf
  // regression (or win) in the archived trajectory.
  const std::string platform = sweep.base.platform->name;

  std::vector<sim::ExperimentConfig> configs = catalog.expand(sweep);

  const unsigned host_cpus =
      std::max(1u, std::thread::hardware_concurrency());

  // The sweep cells: every engine on 1, 2, 4 and all-hardware workers
  // (deduplicated; counts beyond host_cpus stay listed and record their
  // clamped effective width).
  const std::vector<sim::Engine> engines = {
      sim::Engine::kReferenceRk4, sim::Engine::kPropagator,
      sim::Engine::kBatched};
  std::vector<unsigned> worker_counts = {1u, 2u, 4u, host_cpus};
  std::sort(worker_counts.begin(), worker_counts.end());
  worker_counts.erase(
      std::unique(worker_counts.begin(), worker_counts.end()),
      worker_counts.end());

  std::printf("  %zu families x %zu seeds x %zu policies = %zu runs per "
              "cell; %zu engines x %zu worker counts (%s)\n",
              catalog.size(), sweep.seeds.size(), sweep.policies.size(),
              configs.size(), engines.size(), worker_counts.size(),
              smoke ? "smoke" : "full");
  std::printf("  compiler %s, build %s, %u hardware thread%s\n\n",
              compiler_string(), build_type(), host_cpus,
              host_cpus == 1 ? "" : "s");

  std::vector<Measurement> measurements;
  std::printf("  %-14s %7s %9s %12s %10s %8s  %s\n", "engine", "workers",
              "effective", "steps/sec", "runs/sec", "p50 us",
              "sensor/policy/schedule/plant");
  for (const sim::Engine engine : engines) {
    for (sim::ExperimentConfig& c : configs) c.engine = engine;
    std::vector<sim::BatchJob> jobs;
    jobs.reserve(configs.size());
    for (const sim::ExperimentConfig& c : configs) jobs.push_back({c, &model});
    // The profiled twin of every job: same work, TSC stamps on. Kept as a
    // separate pass so the throughput number is never measured with the
    // stamps compiled in the loop.
    std::vector<sim::BatchJob> profiled_jobs = jobs;
    for (sim::BatchJob& job : profiled_jobs) {
      job.config.profile_phases = true;
    }

    for (const unsigned workers : worker_counts) {
      Measurement m;
      m.engine = sim::to_string(engine);
      m.workers = workers;
      m.runs = configs.size();
      const sim::BatchRunner runner(workers);
      m.workers_effective = runner.effective_worker_count();

      // Full mode times every cell twice and keeps the faster pass: the
      // runs are deterministic, so the passes do identical work and the
      // delta is scheduler noise -- best-of-2 measures the code, not the
      // host's interrupts. Smoke mode stays single-pass for CI time.
      const int timed_passes = smoke ? 1 : 2;
      sim::BatchOutcome outcome;
      for (int pass = 0; pass < timed_passes; ++pass) {
        const auto t0 = Clock::now();
        sim::BatchOutcome candidate = runner.run_collecting(jobs);
        const double wall =
            std::chrono::duration<double>(Clock::now() - t0).count();
        if (pass == 0 || wall < m.wall_s) {
          m.wall_s = wall;
          outcome = std::move(candidate);
        }
      }

      std::vector<double> step_latency_us;
      for (std::size_t i = 0; i < outcome.results.size(); ++i) {
        if (outcome.errors[i] != nullptr) {
          ++m.failed;
          continue;
        }
        const sim::RunResult& r = outcome.results[i];
        m.control_steps += r.control_steps;
        m.plant_substeps += r.plant_substeps;
        if (r.control_steps > 0) {
          step_latency_us.push_back(1e6 * r.wall_time_s /
                                    double(r.control_steps));
        }
      }
      std::sort(step_latency_us.begin(), step_latency_us.end());
      m.p50 = percentile(step_latency_us, 0.50);
      m.p90 = percentile(step_latency_us, 0.90);
      m.p99 = percentile(step_latency_us, 0.99);

      // Phase pass: same cell, stamps on, throughput discarded.
      const sim::BatchOutcome profiled = runner.run_collecting(profiled_jobs);
      for (std::size_t i = 0; i < profiled.results.size(); ++i) {
        if (profiled.errors[i] == nullptr) {
          m.phases += profiled.results[i].phase_cycles;
        }
      }

      std::printf(
          "  %-14s %7u %9u %12.0f %10.2f %8.2f  %.2f/%.2f/%.2f/%.2f%s\n",
          m.engine.c_str(), m.workers, m.workers_effective,
          m.steps_per_sec(), m.runs_per_sec(), m.p50,
          m.phase_fraction(util::Phase::kSensor),
          m.phase_fraction(util::Phase::kPolicy),
          m.phase_fraction(util::Phase::kSchedule),
          m.phase_fraction(util::Phase::kPlant),
          m.failed > 0 ? "  (FAILURES)" : "");
      measurements.push_back(std::move(m));
    }
  }

  std::size_t total_failed = 0;
  for (const Measurement& m : measurements) total_failed += m.failed;

  std::ofstream json(json_path);
  if (!json) {
    std::fprintf(stderr, "cannot open %s for writing\n", json_path.c_str());
    return 2;
  }
  json << "{\n"
       << "  \"bench\": \"throughput\",\n"
       << "  \"mode\": \"" << (smoke ? "smoke" : "full") << "\",\n"
       << "  \"platform\": \"" << platform << "\",\n"
       << "  \"compiler\": \"" << compiler_string() << "\",\n"
       << "  \"build_type\": \"" << build_type() << "\",\n"
       << "  \"host_cpus\": " << host_cpus << ",\n"
       << "  \"families\": " << catalog.size() << ",\n"
       << "  \"seeds\": " << sweep.seeds.size() << ",\n"
       << "  \"policies\": [";
  for (std::size_t p = 0; p < sweep.policies.size(); ++p) {
    json << (p == 0 ? "" : ", ") << '"' << sweep.policies[p] << '"';
  }
  json << "],\n"
       << "  \"runs_per_cell\": " << configs.size() << ",\n"
       << "  \"timed_passes\": " << (smoke ? 1 : 2) << ",\n"
       << "  \"results\": [\n";
  for (std::size_t i = 0; i < measurements.size(); ++i) {
    const Measurement& m = measurements[i];
    json << "    {\"engine\": \"" << m.engine << "\", \"workers\": "
         << m.workers << ", \"workers_effective\": " << m.workers_effective
         << ", \"failed_runs\": " << m.failed
         << ", \"wall_s\": " << m.wall_s
         << ", \"runs_per_sec\": " << m.runs_per_sec()
         << ", \"control_steps\": " << m.control_steps
         << ", \"steps_per_sec\": " << m.steps_per_sec()
         << ", \"plant_substeps\": " << m.plant_substeps
         << ", \"substeps_per_sec\": " << m.substeps_per_sec()
         << ", \"step_latency_us\": {\"p50\": " << m.p50 << ", \"p90\": "
         << m.p90 << ", \"p99\": " << m.p99 << "}"
         << ", \"phase_ticks\": {";
    for (std::size_t p = 0; p < util::kPhaseCount; ++p) {
      json << (p == 0 ? "" : ", ") << '"' << util::kPhaseNames[p]
           << "\": " << m.phases.ticks[p];
    }
    json << "}}" << (i + 1 < measurements.size() ? "," : "") << "\n";
  }
  json << "  ]\n"
       << "}\n";
  std::printf("\n  wrote %s\n", json_path.c_str());
  return total_failed == 0 ? 0 : 1;
}
