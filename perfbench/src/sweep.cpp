// catalog-sweep: the scenario catalog (every family x {default+fan, dtpm} x
// twenty seeds) on the propagator engine through a one-worker BatchRunner --
// what `dtpm sweep` does with a "scenarios" grid. Nearly all of its time is
// the per-interval control path; it runs no lockstep lanes, no request
// parsing and no fleet code.
#include <algorithm>

#include "harness.hpp"
#include "sim/calibration.hpp"
#include "sim/config_io.hpp"
#include "sim/platform_registry.hpp"
#include "util/diagnostics.hpp"

namespace perfbench {

namespace {

using dtpm::util::JsonArray;
using dtpm::util::JsonObject;
using dtpm::util::JsonValue;

constexpr std::uint64_t kSeedsPerFamily = 20;
constexpr unsigned kWorkers = 1;

/// The sweep document for workload seed `seed`: scenario seeds
/// 20(seed-1)+1 .. 20 seed, so the default seed sweeps seeds 1..20.
JsonValue sweep_document(std::uint64_t seed) {
  JsonValue base((JsonObject()));
  base.set("engine", "propagator");
  base.set("max_sim_time_s", 120.0);
  base.set("record_trace", false);
  JsonArray seeds;
  for (std::uint64_t s = 1; s <= kSeedsPerFamily; ++s) {
    seeds.emplace_back((seed - 1) * kSeedsPerFamily + s);
  }
  JsonValue scenarios((JsonObject()));
  scenarios.set("seeds", JsonValue(std::move(seeds)));
  JsonValue doc((JsonObject()));
  doc.set("base", std::move(base));
  doc.set("policies", JsonValue(JsonArray{"default+fan", "dtpm"}));
  doc.set("scenarios", std::move(scenarios));
  return doc;
}

/// Set-up as `dtpm sweep` does it: registry, spec load and expansion, and
/// one calibration per platform whose runs need a model.
std::vector<dtpm::sim::BatchJob> set_up(const Options& options,
                                        Tracer& tracer) {
  {
    const Tracer::Scope s = tracer.span("sim.registry_init");
    dtpm::sim::PlatformRegistry::instance();
  }
  dtpm::sim::SweepSpec spec;
  {
    const Tracer::Scope s = tracer.span("sim.config_load");
    dtpm::util::CollectingSink sink;
    spec = dtpm::sim::sweep_from_json(sweep_document(options.seed), "$", sink);
    if (sink.has_errors()) {
      throw std::runtime_error("sweep document: " +
                               dtpm::util::format_diagnostic(
                                   sink.diagnostics().front()));
    }
  }
  std::vector<dtpm::sim::BatchJob> jobs;
  for (const dtpm::sim::ExperimentConfig& config : spec.expand()) {
    const dtpm::sysid::IdentifiedPlatformModel* model = nullptr;
    if (dtpm::sim::needs_identified_model(config)) {
      const Tracer::Scope s = tracer.span("sysid.calibrate");
      model = &dtpm::sim::platform_calibration(
                   dtpm::sim::resolved_platform(config))
                   .model;
    }
    jobs.push_back({config, model});
  }
  return jobs;
}

/// Whole-pass totals: the output the reference pins.
JsonValue pass_digest(const dtpm::sim::BatchOutcome& outcome) {
  std::uint64_t steps = 0, substeps = 0, completed = 0, violated = 0;
  double energy = 0.0;
  for (std::size_t i = 0; i < outcome.results.size(); ++i) {
    if (outcome.errors[i]) continue;
    const dtpm::sim::RunResult& r = outcome.results[i];
    steps += r.control_steps;
    substeps += r.plant_substeps;
    completed += r.completed ? 1 : 0;
    violated += r.violation_time_s > 0.0 ? 1 : 0;
    energy += r.platform_energy_j;
  }
  JsonValue digest((JsonObject()));
  digest.set("runs", std::uint64_t(outcome.results.size()));
  digest.set("failed", std::uint64_t(outcome.failure_count));
  digest.set("control_steps", steps);
  digest.set("plant_substeps", substeps);
  digest.set("completed", completed);
  digest.set("violated", violated);
  digest.set("platform_energy_j", energy);
  return digest;
}

std::vector<JsonValue> run_digests(const dtpm::sim::BatchOutcome& outcome) {
  std::vector<JsonValue> digests;
  for (const dtpm::sim::RunResult& r : outcome.results) {
    digests.push_back(run_digest(r));
  }
  return digests;
}

/// The benchmark's own loop over the jobs (what a one-worker BatchRunner
/// runs), checked run by run against the BatchRunner's results.
void check_own_loop(const std::vector<dtpm::sim::BatchJob>& jobs,
                    const std::vector<JsonValue>& expected, Tracer& tracer,
                    Report& report) {
  const dtpm::sim::RunPlan plan(jobs);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const dtpm::sim::RunResult r = simulate(jobs[i], &plan, tracer, i);
    report.check(run_digest(r) == expected[i],
                 "run " + std::to_string(i) + " (" + jobs[i].config.benchmark +
                     ") differs between the BatchRunner and Simulation paths");
  }
}

void provenance(const dtpm::sim::BatchRunner& runner, Report& report) {
  report.info("workers_requested", runner.worker_count());
  report.info("workers_effective", runner.effective_worker_count());
  report.info("workers_clamped",
              runner.effective_worker_count() < runner.worker_count());
}

Report measure(const Options& options) {
  Report report;
  Tracer off(false);
  const std::vector<dtpm::sim::BatchJob> jobs = set_up(options, off);
  report.metric("setup_s", seconds_since(options.start), "s");
  report.attempted = 1;
  if (options.setup_only) return report;

  const dtpm::sim::BatchRunner runner(kWorkers);
  provenance(runner, report);
  std::vector<double> steps_per_s, runs_per_s, passes_per_s;
  std::vector<std::vector<double>> pass_interval_ms;
  JsonValue first;
  std::vector<JsonValue> first_runs;
  const Clock::time_point t_measure = Clock::now();
  report.attempted = 0;
  do {
    const Clock::time_point t0 = Clock::now();
    const dtpm::sim::BatchOutcome outcome = runner.run_collecting(jobs);
    const double wall = seconds_since(t0);
    report.attempted += jobs.size();
    report.failed += outcome.failure_count;
    const JsonValue digest = pass_digest(outcome);
    if (first.is_null()) {
      first = digest;
      first_runs = run_digests(outcome);
    } else {
      report.check(digest == first, "a repeated pass changed its output");
    }
    // Latency here is the wall time of one simulated control interval, per
    // run (a run's own time mostly reflects its scenario's length).
    std::vector<double> interval_ms;
    for (std::size_t i = 0; i < outcome.results.size(); ++i) {
      const dtpm::sim::RunResult& r = outcome.results[i];
      interval_ms.push_back(outcome.errors[i] || r.control_steps == 0
                                ? 0.0
                                : r.wall_time_s * 1e3 /
                                      double(r.control_steps));
    }
    pass_interval_ms.push_back(std::move(interval_ms));
    steps_per_s.push_back(digest.find("control_steps")->as_number() / wall);
    runs_per_s.push_back(double(jobs.size()) / wall);
    passes_per_s.push_back(1.0 / wall);
  } while (seconds_since(t_measure) < options.seconds);

  report.metric("steps_per_s", median(steps_per_s), "1/s");
  report.metric("devices_per_s", median(runs_per_s), "1/s");
  report.metric("requests_per_s", median(passes_per_s), "1/s");
  // Each run's median over the passes, then percentiles over the runs.
  const std::vector<double> run_interval_ms = medians_by_index(
      pass_interval_ms, [](const std::vector<double>& v) { return v; });
  report.metric("latency_p50_ms", percentile(run_interval_ms, 0.50), "ms");
  report.metric("latency_p99_ms", percentile(run_interval_ms, 0.99), "ms");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  JsonArray pass_s;
  for (double rate : passes_per_s) pass_s.emplace_back(1.0 / rate);
  report.info("pass_s", JsonValue(std::move(pass_s)));
  report.info("latency_samples",
              std::uint64_t(pass_interval_ms.size() * jobs.size()));
  report.info("output", first);

  check_own_loop(jobs, first_runs, off, report);
  check_reference(options, first, report);
  report.report_success_rate();
  return report;
}

Report trace(const Options& options) {
  Report report;
  Tracer setup_tracer(true);
  const std::vector<dtpm::sim::BatchJob> jobs = set_up(options, setup_tracer);
  LayerSamples samples;
  samples["sim.registry_init_ms"].push_back(
      setup_tracer.totals("sim.registry_init").total_ns * 1e-6);
  samples["sysid.calibrate_ms"].push_back(
      setup_tracer.totals("sysid.calibrate").total_ns * 1e-6);

  const dtpm::sim::BatchRunner runner(kWorkers);
  provenance(runner, report);
  Tracer tracer(true);
  std::vector<JsonValue> expected;
  const Clock::time_point t_measure = Clock::now();
  do {
    // The untraced user path, then the same runs through the traced loop.
    const Clock::time_point t0 = Clock::now();
    const dtpm::sim::BatchOutcome outcome = runner.run_collecting(jobs);
    const double untraced_s = seconds_since(t0);
    report.attempted += jobs.size();
    report.failed += outcome.failure_count;
    expected = run_digests(outcome);

    tracer.clear();
    const Clock::time_point t1 = Clock::now();
    check_own_loop(jobs, expected, tracer, report);
    const double traced_s = seconds_since(t1);
    add_simulation_layers(tracer, jobs.size(), samples);
    samples["trace.coverage"].push_back(tracer.root_coverage_ns() * 1e-9 /
                                        traced_s);
    samples["trace.overhead"].push_back(traced_s / untraced_s - 1.0);
    // One BatchRunner call per pass: the whole pass is the wave.
    samples["sim.wave_ms.p50"].push_back(untraced_s * 1e3);
    const JsonValue digest = pass_digest(outcome);
    samples["sim.control_steps"].push_back(
        digest.find("control_steps")->as_number());
    samples["sim.plant_substeps"].push_back(
        digest.find("plant_substeps")->as_number());
  } while (seconds_since(t_measure) < options.seconds);

  const dtpm::sim::RunPlan plan(jobs);
  add_phase_layers(jobs, &plan, expected, report, samples);
  const std::vector<double>& waves = samples["sim.wave_ms.p50"];
  samples["sim.wave_ms.max"] = {*std::max_element(waves.begin(), waves.end())};
  samples["sim.descriptors_per_wave"] = {double(distinct_platforms(jobs))};
  report_layers(report, samples);
  report.info("spans", tracer.summary_json());
  return report;
}

}  // namespace

Report run_catalog_sweep(const Options& options) {
  return options.trace ? trace(options) : measure(options);
}

}  // namespace perfbench
