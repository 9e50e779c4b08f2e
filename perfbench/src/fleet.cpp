// fleet-10k: examples/configs/fleet_smoke.json as shipped (10,000 devices
// over three platforms and a 20-35 C ambient band, `reactive` policy,
// `batched` engine), run the way `dtpm fleet -j 2` runs it: lint, load,
// then serve::run_fleet. It exercises lockstep lanes, per-(platform,
// ambient bin) descriptors, the RunPlan caches, the sampler and the
// aggregator, and never the DTPM predictor.
#include <algorithm>
#include <filesystem>
#include <optional>

#include "harness.hpp"
#include "lint/lint.hpp"
#include "serve/fleet.hpp"
#include "serve/fleet_io.hpp"
#include "sim/platform_registry.hpp"
#include "util/diagnostics.hpp"

namespace perfbench {

namespace {

using dtpm::util::JsonValue;

constexpr unsigned kWorkers = 2;
constexpr const char* kSpecFile = "examples/configs/fleet_smoke.json";

/// Set-up as `dtpm fleet` does it: registry, spec load, lint. The workload
/// seed offsets the spec's own seed, so the default seed runs it as shipped.
dtpm::serve::FleetSpec set_up(const Options& options, Tracer& tracer) {
  {
    const Tracer::Scope s = tracer.span("sim.registry_init");
    dtpm::sim::PlatformRegistry::instance();
  }
  dtpm::util::CollectingSink sink;
  JsonValue json;
  dtpm::serve::FleetSpec spec;
  {
    const Tracer::Scope s = tracer.span("sim.config_load");
    json = dtpm::util::json_parse_file(
        (std::filesystem::path(options.repo_root) / kSpecFile).string());
    spec = dtpm::serve::fleet_from_json(json, "$", sink);
  }
  if (!sink.has_errors()) {
    const Tracer::Scope s = tracer.span("lint.fleet");
    dtpm::lint::lint_fleet(spec, &json, "$", sink);
  }
  if (sink.has_errors()) {
    throw std::runtime_error(std::string(kSpecFile) + ": " +
                             dtpm::util::format_diagnostic(
                                 sink.diagnostics().front()));
  }
  spec.seed += options.seed - kDefaultSeed;
  return spec;
}

/// The benchmark's own wave loop, built from the public calls run_fleet
/// makes, with a span around each. It must fold to the same aggregate.
struct OwnFleet {
  dtpm::serve::FleetAggregate aggregate;
  std::uint64_t control_steps = 0;
  std::uint64_t plant_substeps = 0;
  std::vector<double> descriptors_per_wave;
};

OwnFleet own_fleet(const dtpm::serve::FleetSpec& spec, Tracer& tracer) {
  OwnFleet out;
  std::vector<dtpm::serve::DeviceProfile> profiles;
  {
    const Tracer::Scope s = tracer.span("serve.sample");
    profiles = dtpm::serve::sample_fleet(spec);
  }
  std::optional<dtpm::serve::FleetMaterializer> materializer;
  {
    const Tracer::Scope s = tracer.span("serve.materializer_init");
    materializer.emplace(spec);
  }
  const dtpm::sim::BatchRunner runner(kWorkers);
  dtpm::sim::RunPlan plan(spec.base);
  std::vector<dtpm::sim::BatchJob> jobs;
  for (std::size_t start = 0; start < profiles.size();
       start += std::size_t(spec.wave_size)) {
    const std::size_t end =
        std::min(profiles.size(), start + std::size_t(spec.wave_size));
    jobs.clear();
    for (std::size_t i = start; i < end; ++i) {
      const Tracer::Scope s = tracer.span("serve.materialize", i);
      dtpm::sim::BatchJob job;
      job.config = materializer->config_for(profiles[i]);
      {
        const Tracer::Scope c = tracer.span("sysid.calibrate", i);
        job.model = materializer->model_for(profiles[i].platform);
      }
      plan.cache_platform(job.config.platform);
      jobs.push_back(std::move(job));
    }
    out.descriptors_per_wave.push_back(double(distinct_platforms(jobs)));
    dtpm::sim::BatchOutcome outcome;
    {
      const Tracer::Scope s = tracer.span("sim.wave");
      outcome = runner.run_collecting(jobs, &plan);
    }
    for (std::size_t i = 0; i < outcome.results.size(); ++i) {
      const Tracer::Scope s = tracer.span("serve.fold", start + i);
      if (outcome.errors[i]) {
        out.aggregate.fold_error();
      } else {
        out.aggregate.fold_result(outcome.results[i]);
        out.control_steps += outcome.results[i].control_steps;
        out.plant_substeps += outcome.results[i].plant_substeps;
      }
    }
  }
  return out;
}

/// One pass of the user path, with the time of every wave.
struct FleetPass {
  JsonValue aggregate;
  std::uint64_t devices = 0;
  std::uint64_t failed = 0;
  double wall_s = 0.0;
  std::vector<double> wave_ms;
};

FleetPass run_pass(const dtpm::serve::FleetSpec& spec) {
  FleetPass pass;
  dtpm::serve::FleetRunOptions run_options;
  run_options.workers = kWorkers;
  const Clock::time_point t0 = Clock::now();
  Clock::time_point last = t0;
  run_options.on_wave = [&](const dtpm::serve::FleetProgress&) {
    const Clock::time_point now = Clock::now();
    pass.wave_ms.push_back(
        std::chrono::duration<double, std::milli>(now - last).count());
    last = now;
  };
  const dtpm::serve::FleetRunResult result =
      dtpm::serve::run_fleet(spec, run_options);
  pass.wall_s = seconds_since(t0);
  pass.aggregate = result.aggregate.to_json();
  pass.devices = result.devices_run;
  pass.failed = result.aggregate.failed();
  return pass;
}

void provenance(Report& report) {
  const dtpm::sim::BatchRunner runner(kWorkers);
  report.info("workers_requested", runner.worker_count());
  report.info("workers_effective", runner.effective_worker_count());
  report.info("workers_clamped",
              runner.effective_worker_count() < runner.worker_count());
}

Report measure(const Options& options) {
  Report report;
  Tracer off(false);
  const dtpm::serve::FleetSpec spec = set_up(options, off);
  {
    // The per-fleet invariants run_fleet builds before its first wave.
    dtpm::serve::sample_fleet(spec);
    const dtpm::serve::FleetMaterializer materializer(spec);
    const dtpm::sim::RunPlan plan(spec.base);
  }
  report.metric("setup_s", seconds_since(options.start), "s");
  report.attempted = 1;
  if (options.setup_only) return report;

  provenance(report);
  report.attempted = 0;
  std::vector<FleetPass> passes;
  const Clock::time_point t_measure = Clock::now();
  do {
    passes.push_back(run_pass(spec));
    const FleetPass& pass = passes.back();
    report.attempted += pass.devices;
    report.failed += pass.failed;
    report.check(pass.aggregate == passes.front().aggregate,
                 "a repeated fleet pass changed its aggregate");
  } while (seconds_since(t_measure) < options.seconds);
  const double rss_mb = peak_rss_mb();

  // The cross-path check: the benchmark's own wave loop must fold to the
  // same aggregate, and it counts the control intervals run_fleet ran.
  const OwnFleet own = own_fleet(spec, off);
  report.check(own.aggregate.to_json() == passes.front().aggregate,
               "the wave loop and serve::run_fleet disagree on the aggregate");
  check_reference(options, passes.front().aggregate, report);

  // Latency is the time between progress points, one per wave: each
  // wave's median over the passes, then percentiles over the waves.
  std::vector<double> steps_per_s, devices_per_s, passes_per_s;
  std::uint64_t latency_samples = 0;
  for (const FleetPass& pass : passes) {
    steps_per_s.push_back(double(own.control_steps) / pass.wall_s);
    devices_per_s.push_back(double(pass.devices) / pass.wall_s);
    passes_per_s.push_back(1.0 / pass.wall_s);
    latency_samples += pass.wave_ms.size();
  }
  const std::vector<double> wave_ms = medians_by_index(
      passes, [](const FleetPass& pass) { return pass.wave_ms; });
  report.metric("steps_per_s", median(steps_per_s), "1/s");
  report.metric("devices_per_s", median(devices_per_s), "1/s");
  report.metric("requests_per_s", median(passes_per_s), "1/s");
  report.metric("latency_p50_ms", percentile(wave_ms, 0.50), "ms");
  report.metric("latency_p99_ms", percentile(wave_ms, 0.99), "ms");
  report.metric("peak_rss_mb", rss_mb, "MB");
  report.report_success_rate();
  report.info("passes", std::uint64_t(passes.size()));
  report.info("latency_samples", latency_samples);
  report.info("control_steps", own.control_steps);
  report.info("output", passes.front().aggregate);
  return report;
}

Report trace(const Options& options) {
  Report report;
  Tracer setup_tracer(true);
  const dtpm::serve::FleetSpec spec = set_up(options, setup_tracer);
  provenance(report);
  LayerSamples samples;
  samples["sim.registry_init_ms"].push_back(
      setup_tracer.totals("sim.registry_init").total_ns * 1e-6);
  samples["lint.fleet_ms"].push_back(
      setup_tracer.totals("lint.fleet").total_ns * 1e-6);

  Tracer tracer(true);
  const Clock::time_point t_measure = Clock::now();
  do {
    // The untraced user path, then the traced wave loop on the same spec.
    const FleetPass pass = run_pass(spec);
    report.attempted += pass.devices;
    report.failed += pass.failed;

    tracer.clear();
    const Clock::time_point t1 = Clock::now();
    const OwnFleet own = own_fleet(spec, tracer);
    const double traced_s = seconds_since(t1);
    report.check(own.aggregate.to_json() == pass.aggregate,
                 "the traced wave loop and serve::run_fleet disagree");

    const double devices = double(pass.devices);
    samples["sysid.calibrate_ms"].push_back(
        tracer.totals("sysid.calibrate").total_ns * 1e-6);
    samples["serve.sample_ms"].push_back(
        tracer.totals("serve.sample").total_ns * 1e-6);
    samples["serve.materialize_us"].push_back(
        tracer.totals("serve.materialize").total_ns * 1e-3 / devices);
    samples["serve.fold_us"].push_back(
        tracer.totals("serve.fold").total_ns * 1e-3 / devices);
    std::vector<double> waves;
    for (const Tracer::Span& span : tracer.spans()) {
      if (std::string(span.name) == "sim.wave") {
        waves.push_back(double(span.end_ns - span.start_ns) * 1e-6);
      }
    }
    samples["sim.wave_ms.p50"].push_back(median(waves));
    samples["sim.wave_ms.max"].push_back(
        *std::max_element(waves.begin(), waves.end()));
    double descriptors = 0.0;
    for (double d : own.descriptors_per_wave) descriptors += d;
    samples["sim.descriptors_per_wave"].push_back(
        descriptors / double(own.descriptors_per_wave.size()));
    samples["sim.control_steps"].push_back(double(own.control_steps));
    samples["sim.plant_substeps"].push_back(double(own.plant_substeps));
    samples["fleet.devices"].push_back(devices);
    samples["trace.coverage"].push_back(tracer.root_coverage_ns() * 1e-9 /
                                        traced_s);
    samples["trace.overhead"].push_back(traced_s / pass.wall_s - 1.0);
  } while (seconds_since(t_measure) < options.seconds);

  report_layers(report, samples);
  report.info("spans", tracer.summary_json());
  return report;
}

}  // namespace

Report run_fleet_10k(const Options& options) {
  return options.trace ? trace(options) : measure(options);
}

}  // namespace perfbench
