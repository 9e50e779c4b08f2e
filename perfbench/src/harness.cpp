#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>

#include "serve/protocol.hpp"
#include "sim/config.hpp"
#include "sim/simulation.hpp"
#include "util/phase.hpp"

namespace perfbench {

using dtpm::util::JsonObject;
using dtpm::util::JsonValue;

double median(std::vector<double> values) { return percentile(values, 0.5); }

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * double(values.size() - 1);
  const std::size_t lo = std::size_t(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - double(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double peak_rss_mb(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status"
               : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream status(path);
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  throw std::runtime_error("no VmHWM in " + path);
}

// --- Report ------------------------------------------------------------------

Report::Report() : metrics_(JsonObject()), info_(JsonObject()) {}

void Report::metric(const std::string& name, double value, const char* unit) {
  JsonValue entry((JsonObject()));
  entry.set("value", value);
  entry.set("unit", unit);
  metrics_.set(name, std::move(entry));
}

void Report::info(const std::string& key, JsonValue value) {
  info_.set(key, std::move(value));
}

void Report::fail_check(const std::string& what) {
  check_failures_.push_back(what);
}

void Report::report_success_rate() {
  metric("success_rate",
         1.0 - double(failed_units()) / double(attempted), "ratio");
}

JsonValue Report::to_json(const Options& options) const {
  JsonValue json((JsonObject()));
  json.set("workload", options.workload);
  json.set("seed", options.seed);
  json.set("trace", options.trace);
  json.set("correct", correct());
  json.set("attempted", attempted);
  json.set("failed", failed_units());
  json.set("metrics", metrics_);
  dtpm::util::JsonArray failures;
  // Cap the list: one broken layer can fail every run of a pass.
  for (std::size_t i = 0; i < check_failures_.size() && i < 20; ++i) {
    failures.emplace_back(check_failures_[i]);
  }
  json.set("check_failures", JsonValue(std::move(failures)));
  JsonValue info = info_;
  info.set("compiler", compiler_string());
  info.set("build_type", build_type());
  info.set("nproc", std::max(1u, std::thread::hardware_concurrency()));
  json.set("info", std::move(info));
  return json;
}

// --- Tracer ------------------------------------------------------------------

Tracer::Scope::Scope(Tracer& tracer, const char* name, std::uint64_t request)
    : tracer_(tracer), index_(-1) {
  if (!tracer_.enabled_) return;
  index_ = std::int32_t(tracer_.spans_.size());
  tracer_.spans_.push_back({name, now_ns(), 0, tracer_.open_, request});
  tracer_.open_ = index_;
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  Span& span = tracer_.spans_[std::size_t(index_)];
  span.end_ns = now_ns();
  tracer_.open_ = span.parent;
}

void Tracer::record(const char* name, std::int64_t start_ns,
                    std::int64_t end_ns, std::int32_t parent,
                    std::uint64_t request) {
  if (!enabled_) return;
  spans_.push_back({name, start_ns, end_ns, parent, request});
}

Tracer::Totals Tracer::totals(const std::string& name) const {
  Totals totals;
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[std::size_t(span.parent)] += double(span.end_ns - span.start_ns);
    }
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (name != spans_[i].name) continue;
    const double duration = double(spans_[i].end_ns - spans_[i].start_ns);
    ++totals.count;
    totals.total_ns += duration;
    totals.self_ns += duration - child_ns[i];
  }
  return totals;
}

double Tracer::root_coverage_ns() const {
  std::vector<std::pair<std::int64_t, std::int64_t>> roots;
  for (const Span& span : spans_) {
    if (span.parent < 0) roots.emplace_back(span.start_ns, span.end_ns);
  }
  std::sort(roots.begin(), roots.end());
  double covered = 0.0;
  std::int64_t reach = INT64_MIN;
  for (const auto& [start, end] : roots) {
    const std::int64_t from = std::max(start, reach);
    if (end > from) covered += double(end - from);
    reach = std::max(reach, end);
  }
  return covered;
}

JsonValue Tracer::summary_json() const {
  std::set<std::string> names;
  for (const Span& span : spans_) names.insert(span.name);
  JsonValue json((JsonObject()));
  for (const std::string& name : names) {
    const Totals t = totals(name);
    JsonValue entry((JsonObject()));
    entry.set("count", t.count);
    entry.set("total_ms", t.total_ns * 1e-6);
    entry.set("self_ms", t.self_ns * 1e-6);
    json.set(name, std::move(entry));
  }
  return json;
}

// --- Simulation helpers ------------------------------------------------------

dtpm::sim::RunResult simulate(const dtpm::sim::BatchJob& job,
                              const dtpm::sim::RunPlan* plan, Tracer& tracer,
                              std::uint64_t request) {
  const Tracer::Scope run = tracer.span("sim.run", request);
  std::optional<dtpm::sim::Simulation> sim;
  {
    const Tracer::Scope s = tracer.span("sim.construct", request);
    sim.emplace(job.config, job.model, nullptr, plan);
  }
  const bool profiling = sim->profile_phases();
  for (;;) {
    bool more = false;
    {
      const Tracer::Scope s = tracer.span("sim.begin_step", request);
      more = sim->begin_step();
    }
    if (!more) break;
    dtpm::util::PhaseCycles plant_cycles;
    dtpm::sim::PlantIntervalResult interval;
    {
      const Tracer::Scope s = tracer.span("sim.advance", request);
      interval = sim->plant().advance(
          sim->staged_demand(), sim->staged_background(),
          sim->staged_instance(), sim->plant_substeps(),
          sim->plant_sub_dt_s(), profiling ? &plant_cycles : nullptr);
    }
    if (profiling) sim->add_phase_cycles(plant_cycles);
    {
      const Tracer::Scope s = tracer.span("sim.finish_step", request);
      more = sim->finish_step(interval);
    }
    if (!more) break;
  }
  const Tracer::Scope s = tracer.span("sim.finish", request);
  return sim->finish();
}

std::size_t distinct_platforms(const std::vector<dtpm::sim::BatchJob>& jobs) {
  std::set<const dtpm::sim::PlatformDescriptor*> platforms;
  for (const dtpm::sim::BatchJob& job : jobs) {
    platforms.insert(job.config.platform.get());
  }
  return platforms.size();
}

JsonValue run_digest(const dtpm::sim::RunResult& result) {
  JsonValue digest = dtpm::serve::run_summary_json(result);
  digest.set("wall_time_s", JsonValue());  // host time, not an output
  digest.set("plant_substeps", std::uint64_t(result.plant_substeps));
  return digest;
}

namespace {

const std::set<std::string>& count_members() {
  static const std::set<std::string> counts = {
      "devices", "failed",    "completed",      "runaway",
      "violated", "requests", "control_steps",  "plant_substeps",
      "runs",    "capacity",  "retained"};
  return counts;
}

bool close_enough(double expected, double observed) {
  if (expected == observed) return true;
  const double scale = std::max(std::fabs(expected), std::fabs(observed));
  return std::fabs(expected - observed) <= kRelativeTolerance * scale;
}

void compare_node(const JsonValue& expected, const JsonValue& observed,
                  const std::string& path, bool is_count, Report& report) {
  if (expected.type() != observed.type()) {
    report.fail_check(path + ": type differs from the reference");
    return;
  }
  if (expected.is_object()) {
    for (const auto& [key, value] : expected.as_object()) {
      const JsonValue* other = observed.find(key);
      if (other == nullptr) {
        report.fail_check(path + "." + key + ": missing");
        continue;
      }
      compare_node(value, *other, path + "." + key,
                   count_members().count(key) > 0, report);
    }
    for (const auto& [key, value] : observed.as_object()) {
      (void)value;
      if (expected.find(key) == nullptr) {
        report.fail_check(path + "." + key + ": not in the reference");
      }
    }
    return;
  }
  if (expected.is_array()) {
    const auto& a = expected.as_array();
    const auto& b = observed.as_array();
    if (a.size() != b.size()) {
      report.fail_check(path + ": length differs");
      return;
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
      compare_node(a[i], b[i], path + "[" + std::to_string(i) + "]", is_count,
                   report);
    }
    return;
  }
  if (expected.is_number() && !is_count) {
    if (!close_enough(expected.as_number(), observed.as_number())) {
      report.fail_check(path + ": " + std::to_string(observed.as_number()) +
                        " vs reference " +
                        std::to_string(expected.as_number()));
    }
    return;
  }
  if (expected != observed) {
    report.fail_check(path + ": " + dtpm::util::json_write(observed, 0) +
                      " vs reference " + dtpm::util::json_write(expected, 0));
  }
}

/// The reference digest of the workload, or null when none is recorded.
JsonValue load_reference(const Options& options) {
  if (!std::filesystem::exists(options.reference_path)) return JsonValue();
  const JsonValue file = dtpm::util::json_parse_file(options.reference_path);
  const JsonValue* entry = file.find(options.workload);
  return entry != nullptr ? *entry : JsonValue();
}

}  // namespace

void check_reference(const Options& options, const JsonValue& digest,
                     Report& report, bool seed_independent) {
  if (options.record_reference) {
    if (options.seed != kDefaultSeed) {
      throw std::invalid_argument("references are recorded at seed " +
                                  std::to_string(kDefaultSeed));
    }
    JsonValue file((JsonObject()));
    if (std::filesystem::exists(options.reference_path)) {
      file = dtpm::util::json_parse_file(options.reference_path);
    }
    file.set("seed", kDefaultSeed);
    file.set("relative_tolerance", kRelativeTolerance);
    file.set(options.workload, digest);
    dtpm::util::json_write_file(options.reference_path, file);
    report.info("reference", "recorded");
    return;
  }
  if (options.seed != kDefaultSeed && !seed_independent) {
    report.info("reference", "not compared: seed is not the default");
    return;
  }
  const JsonValue reference = load_reference(options);
  if (reference.is_null()) {
    report.fail_check("no reference recorded for " + options.workload);
    return;
  }
  compare_node(reference, digest, "reference", /*is_count=*/false, report);
  report.info("reference", "compared");
}

// --- Per-layer metrics -------------------------------------------------------

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in BENCHMARK.json order.
constexpr LayerMetric kLayerMetrics[] = {
    {"sim.registry_init_ms", "ms"},   {"sysid.calibrate_ms", "ms"},
    {"lint.fleet_ms", "ms"},          {"sim.construct_us", "us"},
    {"sim.begin_step_ns", "ns"},      {"sim.advance_ns", "ns"},
    {"sim.finish_step_ns", "ns"},     {"thermal.sensor_ns", "ns"},
    {"soc.schedule_ns", "ns"},        {"thermal.plant_ns", "ns"},
    {"governors.policy_ns", "ns"},    {"core.policy_ns", "ns"},
    {"serve.sample_ms", "ms"},        {"serve.materialize_us", "us"},
    {"sim.wave_ms.p50", "ms"},        {"sim.wave_ms.max", "ms"},
    {"sim.descriptors_per_wave", "count"}, {"serve.fold_us", "us"},
    {"serve.admit_ms", "ms"},         {"serve.parse_request_us", "us"},
    {"sim.run_ms", "ms"},             {"serve.reply_encode_us", "us"},
    {"serve.overhead_ms", "ms"},      {"sim.control_steps", "count"},
    {"sim.plant_substeps", "count"},  {"fleet.devices", "count"},
    {"serve.requests", "count"},      {"serve.queue_high_water", "count"},
    {"trace.coverage", "ratio"},      {"trace.overhead", "ratio"},
};

}  // namespace

void report_layers(Report& report, const LayerSamples& samples) {
  for (const LayerMetric& m : kLayerMetrics) {
    const auto it = samples.find(m.name);
    report.metric(m.name, it != samples.end() ? median(it->second) : 0.0,
                  m.unit);
  }
  for (const auto& [name, values] : samples) {
    (void)values;
    bool known = false;
    for (const LayerMetric& m : kLayerMetrics) known |= name == m.name;
    if (!known) throw std::logic_error("unlisted layer metric " + name);
  }
}

void add_simulation_layers(const Tracer& tracer, std::size_t runs,
                           LayerSamples& samples) {
  const Tracer::Totals construct = tracer.totals("sim.construct");
  const Tracer::Totals finish = tracer.totals("sim.finish");
  const Tracer::Totals begin = tracer.totals("sim.begin_step");
  const Tracer::Totals advance = tracer.totals("sim.advance");
  const Tracer::Totals finish_step = tracer.totals("sim.finish_step");
  const Tracer::Totals run = tracer.totals("sim.run");
  const auto per = [](double total, double count) {
    return count > 0.0 ? total / count : 0.0;
  };
  samples["sim.construct_us"].push_back(
      per(construct.total_ns + finish.total_ns, double(runs)) * 1e-3);
  samples["sim.begin_step_ns"].push_back(
      per(begin.total_ns, double(begin.count)));
  samples["sim.advance_ns"].push_back(
      per(advance.total_ns, double(advance.count)));
  samples["sim.finish_step_ns"].push_back(
      per(finish_step.total_ns, double(finish_step.count)));
  samples["sim.run_ms"].push_back(per(run.total_ns, double(runs)) * 1e-6);
}

void add_phase_layers(const std::vector<dtpm::sim::BatchJob>& jobs,
                      const dtpm::sim::RunPlan* plan,
                      const std::vector<JsonValue>& expected, Report& report,
                      LayerSamples& samples) {
  using dtpm::util::Phase;
  dtpm::util::PhaseCycles all;
  std::uint64_t steps = 0;
  // Policy ticks and intervals of default+fan runs [0] and dtpm runs [1].
  std::uint64_t policy_ticks[2] = {0, 0};
  std::uint64_t policy_steps[2] = {0, 0};
  Tracer off(false);
  const std::uint64_t tick0 = dtpm::util::cycle_now();
  const std::int64_t ns0 = now_ns();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    dtpm::sim::BatchJob job = jobs[i];
    job.config.profile_phases = true;
    const dtpm::sim::RunResult result = simulate(job, plan, off);
    report.check(run_digest(result) == expected[i],
                 "profiled run " + std::to_string(i) +
                     " differs from the unprofiled run");
    all += result.phase_cycles;
    steps += result.control_steps;
    const std::string policy = dtpm::sim::resolved_policy_name(job.config);
    const int slot = policy == "dtpm" ? 1 : policy == "default+fan" ? 0 : -1;
    if (slot >= 0) {
      policy_ticks[slot] +=
          result.phase_cycles.ticks[unsigned(Phase::kPolicy)];
      policy_steps[slot] += result.control_steps;
    }
  }
  const double ticks_per_ns =
      double(dtpm::util::cycle_now() - tick0) / double(now_ns() - ns0);
  const auto ns_per_step = [&](std::uint64_t ticks, std::uint64_t count) {
    return count > 0 ? double(ticks) / ticks_per_ns / double(count) : 0.0;
  };
  samples["thermal.sensor_ns"].push_back(
      ns_per_step(all.ticks[unsigned(Phase::kSensor)], steps));
  samples["soc.schedule_ns"].push_back(
      ns_per_step(all.ticks[unsigned(Phase::kSchedule)], steps));
  samples["thermal.plant_ns"].push_back(
      ns_per_step(all.ticks[unsigned(Phase::kPlant)], steps));
  samples["governors.policy_ns"].push_back(
      ns_per_step(policy_ticks[0], policy_steps[0]));
  samples["core.policy_ns"].push_back(
      ns_per_step(policy_ticks[1], policy_steps[1]));
}

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
#ifdef PERFBENCH_BUILD_TYPE
  return PERFBENCH_BUILD_TYPE;
#else
  return "unknown";
#endif
}

}  // namespace perfbench
