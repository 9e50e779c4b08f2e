// Shared pieces of the workload runner: options, the per-run report, the
// span tracer, small statistics helpers and the result comparisons every
// workload's output check uses.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/batch.hpp"
#include "sim/run_plan.hpp"
#include "sim/run_result.hpp"
#include "util/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median of `values` (0 when empty).
double median(std::vector<double> values);

/// Linear-interpolated percentile, `p` in [0, 1] (0 when empty).
double percentile(std::vector<double> values, double p);

/// Element-wise medians over repeats: `values(r)` gives one repeat's
/// samples, one per unit of work (a run, a wave), in the same order every
/// repeat. Latency percentiles are taken over these medians, so a host
/// stall during one repeat does not become the tail.
template <typename Repeat, typename Values>
std::vector<double> medians_by_index(const std::vector<Repeat>& repeats,
                                     Values values) {
  std::vector<std::vector<double>> by_index;
  for (const Repeat& repeat : repeats) {
    const std::vector<double> samples = values(repeat);
    if (by_index.size() < samples.size()) by_index.resize(samples.size());
    for (std::size_t i = 0; i < samples.size(); ++i) {
      by_index[i].push_back(samples[i]);
    }
  }
  std::vector<double> medians;
  for (const std::vector<double>& v : by_index) medians.push_back(median(v));
  return medians;
}

/// Peak resident set (VmHWM) of process `pid`, or of this process when
/// `pid` is 0, in MB. VmHWM belongs to the address space, so unlike
/// getrusage's ru_maxrss it does not carry over the parent's peak across
/// fork and exec.
double peak_rss_mb(int pid = 0);

struct Options {
  Clock::time_point start = Clock::now();  ///< process start, for setup_s
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Stop after set-up and report only setup_s (set-up is sampled in
  /// several fresh processes, because its caches are process-wide).
  bool setup_only = false;
  std::string repo_root = ".";
  std::string dtpm_binary;  ///< the `dtpm` CLI, for serve-runs
  std::string reference_path;
  /// Write the observed output digest to reference_path instead of
  /// comparing against it (only at the default seed).
  bool record_reference = false;
};

/// The seed the output references are recorded for.
inline constexpr std::uint64_t kDefaultSeed = 1;
/// Relative tolerance for floating-point sums in output checks; counts
/// always match exactly.
inline constexpr double kRelativeTolerance = 1e-9;

/// What one workload process reports: metrics by name with units, the
/// attempted/failed tallies, every failed check, and provenance.
class Report {
 public:
  Report();

  void metric(const std::string& name, double value, const char* unit);
  void info(const std::string& key, dtpm::util::JsonValue value);
  /// Records a failed output check. Every pass repeats the output of the
  /// first, which the checks cover, so one failed check voids the whole
  /// run: from then on every attempted unit counts as failed.
  void fail_check(const std::string& what);
  /// Records a check; a false `ok` is a failure described by `what`.
  void check(bool ok, const std::string& what) {
    if (!ok) fail_check(what);
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  bool correct() const { return check_failures_.empty(); }
  /// `failed`, or every attempted unit once an output check has failed.
  std::uint64_t failed_units() const {
    return correct() ? failed : attempted;
  }
  /// Adds the `success_rate` metric: 1 - failed_units() / attempted.
  void report_success_rate();
  dtpm::util::JsonValue to_json(const Options& options) const;

 private:
  dtpm::util::JsonValue metrics_;
  dtpm::util::JsonValue info_;
  std::vector<std::string> check_failures_;
};

// --- Tracing -------------------------------------------------------------

/// In-memory span recorder. Spans are recorded from the benchmark's own
/// files around calls into the program's public API; each has a name, a
/// start and end, the span that caused it, and the request it belongs to.
/// A disabled tracer records nothing and costs one branch per span.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;  ///< index of the enclosing span, -1 for roots
    std::uint64_t request;
  };

  /// Per-name totals over the recorded spans.
  struct Totals {
    std::uint64_t count = 0;
    double total_ns = 0.0;
    double self_ns = 0.0;  ///< total minus the time child spans cover
  };

  /// Scoped span: opens on construction, closes on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::int32_t index_;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  Scope span(const char* name, std::uint64_t request = 0) {
    return Scope(*this, name, request);
  }
  /// Records a span measured elsewhere (client-side request timings).
  void record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
              std::int32_t parent, std::uint64_t request);
  std::int32_t last_index() const { return std::int32_t(spans_.size()) - 1; }

  const std::vector<Span>& spans() const { return spans_; }
  void clear() { spans_.clear(); }

  Totals totals(const std::string& name) const;
  /// Time covered by the union of root spans.
  double root_coverage_ns() const;
  /// Per-name totals as JSON (written to the result file).
  dtpm::util::JsonValue summary_json() const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::int32_t open_ = -1;
};

// --- Simulation helpers shared by the workloads ---------------------------

/// Runs one job through the split-phase Simulation API (construct,
/// begin_step / Plant::advance / finish_step per interval, finish) -- the
/// loop run_experiment and a one-worker BatchRunner execute -- with a span
/// around every call. With profiling on in the config the plant-side phase
/// ticks are credited exactly as Simulation::step() credits them.
dtpm::sim::RunResult simulate(const dtpm::sim::BatchJob& job,
                              const dtpm::sim::RunPlan* plan, Tracer& tracer,
                              std::uint64_t request = 0);

/// Distinct `config.platform` descriptors among `jobs` (an unset platform
/// counts once): the lockstep bucket count a wave is split into.
std::size_t distinct_platforms(const std::vector<dtpm::sim::BatchJob>& jobs);

/// The deterministic fields of a run (wall-clock and phase ticks dropped),
/// for exact comparisons between code paths.
dtpm::util::JsonValue run_digest(const dtpm::sim::RunResult& result);

/// Compares `digest` against the reference or records it (with
/// --record-reference): counts (control_steps, completed, devices, ...)
/// must match exactly, other numbers within kRelativeTolerance, everything
/// else exactly, and each mismatch is a failed check. The reference is
/// recorded at the default seed; `seed_independent` digests (the serve
/// request set does not vary with the seed, only its order does) are
/// compared at every seed.
void check_reference(const Options& options,
                     const dtpm::util::JsonValue& digest, Report& report,
                     bool seed_independent = false);

// --- Per-layer metrics -----------------------------------------------------

/// Per-layer samples by metric name, one per traced pass.
using LayerSamples = std::map<std::string, std::vector<double>>;

/// Emits every per-layer metric: the median of its samples, or 0 for
/// layers the workload does not call.
void report_layers(Report& report,
                   const LayerSamples& samples);

/// Per-call costs of the Simulation layer from a traced pass of `runs` runs
/// through simulate(), added to `samples`.
void add_simulation_layers(const Tracer& tracer, std::size_t runs,
                           LayerSamples& samples);

/// Re-runs `jobs` with phase profiling on (util/phase.hpp), checks each
/// result against `expected` digests, and adds the sensor / schedule /
/// plant split and the policy cost of default+fan and dtpm runs in ns per
/// control interval (ticks converted with the pass's own wall time).
void add_phase_layers(const std::vector<dtpm::sim::BatchJob>& jobs,
                      const dtpm::sim::RunPlan* plan,
                      const std::vector<dtpm::util::JsonValue>& expected,
                      Report& report,
                      LayerSamples& samples);

/// Compiler string baked in at build time.
const char* compiler_string();
const char* build_type();

Report run_catalog_sweep(const Options& options);
Report run_fleet_10k(const Options& options);
Report run_serve_runs(const Options& options);

}  // namespace perfbench
