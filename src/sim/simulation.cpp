#include "sim/simulation.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "workload/suite.hpp"

namespace dtpm::sim {

namespace {

const ExperimentConfig& validated(const ExperimentConfig& config,
                                  const sysid::IdentifiedPlatformModel* model) {
  if (config.observe_predictions && model == nullptr) {
    throw std::invalid_argument(
        "Simulation: observe_predictions requires an identified model");
  }
  return config;
}

workload::BackgroundParams background_params(const workload::Benchmark& bench) {
  workload::BackgroundParams params;
  params.heavy_load = workload::wants_heavy_background(bench);
  return params;
}

/// Inline scenarios are validated here, at the point of use: a malformed
/// generated benchmark fails the run that carries it (and only that run,
/// even inside a BatchRunner pool) instead of producing nonsense traces.
/// Suite names hit the RunPlan's resolution cache first when one is shared.
const workload::Benchmark& resolve_benchmark(const ExperimentConfig& config,
                                             const RunPlan* plan) {
  if (config.scenario != nullptr) {
    config.scenario->validate();
    return *config.scenario;
  }
  if (plan != nullptr) {
    const workload::Benchmark* cached = plan->benchmark_for(config.benchmark);
    if (cached != nullptr) return *cached;
  }
  return workload::find_benchmark(config.benchmark);
}

}  // namespace

Simulation::Simulation(const ExperimentConfig& config,
                       const sysid::IdentifiedPlatformModel* model,
                       std::unique_ptr<governors::ThermalPolicy> policy_override,
                       const RunPlan* plan)
    : Simulation(config, model, std::move(policy_override), plan,
                 util::Rng(config.seed)) {}

Simulation::Simulation(const ExperimentConfig& config,
                       const sysid::IdentifiedPlatformModel* model,
                       std::unique_ptr<governors::ThermalPolicy> policy_override,
                       const RunPlan* plan, util::Rng&& root)
    : config_(validated(config, model)),
      platform_(resolved_platform(config_)),
      runaway_abort_temp_c_(platform_->resolved_runaway_abort_temp_c()),
      dt_s_(config_.control_interval_s),
      substeps_(std::max(1, int(std::lround(dt_s_ / config_.plant_substep_s)))),
      sub_dt_s_(dt_s_ / substeps_),
      plant_(*platform_, root,
             plan != nullptr ? plan->floorplan_for(*platform_) : nullptr,
             config_.engine),
      bench_(resolve_benchmark(config_, plan)),
      background_(config_.background.has_value() ? *config_.background
                                                 : background_params(bench_),
                  root.fork()),
      instance_(bench_),
      control_(config_, model, std::move(policy_override), platform_.get()),
      observer_(config_.observe_predictions
                    ? PredictionObserver(*model, config_.observe_horizon_steps)
                    : PredictionObserver()),
      recorder_(config_.record_trace),
      wall_start_(std::chrono::steady_clock::now()) {
  view_.soc_config = plant_.soc().config();
}

bool Simulation::step() {
  if (!begin_step()) return false;
  const PlantIntervalResult interval =
      plant_.advance(staged_demand(), staged_background(), staged_instance(),
                     substeps_, sub_dt_s_,
                     config_.profile_phases ? &phase_cycles_ : nullptr);
  return finish_step(interval);
}

bool Simulation::begin_step() {
  if (done_) return false;
  const bool profiling = config_.profile_phases;
  std::uint64_t mark = profiling ? util::cycle_now() : 0;

  // 1. Sensor sampling (into the reused step buffers).
  plant_.read_temps_into(buffers_.sensor_temps);
  const std::vector<double>& sensor_temps = buffers_.sensor_temps;
  const power::ResourceVector sensor_rails = plant_.read_rails(last_rails_avg_);
  pending_.platform_power_w =
      plant_.read_platform_power(last_rails_avg_, last_fan_power_);
  if (profiling) {
    const std::uint64_t now = util::cycle_now();
    phase_cycles_.add(util::Phase::kSensor, now - mark);
    mark = now;
  }

  soc::PlatformView pv;
  pv.time_s = t_;
  for (int c = 0; c < soc::kBigCoreCount; ++c) {
    pv.big_temps_c[c] = sensor_temps[c];
  }
  pv.rail_power_w = sensor_rails;
  pv.platform_power_w = pending_.platform_power_w;
  pv.cpu_max_util = last_cpu_max_util_;
  pv.cpu_avg_util = last_cpu_avg_util_;
  pv.gpu_util = last_gpu_util_;
  pv.config = plant_.soc().config();

  // 2. Control stack (Fig. 3.1): default proposal, then the thermal policy.
  const governors::Decision decision = control_.decide(pv);
  plant_.apply(decision.soc);
  fan_speed_ = decision.fan;
  plant_.set_fan(fan_speed_);
  if (profiling) {
    const std::uint64_t now = util::cycle_now();
    phase_cycles_.add(util::Phase::kPolicy, now - mark);
    mark = now;
  }

  // 3. Observe-only prediction bookkeeping.
  pending_.active = started_ && !instance_.done();
  pending_.due =
      observer_.observe(k_, pending_.active, sensor_temps, sensor_rails);

  // 4. Stage the plant-advance inputs (the caller -- step() or the lockstep
  // batch driver -- advances the plant, then hands the interval result to
  // finish_step()).
  workload::Demand& demand = buffers_.demand;
  demand.threads.clear();
  demand.gpu_load = 0.0;
  demand.gpu_cycles_per_unit = 0.0;
  if (pending_.active) {
    instance_.demand_into(demand);
  } else if (!started_) {
    // Moderate warm-up load so recording starts from a warm platform.
    workload::ThreadDemand warm;
    warm.duty = 1.0;
    warm.cpu_activity = config_.warmup_activity;
    warm.mem_intensity = 0.3;
    warm.counts_progress = false;
    demand.threads.push_back(warm);
  }
  background_.threads_into(buffers_.background_threads);
  if (profiling) {
    // Observer bookkeeping + workload staging ride with the schedule phase
    // (they are the interval's decision-to-plant glue).
    phase_cycles_.add(util::Phase::kSchedule, util::cycle_now() - mark);
  }
  pending_.armed = true;
  return true;
}

bool Simulation::finish_step(const PlantIntervalResult& interval) {
  if (!pending_.armed) {
    throw std::logic_error(
        "Simulation::finish_step: no begin_step() pending");
  }
  pending_.armed = false;
  const std::vector<double>& sensor_temps = buffers_.sensor_temps;
  const PredictionObserver::DueSample& due = pending_.due;
  plant_substeps_ += static_cast<std::size_t>(interval.substeps_taken);
  last_rails_avg_ = interval.rails_avg_w;
  last_fan_power_ = plant_.fan_power_w(fan_speed_);
  last_cpu_max_util_ = interval.last_substep.cpu_max_util;
  last_cpu_avg_util_ = interval.last_substep.cpu_avg_util;
  last_gpu_util_ = interval.last_substep.gpu_util;

  // 5. Recording (benchmark window only).
  if (started_) {
    const double t_max_reading =
        *std::max_element(sensor_temps.begin(), sensor_temps.end());
    result_.max_temp_stats.add(t_max_reading);
    const double soc_power = power::total(last_rails_avg_);
    const double platform_true = soc_power + last_fan_power_ +
                                 platform_->platform_load.board_base_w +
                                 platform_->platform_load.display_w;
    result_.platform_energy_j += platform_true * interval.consumed_s;
    fan_energy_j_ += last_fan_power_ * interval.consumed_s;
    if (t_max_reading > config_.dtpm.t_max_c) {
      result_.violation_time_s += interval.consumed_s;
    }
    if (recorder_.enabled()) {
      TraceSample sample;
      sample.time_s = t_ - start_time_;
      for (int c = 0; c < soc::kBigCoreCount; ++c) {
        sample.big_temps_c[c] = sensor_temps[c];
      }
      sample.t_max_c = t_max_reading;
      sample.rail_power_w = last_rails_avg_;
      sample.platform_power_w = platform_true;
      sample.soc_config = plant_.soc().config();
      sample.fan = fan_speed_;
      sample.cpu_max_util = interval.last_substep.cpu_max_util;
      sample.gpu_util = interval.last_substep.gpu_util;
      sample.progress = instance_.progress_fraction();
      sample.pred_max_ahead_c =
          control_.dtpm() != nullptr
              ? control_.dtpm()->diagnostics().predicted_max_c
              : observer_.latest_scheduled_max_c();
      sample.pred_tmax_for_now_c = due.tmax_c;
      sample.pred_t0_for_now_c = due.t0_c;
      recorder_.record(sample, buffers_.trace_row);
    }
  }

  // 6. Advance time, termination checks.
  t_ += interval.consumed_s;
  ++k_;
  if (!started_ && t_ >= config_.warmup_s) {
    started_ = true;
    start_time_ = t_;
  }
  if (started_ && (instance_.done() || interval.benchmark_finished)) {
    result_.completed = true;
    end_time_ = t_;
    done_ = true;
  } else if (plant_.max_true_temp_c() > runaway_abort_temp_c_) {
    runaway_ = true;
    end_time_ = t_;
    done_ = true;
  } else if (t_ >= config_.max_sim_time_s) {
    end_time_ = t_;
    done_ = true;
  }

  refresh_view(sensor_temps, pending_.platform_power_w);
  return !done_;
}

void Simulation::refresh_view(const std::vector<double>& sensor_temps,
                              double platform_power_w) {
  view_.time_s = t_;
  view_.steps = k_;
  view_.warmed_up = started_;
  view_.benchmark_completed = result_.completed;
  view_.runaway = runaway_;
  view_.max_temp_c =
      *std::max_element(sensor_temps.begin(), sensor_temps.end());
  view_.progress = instance_.progress_fraction();
  view_.platform_power_w = platform_power_w;
  view_.soc_config = plant_.soc().config();
  view_.fan = fan_speed_;
}

RunResult Simulation::finish() {
  if (finished_) {
    throw std::logic_error("Simulation::finish() called twice");
  }
  finished_ = true;

  RunResult result = std::move(result_);
  const double end_time = done_ ? end_time_ : t_;
  result.execution_time_s = end_time - start_time_;
  if (result.execution_time_s > 0.0) {
    result.avg_platform_power_w =
        result.platform_energy_j / result.execution_time_s;
  }
  // SoC-only average from the energy identity: platform = soc + fan + fixed.
  if (result.execution_time_s > 0.0) {
    result.avg_soc_power_w =
        (result.platform_energy_j - fan_energy_j_) / result.execution_time_s -
        platform_->platform_load.board_base_w -
        platform_->platform_load.display_w;
  }
  observer_.finalize(result);
  if (control_.dtpm() != nullptr) result.dtpm = control_.dtpm()->diagnostics();
  result.runaway = runaway_;
  result.runaway_abort_temp_c = runaway_abort_temp_c_;
  if (runaway_) result.completed = false;
  result.trace = recorder_.take();
  result.control_steps = k_;
  result.plant_substeps = plant_substeps_;
  result.phase_cycles = phase_cycles_;
  result.wall_time_s = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - wall_start_)
                           .count();
  return result;
}

}  // namespace dtpm::sim
