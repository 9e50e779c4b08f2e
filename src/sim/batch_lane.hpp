// Structure-of-arrays batch stepping: the `batched` engine's fleet lane.
//
// A BatchRunner wave usually runs many configs that share one platform's
// physics and one step geometry while differing only in benchmark, policy,
// seed and starting temperatures (a fleet's ambient). Each of those runs
// spends its interval budget on the same arithmetic -- leakage
// exponentials, the LTI propagator matvec -- over different state. The
// batch lane exploits that: runs whose descriptors agree on physics
// (sim::same_physics: everything but the floorplan's initial temperatures)
// are grouped into lockstep lanes whose per-node state lives column-major
// (`temps[node][lane]`, the boundary/ambient row included), so one pass of
// the leakage kernel advances every lane at once, in loops the compiler
// vectorizes across lanes.
//
// Division of labour per control interval:
//
//   * sensor noise: one batched pass (stage_wave_noise) draws every lane's
//     whole-interval noise block up front -- util/vgauss.hpp, sequence-
//     identical to the per-read draws -- and stages it on the Plants, so
//     begin_step's sensor reads become pure arithmetic,
//   * control + actuation: per-lane scalar (Simulation::begin_step --
//     policies are stateful and branchy; no value in lanes there),
//   * substep 0: per-lane scalar Plant::substep_prepare (recomputes the
//     workload schedule) whose outputs seed the lane columns, plus a
//     Soc::interval_constants() capture of the temperature-independent
//     power terms. Lanes whose (demand, background, applied config) tuple
//     matches an earlier lane's adopt that lane's solved schedule instead
//     of re-running the placement/contention bisection -- the memo that
//     collapses the schedule solve to once per equivalence class,
//   * substeps >= 1: structure-of-arrays leakage (util/vexp.hpp) + rail
//     assembly across all lanes, then the thermal update: lanes are
//     bucketed by fan-state conductance so each bucket shares one compiled
//     (Phi, Gamma) block, and each bucket's columns run through
//     thermal::propagate_lanes -- the very routine the scalar propagator
//     steps with (width 1), which sweeps buckets of 4+ lanes in 8- and
//     4-lane tiles with the same per-lane arithmetic,
//   * bookkeeping: the ordinary Plant::substep_commit / interval_end /
//     Simulation::finish_step per lane, so termination, recording and
//     metrics share the scalar code path operation for operation.
//
// A lane whose benchmark completes mid-interval is peeled: its column is
// scattered back to its own RcNetwork immediately and it stops committing,
// exactly where the scalar loop would have broken. Lanes that finish their
// runs retire from subsequent waves; the rest keep stepping.
//
// Numerics: the thermal update is the scalar propagator's own routine, so
// it is bit-identical per lane for identical inputs; the power evaluation differs
// from the scalar path by documented reassociation (SocIntervalConstants)
// and by vexp()'s few-ulp deviation from std::exp, so `batched` trades
// golden-trace bit-identity for throughput the same way `propagator` trades
// the RK4 fallback's -- see sim/stepping_engine.hpp for the contract. This
// translation unit (for its leakage passes) and the kernel's are built with
// -ffp-contract=off, so none of it depends on the host ISA.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <vector>

#include "sim/batch.hpp"
#include "sim/run_result.hpp"
#include "soc/soc.hpp"
#include "thermal/lti_propagator.hpp"

namespace dtpm::sim {

class RunPlan;
class Simulation;

/// Indices into a BatchRunner job vector that run in lockstep as lanes of
/// one structure-of-arrays group.
using LockstepGroup = std::vector<std::size_t>;

/// Steps N simulations of one platform's physics through one control
/// interval in structure-of-arrays form. All lanes must share the
/// platform's physics (hence floorplan topology and conductances; initial
/// and boundary temperatures may differ per lane), substep count and
/// substep dt -- the invariants plan_lockstep_groups() groups by;
/// run_interval throws std::logic_error on a node-count or step-geometry
/// violation. Owns the group-shared propagator whose conductance-keyed
/// cache serves every fan-state bucket. Not thread-safe; one stepper per
/// group per worker.
class BatchPlantStepper {
 public:
  explicit BatchPlantStepper(
      thermal::PropagatorMode mode = thermal::PropagatorMode::kRk4Map)
      : propagator_(mode) {}

  /// Draws and stages one control interval's sensor noise for every lane,
  /// in one pass, before the lanes' begin_step() calls. Each lane's draws
  /// consume its own sensor-bank RNG streams exactly as the scalar reads
  /// would, so staged reads stay bit-identical to unstaged ones. The staged
  /// block stays valid until the next stage_wave_noise() call.
  void stage_wave_noise(const std::vector<Simulation*>& lanes);

  /// Runs one control interval for every lane in `wave`. Every lane must
  /// have returned true from Simulation::begin_step() and not yet advanced;
  /// on return every lane has been through finish_step(). Reorders `wave`
  /// (lanes sharing a fan-state bucket become contiguous columns).
  void run_interval(std::vector<Simulation*>& wave);

  /// The per-wave schedule memo (on by default). Off forces every lane
  /// through its own schedule solve -- the reference the memo is tested
  /// bit-identical against.
  void set_schedule_memo(bool on) { schedule_memo_ = on; }

  thermal::PropagatorRcModel& propagator() { return propagator_; }

 private:
  /// Leakage evaluation rows: the big cores + little + GPU + mem.
  static constexpr std::size_t kLeakRows = soc::kBigCoreCount + 3;

  void compute_lane_powers(std::vector<Simulation*>& wave, double sub_dt);
  void thermal_matvec(std::size_t lane_count);
  void scatter_lane(Simulation& sim, std::size_t lane, std::size_t lane_count,
                    std::size_t node_count);

  thermal::PropagatorRcModel propagator_;
  bool schedule_memo_ = true;

  // Per-wave scratch, resized (capacity-preserving) each interval. SoA rows
  // have stride = current lane count.
  std::vector<const thermal::PropagatorMatrices*> mats_;  ///< per lane
  std::vector<soc::SocIntervalConstants> konst_;          ///< per lane
  std::vector<char> committing_;                          ///< per lane
  std::vector<std::size_t> row_node_;        ///< leak row -> node index
  std::vector<double> temps_, power_;        ///< [node][lane]
  std::vector<double> temps_alt_;            ///< matvec ping-pong target
  std::vector<double> c2_, scale_, gate_;    ///< [leak row][lane]
  std::vector<double> tk_, leak_;            ///< [leak row][lane]
  std::vector<double> kernel_io_;            ///< propagate_lanes scratch
  std::vector<double> fan_g_;                ///< per-lane bucket key
  std::vector<std::size_t> order_;
  std::vector<Simulation*> sorted_;
  std::vector<double> noise_;                ///< [lane][sensor noise slot]
  std::vector<std::uint64_t> memo_hash_;     ///< schedule-memo class key
};

/// Partitions a batch into lockstep groups: jobs whose config selects
/// Engine::kBatched and agrees on (platform physics per same_physics(),
/// control interval, plant substep) land in one group; everything else --
/// other engines, and batched jobs with no lockstep partner -- is appended
/// to `singles` for the ordinary per-run path. Groups larger than the lane
/// cap are split.
///
/// `worker_count` shards each bucket into balanced contiguous column tiles
/// so a multi-worker pool has one tile per worker instead of one monolithic
/// group serializing on a single thread. Tiles never drop below a few lanes
/// (SoA rows narrower than a vector register stop paying), and since lanes
/// are fully independent Simulations, any sharding produces bit-identical
/// per-run results.
std::vector<LockstepGroup> plan_lockstep_groups(
    const std::vector<BatchJob>& jobs, std::vector<std::size_t>& singles,
    unsigned worker_count = 1);

/// Runs one lockstep group to completion, writing each job's RunResult (or
/// exception) into its own slot of the batch-aligned arrays. Construction
/// and control-step errors are attributed per lane; a failure inside the
/// shared stepping kernel is reported by every lane still in flight.
void run_lockstep_group(const std::vector<BatchJob>& jobs,
                        const LockstepGroup& members, const RunPlan& plan,
                        std::vector<RunResult>& results,
                        std::vector<std::exception_ptr>& errors);

}  // namespace dtpm::sim
