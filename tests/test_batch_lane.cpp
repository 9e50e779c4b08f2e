#include "sim/batch_lane.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "serve/fleet.hpp"
#include "sim/engine.hpp"
#include "sim/platform_registry.hpp"
#include "sim/run_plan.hpp"
#include "sim/simulation.hpp"
#include "util/vexp.hpp"

namespace dtpm::sim {
namespace {

ExperimentConfig quick_config(const char* benchmark, Policy policy,
                              std::uint64_t seed, Engine engine) {
  ExperimentConfig c;
  c.benchmark = benchmark;
  c.policy = policy;
  c.record_trace = false;
  c.seed = seed;
  c.engine = engine;
  return c;
}

// --- vexp -------------------------------------------------------------------

TEST(Vexp, MatchesStdExpAcrossTheLeakageRange) {
  // The leakage arguments live in roughly [-10, -6]; sweep far past that
  // on both sides. vexp must track std::exp to a few ulp everywhere.
  for (double x = -40.0; x <= 5.0; x += 0.00731) {
    const double want = std::exp(x);
    const double got = util::vexp(x);
    EXPECT_NEAR(got, want, std::abs(want) * 1e-14) << "x=" << x;
  }
}

TEST(Vexp, ExactAtZero) { EXPECT_EQ(util::vexp(0.0), 1.0); }

// --- Group planning ---------------------------------------------------------

TEST(PlanLockstepGroups, GroupsBatchedJobsAndLeavesTheRestSingle) {
  auto job = [](Engine engine, double interval = 0.1) {
    ExperimentConfig c;
    c.engine = engine;
    c.control_interval_s = interval;
    return BatchJob{c, nullptr};
  };
  const std::vector<BatchJob> jobs{
      job(Engine::kReferenceRk4),         // 0: default engine -> single
      job(Engine::kBatched),              // 1: lane
      job(Engine::kBatched),              // 2: lane
      job(Engine::kPropagator),           // 3: scalar engine -> single
      job(Engine::kBatched, 0.05),        // 4: different geometry -> single
      job(Engine::kBatched),              // 5: lane
  };
  std::vector<std::size_t> singles;
  const std::vector<LockstepGroup> groups =
      plan_lockstep_groups(jobs, singles);

  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0], (LockstepGroup{1, 2, 5}));
  EXPECT_EQ(singles, (std::vector<std::size_t>{0, 3, 4}));
}

TEST(PlanLockstepGroups, AllScalarEnginesMeansNoGroups) {
  auto job = [](Engine engine) {
    ExperimentConfig c;
    c.engine = engine;
    return BatchJob{c, nullptr};
  };
  const std::vector<BatchJob> jobs{job(Engine::kReferenceRk4),
                                   job(Engine::kPropagator),
                                   job(Engine::kReferenceRk4)};
  std::vector<std::size_t> singles;
  EXPECT_TRUE(plan_lockstep_groups(jobs, singles).empty());
  EXPECT_EQ(singles, (std::vector<std::size_t>{0, 1, 2}));
}

// --- Physics-keyed buckets -------------------------------------------------

/// A fleet spec over one platform on the batched engine, with short
/// scenarios so whole runs stay quick.
serve::FleetSpec short_fleet_spec() {
  serve::FleetSpec spec;
  spec.base.engine = Engine::kBatched;
  spec.base.policy = Policy::kDefaultWithFan;
  spec.base.warmup_s = 2.0;
  spec.base.max_sim_time_s = 20.0;
  spec.scenario_nominal_duration_s = 10.0;
  return spec;
}

serve::DeviceProfile device_at(double ambient_c, std::uint64_t seed) {
  serve::DeviceProfile device;
  device.platform = "odroid-xu-e";
  device.family = seed % 2 ? "bursty" : "thermal-soak";
  device.ambient_c = ambient_c;
  device.seed = seed;
  return device;
}

TEST(PlanLockstepGroups, AmbientShiftedCopiesShareOneGroup) {
  // Two ambient bins of one registry platform, materialized as a fleet
  // does: distinct descriptors that differ only in initial temperatures.
  const serve::FleetSpec spec = short_fleet_spec();
  serve::FleetMaterializer materializer(spec);
  const std::vector<BatchJob> jobs{
      {materializer.config_for(device_at(20.0, 1)), nullptr},
      {materializer.config_for(device_at(31.5, 2)), nullptr},
      {materializer.config_for(device_at(20.0, 3)), nullptr},
  };
  const PlatformPtr cool = resolved_platform(jobs[0].config);
  const PlatformPtr warm = resolved_platform(jobs[1].config);
  ASSERT_NE(*cool, *warm);
  EXPECT_NE(cool->floorplan.ambient_temp_c(), warm->floorplan.ambient_temp_c());
  EXPECT_TRUE(same_physics(*cool, *warm));

  std::vector<std::size_t> singles;
  const std::vector<LockstepGroup> groups =
      plan_lockstep_groups(jobs, singles);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0], (LockstepGroup{0, 1, 2}));
  EXPECT_TRUE(singles.empty());
}

TEST(PlanLockstepGroups, PhysicsDifferencesSplitGroups) {
  const PlatformPtr nominal =
      PlatformRegistry::instance().get("odroid-xu-e");
  auto variant = [&](auto mutate) {
    auto d = std::make_shared<PlatformDescriptor>(*nominal);
    mutate(*d);
    return PlatformPtr(std::move(d));
  };
  const std::vector<PlatformPtr> platforms{
      nominal,
      variant([](PlatformDescriptor& d) {
        d.floorplan.edges[0].conductance_w_per_k *= 1.5;
      }),
      variant([](PlatformDescriptor& d) {
        d.big_opps.back().voltage_v += 0.01;
      }),
      variant([](PlatformDescriptor& d) { d.fan.conductance_low += 0.01; }),
  };
  for (std::size_t p = 1; p < platforms.size(); ++p) {
    EXPECT_FALSE(same_physics(*nominal, *platforms[p])) << p;
  }
  // Two jobs per platform, interleaved: each platform gets its own group.
  std::vector<BatchJob> jobs;
  for (int copy = 0; copy < 2; ++copy) {
    for (const PlatformPtr& platform : platforms) {
      ExperimentConfig c;
      c.engine = Engine::kBatched;
      set_platform(c, platform);
      jobs.push_back({c, nullptr});
    }
  }
  std::vector<std::size_t> singles;
  const std::vector<LockstepGroup> groups =
      plan_lockstep_groups(jobs, singles);
  ASSERT_EQ(groups.size(), 4u);
  for (std::size_t p = 0; p < 4; ++p) {
    EXPECT_EQ(groups[p], (LockstepGroup{p, p + 4}));
  }
  EXPECT_TRUE(singles.empty());
}

TEST(PlanLockstepGroups, WideBucketsSplitIntoGroupsOfAtMostSixteen) {
  std::vector<BatchJob> jobs;
  for (int i = 0; i < 40; ++i) {
    ExperimentConfig c;
    c.engine = Engine::kBatched;
    jobs.push_back({c, nullptr});
  }
  std::vector<std::size_t> singles;
  const std::vector<LockstepGroup> groups =
      plan_lockstep_groups(jobs, singles, 1);
  ASSERT_EQ(groups.size(), 3u);
  std::size_t lanes = 0;
  for (const LockstepGroup& g : groups) {
    EXPECT_LE(g.size(), 16u);
    lanes += g.size();
  }
  EXPECT_EQ(lanes, 40u);
  EXPECT_TRUE(singles.empty());
}

TEST(BatchedEngine, MixedAmbientGroupEqualsEachJobRunAlone) {
  // Twelve devices over four ambient bins in one lockstep group: wide
  // enough for 8- and 4-lane kernel tiles. Each lane reads its own ambient
  // from its own boundary column, so every job's result must equal the
  // same job run as a group of one (lane by lane through the kernel) bit
  // for bit.
  const serve::FleetSpec spec = short_fleet_spec();
  serve::FleetMaterializer materializer(spec);
  const double ambients[] = {20.0, 24.25, 29.5, 35.0};
  std::vector<BatchJob> jobs;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    jobs.push_back(
        {materializer.config_for(device_at(ambients[seed % 4], seed)),
         nullptr});
  }
  const RunPlan plan(jobs);
  std::vector<std::size_t> singles;
  const std::vector<LockstepGroup> groups =
      plan_lockstep_groups(jobs, singles, 1);
  ASSERT_EQ(groups.size(), 1u);
  ASSERT_EQ(groups[0].size(), jobs.size());

  std::vector<RunResult> grouped(jobs.size()), alone(jobs.size());
  std::vector<std::exception_ptr> errors(jobs.size());
  run_lockstep_group(jobs, groups[0], plan, grouped, errors);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    run_lockstep_group(jobs, LockstepGroup{i}, plan, alone, errors);
  }
  for (const std::exception_ptr& e : errors) EXPECT_TRUE(e == nullptr);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    SCOPED_TRACE("job " + std::to_string(i));
    EXPECT_GT(grouped[i].platform_energy_j, 0.0);
    EXPECT_EQ(grouped[i].completed, alone[i].completed);
    EXPECT_EQ(grouped[i].control_steps, alone[i].control_steps);
    EXPECT_EQ(grouped[i].plant_substeps, alone[i].plant_substeps);
    EXPECT_EQ(grouped[i].execution_time_s, alone[i].execution_time_s);
    EXPECT_EQ(grouped[i].platform_energy_j, alone[i].platform_energy_j);
    EXPECT_EQ(grouped[i].avg_platform_power_w, alone[i].avg_platform_power_w);
    EXPECT_EQ(grouped[i].max_temp_stats.max(), alone[i].max_temp_stats.max());
    EXPECT_EQ(grouped[i].max_temp_stats.mean(), alone[i].max_temp_stats.mean());
  }
}

// --- Lockstep kernel vs scalar stepping -------------------------------------

// Drives three batched lanes through BatchPlantStepper next to three scalar
// twins (engine=propagator, the path a standalone batched run takes) with
// identical configs. Seeds differ across lanes so fan decisions -- hence
// conductance buckets -- diverge between columns; within each pair the
// whole closed loop (same RNG streams, same policy state) must track to the
// batch kernel's documented numerical slack: reassociated power sums and
// vexp's few-ulp exp. 1e-6 degC over the full run is orders of magnitude
// above that slack and orders of magnitude below anything the sensors can
// resolve.
TEST(BatchPlantStepper, TracksTheScalarEngineTrajectory) {
  constexpr int kLanes = 3;
  constexpr int kMaxIntervals = 2000;  // safety cap; the runs finish earlier
  std::vector<std::unique_ptr<Simulation>> batched, scalar;
  for (int i = 0; i < kLanes; ++i) {
    const auto policy =
        i == 1 ? Policy::kWithoutFan : Policy::kDefaultWithFan;
    batched.push_back(std::make_unique<Simulation>(quick_config(
        "crc32", policy, 10 + std::uint64_t(i), Engine::kBatched)));
    scalar.push_back(std::make_unique<Simulation>(quick_config(
        "crc32", policy, 10 + std::uint64_t(i), Engine::kPropagator)));
  }

  BatchPlantStepper stepper;
  std::vector<Simulation*> wave;
  for (int step = 0; step < kMaxIntervals; ++step) {
    bool any_running = false;
    for (auto& sim : batched) any_running = any_running || !sim->done();
    for (auto& sim : scalar) any_running = any_running || !sim->done();
    if (!any_running) break;
    wave.clear();
    for (auto& sim : batched) {
      if (!sim->done() && sim->begin_step()) wave.push_back(sim.get());
    }
    if (!wave.empty()) stepper.run_interval(wave);
    for (auto& sim : scalar) {
      if (!sim->done()) sim->step();
    }
    for (int i = 0; i < kLanes; ++i) {
      SCOPED_TRACE("lane " + std::to_string(i) + " step " +
                   std::to_string(step));
      ASSERT_EQ(batched[i]->done(), scalar[i]->done());
      const std::vector<double>& bt = batched[i]->plant().true_temps_c();
      const std::vector<double>& st = scalar[i]->plant().true_temps_c();
      ASSERT_EQ(bt.size(), st.size());
      for (std::size_t n = 0; n < bt.size(); ++n) {
        ASSERT_NEAR(bt[n], st[n], 1e-6);
      }
    }
  }

  // The runs must have exercised the interesting paths: completion (lane
  // peeling) and identical step counts.
  for (int i = 0; i < kLanes; ++i) {
    EXPECT_TRUE(batched[i]->done());
    const RunResult br = batched[i]->finish();
    const RunResult sr = scalar[i]->finish();
    EXPECT_TRUE(br.completed);
    EXPECT_EQ(br.control_steps, sr.control_steps);
    EXPECT_EQ(br.plant_substeps, sr.plant_substeps);
    EXPECT_NEAR(br.execution_time_s, sr.execution_time_s, 1e-9);
    EXPECT_NEAR(br.avg_platform_power_w, sr.avg_platform_power_w, 1e-6);
    EXPECT_NEAR(br.max_temp_stats.max(), sr.max_temp_stats.max(), 1e-6);
  }
}

// --- End-to-end through BatchRunner -----------------------------------------

TEST(BatchedEngine, BatchRunnerGroupMatchesStandaloneRuns) {
  // A batch mixing a lockstep group (three batched same-platform configs)
  // with a reference-rk4 single. The grouped results must match each
  // config's standalone run within the engine's tolerance, and the
  // reference single must stay bit-identical to its standalone run.
  std::vector<BatchJob> jobs;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    jobs.push_back({quick_config("crc32", Policy::kDefaultWithFan, seed,
                                 Engine::kBatched),
                    nullptr});
  }
  jobs.push_back({quick_config("crc32", Policy::kDefaultWithFan, 7,
                               Engine::kReferenceRk4),
                  nullptr});

  const BatchOutcome outcome = BatchRunner(1).run_collecting(jobs);
  ASSERT_TRUE(outcome.all_succeeded());

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    SCOPED_TRACE(i);
    const RunResult standalone = run_experiment(jobs[i].config);
    const RunResult& grouped = outcome.results[i];
    EXPECT_EQ(grouped.completed, standalone.completed);
    EXPECT_EQ(grouped.control_steps, standalone.control_steps);
    if (jobs[i].config.engine == Engine::kReferenceRk4) {
      EXPECT_EQ(grouped.execution_time_s, standalone.execution_time_s);
      EXPECT_EQ(grouped.platform_energy_j, standalone.platform_energy_j);
    } else {
      EXPECT_NEAR(grouped.execution_time_s, standalone.execution_time_s,
                  1e-9);
      EXPECT_NEAR(grouped.platform_energy_j, standalone.platform_energy_j,
                  1e-4);
      EXPECT_NEAR(grouped.max_temp_stats.max(),
                  standalone.max_temp_stats.max(), 1e-5);
    }
  }
}

TEST(PlanLockstepGroups, ShardsBucketsIntoPerWorkerColumnTiles) {
  auto jobs_of = [](std::size_t n) {
    std::vector<BatchJob> jobs;
    for (std::size_t i = 0; i < n; ++i) {
      ExperimentConfig c;
      c.engine = Engine::kBatched;
      jobs.push_back({c, nullptr});
    }
    return jobs;
  };
  // One worker keeps the whole bucket as one group (the pre-sharding
  // shape, and what the 2-argument overload's default produces).
  {
    std::vector<std::size_t> singles;
    const auto groups = plan_lockstep_groups(jobs_of(12), singles, 1);
    ASSERT_EQ(groups.size(), 1u);
    EXPECT_EQ(groups[0].size(), 12u);
    EXPECT_TRUE(singles.empty());
  }
  // Two workers: two balanced contiguous tiles.
  {
    std::vector<std::size_t> singles;
    const auto groups = plan_lockstep_groups(jobs_of(12), singles, 2);
    ASSERT_EQ(groups.size(), 2u);
    EXPECT_EQ(groups[0], (LockstepGroup{0, 1, 2, 3, 4, 5}));
    EXPECT_EQ(groups[1], (LockstepGroup{6, 7, 8, 9, 10, 11}));
    EXPECT_TRUE(singles.empty());
  }
  // Four workers on 12 lanes: the minimum tile width (4) caps the shard
  // count at 3 -- SoA rows narrower than a vector register stop paying.
  {
    std::vector<std::size_t> singles;
    const auto groups = plan_lockstep_groups(jobs_of(12), singles, 4);
    ASSERT_EQ(groups.size(), 3u);
    for (const LockstepGroup& g : groups) EXPECT_EQ(g.size(), 4u);
  }
  // Uneven split spreads the remainder across the leading tiles.
  {
    std::vector<std::size_t> singles;
    const auto groups = plan_lockstep_groups(jobs_of(13), singles, 2);
    ASSERT_EQ(groups.size(), 2u);
    EXPECT_EQ(groups[0].size(), 7u);
    EXPECT_EQ(groups[1].size(), 6u);
  }
  // A bucket too small to shard stays whole no matter the pool width.
  {
    std::vector<std::size_t> singles;
    const auto groups = plan_lockstep_groups(jobs_of(6), singles, 8);
    ASSERT_EQ(groups.size(), 1u);
    EXPECT_EQ(groups[0].size(), 6u);
  }
}

TEST(BatchedEngine, ShardedTilesAreBitIdenticalToOneGroup) {
  // 16 same-platform batched jobs run once as a single lockstep group and
  // again under the 2- and 4-worker tile plans. Lanes are independent
  // Simulations and the schedule memo only adopts exact-equality-verified
  // solutions, so every sharding must reproduce the monolithic group's
  // results bit for bit -- the invariant that makes multi-worker sharding
  // a pure scheduling decision, never a numerics one.
  std::vector<BatchJob> jobs;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    ExperimentConfig c = quick_config(
        "crc32",
        seed % 2 ? Policy::kDefaultWithFan : Policy::kWithoutFan, seed,
        Engine::kBatched);
    c.max_sim_time_s = 20.0;
    jobs.push_back({c, nullptr});
  }
  const RunPlan plan(jobs);

  auto run_with_workers = [&](unsigned workers) {
    std::vector<std::size_t> singles;
    const std::vector<LockstepGroup> groups =
        plan_lockstep_groups(jobs, singles, workers);
    EXPECT_TRUE(singles.empty());
    std::vector<RunResult> results(jobs.size());
    std::vector<std::exception_ptr> errors(jobs.size());
    for (const LockstepGroup& group : groups) {
      run_lockstep_group(jobs, group, plan, results, errors);
    }
    for (const std::exception_ptr& e : errors) EXPECT_TRUE(e == nullptr);
    return results;
  };

  const std::vector<RunResult> one = run_with_workers(1);
  for (const unsigned workers : {2u, 4u}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    const std::vector<RunResult> tiled = run_with_workers(workers);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      SCOPED_TRACE("job " + std::to_string(i));
      EXPECT_EQ(tiled[i].completed, one[i].completed);
      EXPECT_EQ(tiled[i].control_steps, one[i].control_steps);
      EXPECT_EQ(tiled[i].plant_substeps, one[i].plant_substeps);
      EXPECT_EQ(tiled[i].execution_time_s, one[i].execution_time_s);
      EXPECT_EQ(tiled[i].platform_energy_j, one[i].platform_energy_j);
      EXPECT_EQ(tiled[i].avg_platform_power_w, one[i].avg_platform_power_w);
      EXPECT_EQ(tiled[i].max_temp_stats.max(), one[i].max_temp_stats.max());
    }
  }
}

TEST(BatchPlantStepper, ScheduleMemoIsBitExact) {
  // Two fleets on identical configs: one stepper with the per-wave schedule
  // memo (the default), one forced to solve every lane. Two lanes share a
  // seed so at least one pair stays in the same equivalence class for the
  // whole run; the memo must nonetheless be invisible, because an adopted
  // schedule comes from a lane whose (demand, background, config) tuple is
  // equality-verified and the solve is a pure function of that tuple.
  constexpr int kMaxIntervals = 3000;
  const std::uint64_t seeds[] = {21, 21, 22, 23};
  std::vector<std::unique_ptr<Simulation>> memo, ref;
  for (const std::uint64_t seed : seeds) {
    ExperimentConfig c = quick_config("crc32", Policy::kDefaultWithFan, seed,
                                      Engine::kBatched);
    c.max_sim_time_s = 20.0;
    memo.push_back(std::make_unique<Simulation>(c));
    ref.push_back(std::make_unique<Simulation>(c));
  }
  BatchPlantStepper memo_stepper, ref_stepper;
  ref_stepper.set_schedule_memo(false);

  auto drive = [&](std::vector<std::unique_ptr<Simulation>>& sims,
                   BatchPlantStepper& stepper) {
    std::vector<Simulation*> lanes, wave;
    for (int step = 0; step < kMaxIntervals; ++step) {
      lanes.clear();
      for (auto& sim : sims) {
        if (!sim->done()) lanes.push_back(sim.get());
      }
      if (lanes.empty()) return;
      stepper.stage_wave_noise(lanes);
      wave.clear();
      for (Simulation* sim : lanes) {
        if (sim->begin_step()) wave.push_back(sim);
      }
      if (!wave.empty()) stepper.run_interval(wave);
    }
  };
  drive(memo, memo_stepper);
  drive(ref, ref_stepper);

  for (std::size_t i = 0; i < memo.size(); ++i) {
    SCOPED_TRACE("lane " + std::to_string(i));
    ASSERT_TRUE(memo[i]->done());
    ASSERT_TRUE(ref[i]->done());
    const std::vector<double>& mt = memo[i]->plant().true_temps_c();
    const std::vector<double>& rt = ref[i]->plant().true_temps_c();
    ASSERT_EQ(mt.size(), rt.size());
    for (std::size_t n = 0; n < mt.size(); ++n) EXPECT_EQ(mt[n], rt[n]);
    const RunResult mr = memo[i]->finish();
    const RunResult rr = ref[i]->finish();
    EXPECT_EQ(mr.control_steps, rr.control_steps);
    EXPECT_EQ(mr.execution_time_s, rr.execution_time_s);
    EXPECT_EQ(mr.platform_energy_j, rr.platform_energy_j);
    EXPECT_EQ(mr.max_temp_stats.max(), rr.max_temp_stats.max());
  }
}

TEST(BatchedEngine, ConstructionErrorStaysInItsOwnLane) {
  // One lane of the group carries an unknown benchmark; the other lanes
  // must still produce their ordinary results.
  std::vector<BatchJob> jobs;
  jobs.push_back({quick_config("crc32", Policy::kDefaultWithFan, 1,
                               Engine::kBatched),
                  nullptr});
  jobs.push_back({quick_config("no-such-benchmark", Policy::kDefaultWithFan,
                               2, Engine::kBatched),
                  nullptr});
  jobs.push_back({quick_config("crc32", Policy::kDefaultWithFan, 3,
                               Engine::kBatched),
                  nullptr});

  const BatchOutcome outcome = BatchRunner(1).run_collecting(jobs);
  EXPECT_EQ(outcome.failure_count, 1u);
  EXPECT_TRUE(outcome.errors[1] != nullptr);
  EXPECT_TRUE(outcome.results[0].completed);
  EXPECT_TRUE(outcome.results[2].completed);
}

}  // namespace
}  // namespace dtpm::sim
