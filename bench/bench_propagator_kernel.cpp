// Layer microbenchmark for the propagator thermal update
// (thermal::propagate_lanes), the plant-phase kernel of the `propagator`
// and `batched` engines: one PropagatorRcModel::step per registry platform
// (one lane) and one lockstep bucket update at bucket widths on both sides
// of a vector register. Cached matrices throughout:
// the RK4 fallback step of a cold cache is not timed.
//
//   ./build/bench_propagator_kernel
//   ./build/bench_propagator_kernel --benchmark_filter=Lockstep
#include <benchmark/benchmark.h>

#include <cmath>
#include <string>
#include <vector>

#include "sim/platform_registry.hpp"
#include "thermal/floorplan.hpp"
#include "thermal/lti_propagator.hpp"

namespace {

using namespace dtpm;

std::vector<double> bench_power(std::size_t nodes) {
  std::vector<double> power(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    power[i] = 1.0 + 0.5 * std::sin(double(i));
  }
  return power;
}

void BM_PropagatorStep(benchmark::State& state, const std::string& platform) {
  const sim::PlatformPtr descriptor =
      sim::PlatformRegistry::instance().get(platform);
  thermal::Floorplan fp = thermal::build_floorplan(descriptor->floorplan);
  const std::vector<double> power = bench_power(fp.network.node_count());
  thermal::PropagatorRcModel engine;
  engine.step(fp.network, 0.01, power);  // compile the matrices
  for (auto _ : state) {
    engine.step(fp.network, 0.01, power);
    benchmark::DoNotOptimize(fp.network.temperatures_c().data());
    benchmark::ClobberMemory();
  }
  state.counters["free_nodes"] = double(
      engine.matrices_for(fp.network, 0.01).free_count);
}

void BM_LockstepBucket(benchmark::State& state) {
  const std::size_t width = std::size_t(state.range(0));
  thermal::Floorplan fp = thermal::make_default_floorplan();
  thermal::PropagatorRcModel engine;
  const thermal::PropagatorMatrices& m = engine.matrices_for(fp.network, 0.01);
  const std::size_t nodes = fp.network.node_count();
  std::vector<double> temps(nodes * width), power(nodes * width);
  for (std::size_t i = 0; i < temps.size(); ++i) {
    temps[i] = 40.0 + 0.01 * double(i);
    power[i] = 1.0 + 0.001 * double(i);
  }
  std::vector<double> out = temps;
  std::vector<double> scratch;
  for (auto _ : state) {
    thermal::propagate_lanes(m, temps.data(), power.data(), width, width,
                             out.data(), scratch);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * std::int64_t(width));
}
BENCHMARK(BM_LockstepBucket)->Arg(1)->Arg(3)->Arg(4)->Arg(8)->Arg(16)->Arg(64);

}  // namespace

int main(int argc, char** argv) {
  for (const std::string& name : sim::PlatformRegistry::instance().names()) {
    benchmark::RegisterBenchmark(("BM_PropagatorStep/" + name).c_str(),
                                 BM_PropagatorStep, name);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
