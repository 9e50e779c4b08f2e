// Correctness of the LTI propagator (thermal/lti_propagator.hpp) against
// the reference RK4 integrator: spectral stability of the compiled step map
// for every registry platform and fan state, bounded long-soak drift, and
// bit-identical RK4 fallback on fan-transition-straddling steps. The
// matvec kernel itself is pinned bit for bit against a row-major reference
// loop, on the scalar step and on the lockstep lane's bucket update. This
// file is built with -ffp-contract=off, like the kernel, so the reference
// loops below are plain multiplies and adds on every ISA.
#include "thermal/lti_propagator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

#include "sim/platform_registry.hpp"
#include "thermal/fan.hpp"
#include "thermal/floorplan.hpp"
#include "thermal/rc_network.hpp"
#include "util/matrix.hpp"

namespace dtpm::thermal {
namespace {

std::vector<double> sinusoid_power(std::size_t nodes, int k) {
  std::vector<double> power(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    power[i] = 1.0 + 0.5 * std::sin(0.01 * k + double(i));
  }
  return power;
}

/// Random connected RC network with at least one boundary node: spanning
/// tree plus extra chords, log-uniform C and G so stiffness ratios vary.
RcNetwork make_random_network(std::mt19937_64& rng) {
  std::uniform_int_distribution<int> node_count_dist(3, 12);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const int n = node_count_dist(rng);
  std::vector<ThermalNode> nodes(n);
  for (int i = 0; i < n; ++i) {
    nodes[i].name = "n" + std::to_string(i);
    nodes[i].capacitance_j_per_k = std::pow(10.0, -2.0 + 3.0 * unit(rng));
    nodes[i].initial_temp_c = 25.0 + 40.0 * unit(rng);
    nodes[i].is_boundary = false;
  }
  nodes[n - 1].is_boundary = true;  // ambient-like boundary
  std::vector<ThermalEdge> edges;
  for (int i = 1; i < n; ++i) {
    std::uniform_int_distribution<int> parent(0, i - 1);
    edges.push_back({std::size_t(parent(rng)), std::size_t(i),
                     std::pow(10.0, -1.0 + 2.0 * unit(rng))});
  }
  for (int extra = 0; extra < n / 2; ++extra) {
    std::uniform_int_distribution<int> pick(0, n - 1);
    const int a = pick(rng);
    const int b = pick(rng);
    if (a == b) continue;
    edges.push_back({std::size_t(a), std::size_t(b),
                     std::pow(10.0, -1.0 + 2.0 * unit(rng))});
  }
  return RcNetwork(std::move(nodes), std::move(edges));
}

util::Matrix phi_as_matrix(const PropagatorMatrices& m) {
  util::Matrix phi(m.free_count, m.free_count);
  for (std::size_t i = 0; i < m.free_count; ++i) {
    for (std::size_t j = 0; j < m.free_count; ++j) {
      phi(i, j) = m.phi(i, j);
    }
  }
  return phi;
}

// Every registry platform, every fan state, both construction modes: the
// one-step transition matrix must be a strict contraction (all eigenvalues
// inside the unit circle) -- the discrete-time stability condition of the
// power-temperature analysis literature.
TEST(PropagatorSpectral, RegistryPlatformsAllFanStatesInsideUnitCircle) {
  const auto& registry = sim::PlatformRegistry::instance();
  const FanSpeed speeds[] = {FanSpeed::kOff, FanSpeed::kLow, FanSpeed::kHalf,
                             FanSpeed::kFull};
  const PropagatorMode modes[] = {PropagatorMode::kRk4Map,
                                  PropagatorMode::kExpm};
  for (const std::string& name : registry.names()) {
    const sim::PlatformPtr platform = registry.get(name);
    for (PropagatorMode mode : modes) {
      for (FanSpeed speed : speeds) {
        Floorplan fp = build_floorplan(platform->floorplan);
        if (fp.has_fan_edge()) {
          fp.network.set_edge_conductance(
              fp.fan_edge, Fan(platform->fan).conductance_w_per_k(speed));
        }
        PropagatorRcModel engine(mode);
        const PropagatorMatrices& m = engine.matrices_for(fp.network, 0.01);
        ASSERT_GT(m.free_count, 0u) << name;
        const double radius = phi_as_matrix(m).spectral_radius();
        EXPECT_GT(radius, 0.0) << name << " " << to_string(speed);
        EXPECT_LT(radius, 1.0) << name << " " << to_string(speed);
      }
    }
  }
}

// Randomized topologies: the RK4-map propagator is the RK4 substep loop in
// exact arithmetic, so over a long soak against the reference integrator the
// divergence stays at floating-point rounding -- orders of magnitude inside
// the 1e-9 C/step acceptance bound.
TEST(PropagatorDrift, TenThousandStepSoakWithinBoundPerStep) {
  std::mt19937_64 rng(20260808);
  for (int trial = 0; trial < 5; ++trial) {
    RcNetwork reference = make_random_network(rng);
    RcNetwork stepped = reference;  // same topology and initial state
    PropagatorRcModel engine;
    constexpr int kSteps = 10000;
    constexpr double kPerStepBound = 1e-9;
    double max_err = 0.0;
    for (int k = 0; k < kSteps; ++k) {
      const std::vector<double> power =
          sinusoid_power(reference.node_count(), k);
      reference.step(0.01, power);
      engine.step(stepped, 0.01, power);
      for (std::size_t i = 0; i < reference.node_count(); ++i) {
        max_err = std::max(max_err, std::abs(reference.temperature_c(i) -
                                             stepped.temperature_c(i)));
      }
      ASSERT_LE(max_err, kPerStepBound * (k + 1)) << "trial " << trial;
    }
    // The accumulated drift should in fact be far below the linear bound.
    EXPECT_LE(max_err, 1e-6) << "trial " << trial;
    EXPECT_EQ(engine.fallback_steps(), 1u);
    EXPECT_EQ(engine.propagator_steps(), std::uint64_t(kSteps) - 1u);
  }
}

// The default floorplan through the propagator over a long soak: this is
// the exact plant configuration behind the golden traces.
TEST(PropagatorDrift, DefaultFloorplanSoak) {
  Floorplan reference = make_default_floorplan();
  Floorplan stepped = make_default_floorplan();
  PropagatorRcModel engine;
  double max_err = 0.0;
  for (int k = 0; k < 10000; ++k) {
    const std::vector<double> power =
        sinusoid_power(kFloorplanNodeCount, k);
    reference.network.step(0.01, power);
    engine.step(stepped.network, 0.01, power);
    for (std::size_t i = 0; i < kFloorplanNodeCount; ++i) {
      max_err = std::max(max_err, std::abs(reference.network.temperature_c(i) -
                                           stepped.network.temperature_c(i)));
    }
  }
  EXPECT_LE(max_err, 1e-8);
}

// A step in a conductance state the cache has not seen -- the step after a
// fan transition -- must run the RK4 fallback bit-identically to the
// reference, and the state must be compiled so the *next* step is a matvec.
TEST(PropagatorFallback, FanTransitionStraddlingStepIsBitIdenticalRk4) {
  Floorplan reference = make_default_floorplan();
  Floorplan stepped = make_default_floorplan();
  const Fan fan;
  PropagatorRcModel engine;
  ASSERT_TRUE(reference.has_fan_edge());

  const std::vector<double> power(kFloorplanNodeCount, 2.0);
  // Warm the fan-off state: first step is the cold-cache fallback.
  engine.step(stepped.network, 0.01, power);
  reference.network.step(0.01, power);
  EXPECT_EQ(engine.fallback_steps(), 1u);
  engine.step(stepped.network, 0.01, power);
  reference.network.step(0.01, power);
  EXPECT_EQ(engine.propagator_steps(), 1u);

  // Fan transition: the next step straddles the conductance change, takes
  // the fallback, and matches the reference bit for bit. The reference is
  // first synced to the propagator's state (the earlier matvec step differs
  // from RK4 at rounding level) so the comparison isolates this one step.
  for (std::size_t i = 0; i < kFloorplanNodeCount; ++i) {
    reference.network.set_temperature_c(i, stepped.network.temperature_c(i));
  }
  const double g_full = fan.conductance_w_per_k(FanSpeed::kFull);
  reference.network.set_edge_conductance(reference.fan_edge, g_full);
  stepped.network.set_edge_conductance(stepped.fan_edge, g_full);
  reference.network.step(0.01, power);
  engine.step(stepped.network, 0.01, power);
  EXPECT_EQ(engine.fallback_steps(), 2u);
  for (std::size_t i = 0; i < kFloorplanNodeCount; ++i) {
    EXPECT_EQ(reference.network.temperature_c(i),
              stepped.network.temperature_c(i))
        << "node " << i;
  }

  // The fan-full state is now compiled: stepping again uses the matvec.
  engine.step(stepped.network, 0.01, power);
  EXPECT_EQ(engine.fallback_steps(), 2u);
  EXPECT_EQ(engine.propagator_steps(), 2u);

  // Returning to the previously-seen fan-off state hits the cache: no
  // further fallback.
  const double g_off = fan.conductance_w_per_k(FanSpeed::kOff);
  stepped.network.set_edge_conductance(stepped.fan_edge, g_off);
  engine.step(stepped.network, 0.01, power);
  EXPECT_EQ(engine.fallback_steps(), 2u);
  EXPECT_EQ(engine.propagator_steps(), 3u);
}

// The exact-exponential mode differs from RK4 only by the integrator's own
// truncation error: small for the floorplan's time constants at dt = 10 ms.
TEST(PropagatorExpm, TracksRk4WithinTruncationError) {
  Floorplan reference = make_default_floorplan();
  Floorplan stepped = make_default_floorplan();
  PropagatorRcModel engine(PropagatorMode::kExpm);
  double max_err = 0.0;
  for (int k = 0; k < 1000; ++k) {
    const std::vector<double> power =
        sinusoid_power(kFloorplanNodeCount, k);
    reference.network.step(0.01, power);
    engine.step(stepped.network, 0.01, power);
    for (std::size_t i = 0; i < kFloorplanNodeCount; ++i) {
      max_err = std::max(max_err, std::abs(reference.network.temperature_c(i) -
                                           stepped.network.temperature_c(i)));
    }
  }
  EXPECT_LE(max_err, 1e-6);
}

/// A chain of `free_count` free nodes ending in one ambient boundary node,
/// with a few skip edges so every Phi row is dense.
RcNetwork make_chain_network(std::size_t free_count) {
  std::vector<ThermalNode> nodes(free_count + 1);
  for (std::size_t i = 0; i <= free_count; ++i) {
    nodes[i].name = "n" + std::to_string(i);
    nodes[i].capacitance_j_per_k = 0.05 + 0.1 * double(i % 5);
    nodes[i].initial_temp_c = 30.0 + 1.7 * double(i);
    nodes[i].is_boundary = i == free_count;
  }
  std::vector<ThermalEdge> edges;
  for (std::size_t i = 1; i <= free_count; ++i) {
    edges.push_back({i - 1, i, 0.2 + 0.05 * double(i % 3)});
  }
  for (std::size_t i = 2; i < free_count; i += 3) {
    edges.push_back({i - 2, i, 0.07});
  }
  return RcNetwork(std::move(nodes), std::move(edges));
}

/// The propagator step the kernel must reproduce: z = power plus the
/// boundary terms in order, then per row +0.0, the Phi terms and the Gamma
/// terms, ascending j, in the row-major order of a plain matvec loop.
std::vector<double> reference_step(const PropagatorMatrices& m,
                                   const std::vector<double>& temps,
                                   const std::vector<double>& power) {
  const std::size_t n = m.free_count;
  std::vector<double> tf(n), z(n);
  for (std::size_t i = 0; i < n; ++i) {
    tf[i] = temps[m.free_nodes[i]];
    z[i] = power[m.free_nodes[i]];
  }
  for (const PropagatorMatrices::BoundaryTerm& bt : m.boundary_terms) {
    z[bt.free_slot] += bt.g * temps[bt.boundary_node];
  }
  std::vector<double> out = temps;
  for (std::size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < n; ++j) acc += m.phi(i, j) * tf[j];
    for (std::size_t j = 0; j < n; ++j) acc += m.gamma(i, j) * z[j];
    out[m.free_nodes[i]] = acc;
  }
  return out;
}

/// Steps `network` through `engine` (after a warm-up step that compiles
/// the matrices) and checks every node against reference_step.
void expect_step_matches_reference(PropagatorRcModel& engine,
                                   RcNetwork& network,
                                   const std::string& label) {
  const std::vector<double> warm = sinusoid_power(network.node_count(), 0);
  engine.step(network, 0.01, warm);  // cold cache: the RK4 fallback
  for (int k = 1; k <= 3; ++k) {
    const std::vector<double> power = sinusoid_power(network.node_count(), k);
    const std::vector<double> expected = reference_step(
        engine.matrices_for(network, 0.01), network.temperatures_c(), power);
    const std::uint64_t before = engine.propagator_steps();
    engine.step(network, 0.01, power);
    ASSERT_EQ(engine.propagator_steps(), before + 1) << label;
    for (std::size_t i = 0; i < network.node_count(); ++i) {
      EXPECT_EQ(network.temperature_c(i), expected[i])
          << label << " step " << k << " node " << i;
    }
  }
}

// The kernel against the row-major loop, bit for bit: every registry
// platform in every fan state (the fixed-width kernel) under both
// construction modes.
TEST(PropagatorKernel, StepEqualsRowMajorReferenceOnEveryPlatformAndFanState) {
  const auto& registry = sim::PlatformRegistry::instance();
  const FanSpeed speeds[] = {FanSpeed::kOff, FanSpeed::kLow, FanSpeed::kHalf,
                             FanSpeed::kFull};
  for (const std::string& name : registry.names()) {
    const sim::PlatformPtr platform = registry.get(name);
    for (PropagatorMode mode :
         {PropagatorMode::kRk4Map, PropagatorMode::kExpm}) {
      for (FanSpeed speed : speeds) {
        Floorplan fp = build_floorplan(platform->floorplan);
        if (fp.has_fan_edge()) {
          fp.network.set_edge_conductance(
              fp.fan_edge, Fan(platform->fan).conductance_w_per_k(speed));
        }
        PropagatorRcModel engine(mode);
        expect_step_matches_reference(engine, fp.network,
                                      name + " " + to_string(speed));
      }
    }
  }
}

// Hand-built networks whose padded width (free count rounded up to 4) hits
// the fixed-width kernel (12) and the runtime-width fallback (all others).
TEST(PropagatorKernel, StepEqualsRowMajorReferenceAtEveryPaddedWidth) {
  for (std::size_t free_count : {1u, 3u, 5u, 9u, 13u, 16u, 17u, 21u}) {
    RcNetwork network = make_chain_network(free_count);
    PropagatorRcModel engine;
    const PropagatorMatrices& m = engine.matrices_for(network, 0.01);
    ASSERT_EQ(m.free_count, free_count);
    EXPECT_EQ(m.padded % 4, 0u);
    EXPECT_LT(m.padded - free_count, 4u);
    expect_step_matches_reference(engine, network,
                                  std::to_string(free_count) + " free");
  }
}

/// One lockstep bucket of `width` copies of `base` (thermal::propagate_lanes
/// over a bucket's strided columns, as the batched engine runs it) against
/// the scalar propagator stepping each copy alone, for identical inputs.
/// Every lane starts from its own temperatures and boundary (ambient)
/// temperature. The bucket sits one lane into wider SoA rows, as a
/// non-first fan-state bucket does.
void expect_bucket_matches_scalar(const RcNetwork& base, std::size_t width,
                                  const std::string& label) {
  const std::size_t nodes = base.node_count();
  const std::size_t stride = width + 2;
  const std::size_t lo = 1;
  std::vector<RcNetwork> lanes(width, base);
  std::vector<std::vector<double>> powers;
  for (std::size_t l = 0; l < width; ++l) {
    for (std::size_t i = 0; i < nodes; ++i) {
      if (lanes[l].node(i).is_boundary) {
        lanes[l].set_boundary_temperature_c(i, 20.0 + double(l));
      } else {
        lanes[l].set_temperature_c(i, 40.0 + 3.1 * double(l) + double(i));
      }
    }
    powers.push_back(sinusoid_power(nodes, int(l)));
  }
  PropagatorRcModel engine;
  const PropagatorMatrices& m = engine.matrices_for(lanes[0], 0.01);

  // [node][lane] SoA rows as the lane keeps them.
  std::vector<double> temps(nodes * stride, -1.0);
  std::vector<double> power(nodes * stride, -1.0);
  for (std::size_t l = 0; l < width; ++l) {
    for (std::size_t i = 0; i < nodes; ++i) {
      temps[i * stride + lo + l] = lanes[l].temperature_c(i);
      power[i * stride + lo + l] = powers[l][i];
    }
  }
  std::vector<double> out = temps;
  std::vector<double> scratch;
  thermal::propagate_lanes(m, &temps[lo], &power[lo], stride, width,
                           &out[lo], scratch);

  for (std::size_t l = 0; l < width; ++l) {
    engine.step(lanes[l], 0.01, powers[l]);
    for (std::size_t i = 0; i < nodes; ++i) {
      EXPECT_EQ(out[i * stride + lo + l], lanes[l].temperature_c(i))
          << label << " width " << width << " lane " << l << " node " << i;
    }
  }
  EXPECT_EQ(engine.fallback_steps(), 0u) << label;
  // Columns outside the bucket are untouched.
  for (std::size_t i = 0; i < nodes; ++i) {
    EXPECT_EQ(out[i * stride], -1.0) << label;
    EXPECT_EQ(out[i * stride + lo + width], -1.0) << label;
  }
}

// The registry floorplan (9 free nodes) at bucket widths that take the
// lane-by-lane path (1, 3), whole 4- and 8-lane tiles (4, 8, 12, 16) and
// tiles plus leftover lanes (9, 17).
TEST(PropagatorKernel, LockstepBucketEqualsScalarPropagatorPerLane) {
  const Floorplan fp = make_default_floorplan();
  for (std::size_t width : {1u, 3u, 4u, 8u, 9u, 12u, 16u, 17u}) {
    expect_bucket_matches_scalar(fp.network, width, "default floorplan");
  }
}

// Other free-node counts: 9 in another topology takes the tiles, 5 and 13
// run lane by lane at every width.
TEST(PropagatorKernel, LockstepBucketEqualsScalarAtOtherFreeCounts) {
  for (std::size_t free_count : {5u, 9u, 13u}) {
    const RcNetwork network = make_chain_network(free_count);
    for (std::size_t width : {4u, 9u}) {
      expect_bucket_matches_scalar(network, width,
                                   std::to_string(free_count) + " free");
    }
  }
}

// Validation parity with RcNetwork::step.
TEST(PropagatorErrors, RejectsBadArguments) {
  Floorplan fp = make_default_floorplan();
  PropagatorRcModel engine;
  const std::vector<double> short_power(kFloorplanNodeCount - 1, 1.0);
  EXPECT_THROW(engine.step(fp.network, 0.01, short_power),
               std::invalid_argument);
  const std::vector<double> power(kFloorplanNodeCount, 1.0);
  EXPECT_THROW(engine.step(fp.network, 0.0, power), std::invalid_argument);
  EXPECT_THROW(engine.step(fp.network, -1.0, power), std::invalid_argument);
  EXPECT_THROW(engine.matrices_for(fp.network, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace dtpm::thermal
