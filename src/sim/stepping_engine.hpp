// The plant stepping-engine knob: which integrator advances the RC thermal
// network inside Plant::advance. All three engines run the same physics;
// they differ in how the per-substep work is executed.
//
//   * reference-rk4: the per-substep RK4 loop (RcNetwork::step). The
//     bit-exact baseline that the golden traces pin.
//   * propagator: the cached exact LTI propagator
//     (thermal::PropagatorRcModel) -- one matvec per substep, falling back
//     to RK4 on steps that straddle a fan transition. Tracks the reference
//     to floating-point rounding.
//   * batched: the structure-of-arrays batch lane. Same-physics runs in a
//     BatchRunner wave step in lockstep through shared propagator matrices
//     and a vectorized power model; a standalone run selecting `batched`
//     behaves as `propagator`. Lane arithmetic may differ from the scalar
//     engines at ulp level (documented deviation).
//
// Lives in its own header (not sim/config.hpp) so the Plant layer can name
// the engine without pulling in the whole experiment-configuration surface.
#pragma once

#include <optional>
#include <string>
#include <vector>

namespace dtpm::sim {

enum class Engine {
  kReferenceRk4,  ///< per-substep RK4 loop (golden-trace baseline)
  kPropagator,    ///< cached LTI propagator, one matvec per substep
  kBatched,       ///< propagator + structure-of-arrays lanes across a batch
};

/// Selection name of the enumerator ("reference-rk4", "propagator",
/// "batched").
const char* to_string(Engine e);

/// Inverse of to_string; throws std::invalid_argument (with the valid names
/// and a nearest-match suggestion) on an unknown name.
Engine parse_engine(const std::string& name);

/// Like parse_engine, but returns nullopt instead of throwing.
std::optional<Engine> try_parse_engine(const std::string& name);

/// The selectable engine names, in enumerator order.
const std::vector<std::string>& engine_names();

}  // namespace dtpm::sim
