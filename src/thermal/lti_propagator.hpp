// Exact discrete-time propagator for the RC thermal network.
//
// Between conductance changes (fan actuation) the network is LTI: with the
// free-node temperatures stacked as T and the per-step heat input as z
// (injected power plus boundary coupling, both constant within a step),
//
//     dT/dt = A T + D z,   A_ij = g_ij / C_i,  A_ii = -(sum_j g_ij) / C_i,
//                          D = diag(1 / C_i),
//
// so the whole internally-subdivided RK4 substep loop of a fixed-dt step
// collapses to one affine map  T' = Phi T + Gamma z.  PropagatorRcModel
// precomputes (Phi, Gamma) per distinct (dt, conductance state), caches them
// keyed on CompiledRcModel's conductance epoch, and replaces the per-step
// stage sweeps with a single matvec -- propagate_lanes(), the one routine
// both the scalar step and the batch lanes (sim/batch_lane.hpp) run.
//
// Two construction modes:
//
//   * kRk4Map (default): Phi/Gamma are built by repeated squaring of the
//     exact one-substep RK4 affine map (R = I + hA + (hA)^2/2 + (hA)^3/6 +
//     (hA)^4/24, S = h(I + hA/2 + (hA)^2/6 + (hA)^3/24), composed over the
//     same substep count CompiledRcModel::step would use). In exact
//     arithmetic this IS the RK4 loop, so the propagator tracks the
//     reference integrator to floating-point rounding (~1e-13 C/step) --
//     the bounded-error mode.
//   * kExpm: Phi = expm(A dt) and Gamma = integral_0^dt expm(A s) ds * D via
//     scaling-and-squaring on the augmented matrix [[A, D], [0, 0]] (handles
//     boundary-free, hence singular-A, networks). Exact for the continuous
//     dynamics; differs from RK4 by the integrator's own truncation error.
//
// Steps whose (dt, conductance state) pair has no cached matrices -- the
// first step after construction and the first step after a fan transition --
// fall back to the bit-identical RK4 path (RcNetwork::step) and build the
// matrices for subsequent steps; propagator_steps()/fallback_steps() expose
// which path ran.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dtpm::thermal {

class RcNetwork;

enum class PropagatorMode {
  kRk4Map,  ///< repeated-squaring of the RK4 substep map (bounded error)
  kExpm,    ///< true matrix exponential (exact continuous-time propagator)
};

/// One compiled (dt, conductance state) propagator: the affine step map and
/// the boundary-coupling pattern needed to form z. Shared read-only by the
/// scalar step path and the structure-of-arrays batch lanes.
struct PropagatorMatrices {
  std::size_t free_count = 0;
  /// Column stride of `block`: free_count rounded up to a multiple of 4.
  std::size_t padded = 0;
  std::vector<std::size_t> free_nodes;  ///< dense slot -> node index
  /// The fused step map [Phi | Gamma] (Gamma maps W), column-major: column
  /// j < free_count is Phi(:, j), column free_count + j is Gamma(:, j),
  /// each `padded` doubles long with zero padding rows.
  std::vector<double> block;
  /// z[slot] += g * temps[boundary_node] terms, in ascending edge order.
  struct BoundaryTerm {
    std::size_t free_slot;
    std::size_t boundary_node;
    double g;
  };
  std::vector<BoundaryTerm> boundary_terms;

  double phi(std::size_t i, std::size_t j) const {
    return block[j * padded + i];
  }
  double gamma(std::size_t i, std::size_t j) const {
    return block[(free_count + j) * padded + i];
  }
};

/// The propagator thermal update of `width` lane columns. `temps`,
/// `power` and `temps_out` are [node][lane] rows of stride `stride`, each
/// pointer already offset to the first lane; a scalar network is one lane
/// (stride 1, width 1). Per lane it gathers x = [T_free; z] -- z = the free
/// nodes' power, plus the boundary terms in order -- and writes
/// Phi * T_free + Gamma * z to the lane's free-node rows of `temps_out`
/// (boundary rows are left alone). The matvec sweeps the fused block column
/// by column with one accumulator per row; each row's sum is +0.0, then the
/// Phi terms, then the Gamma terms, both in ascending j, with no fused
/// multiply-add (the translation unit is built with -ffp-contract=off), so
/// every lane is bit-identical to the row-major loop on every ISA. Buckets
/// of 4+ lanes of a 9-free-node network run in 8- and 4-lane tiles (one
/// vector accumulator per row, a lane per element); leftover lanes, narrow
/// buckets and other networks run lane by lane. Both give the same bits.
/// `temps_out` may alias `temps`: a lane's x is gathered before its column
/// is written. `scratch` is resized to (3 + stride) * free_count (no
/// allocation once it has that size).
void propagate_lanes(const PropagatorMatrices& m, const double* temps,
                     const double* power, std::size_t stride,
                     std::size_t width, double* temps_out,
                     std::vector<double>& scratch);

/// Caching discrete-time stepping engine over an RcNetwork. Not
/// thread-safe; every network handed to step()/matrices_for() must share
/// the topology of the first one seen and outlive this object (the
/// signature memo is keyed on the compiled model's address + epoch).
class PropagatorRcModel {
 public:
  explicit PropagatorRcModel(PropagatorMode mode = PropagatorMode::kRk4Map)
      : mode_(mode) {}

  PropagatorMode mode() const { return mode_; }

  /// Advances `network` by dt_s. Cache hit: one matvec. Cache miss (first
  /// sight of this dt + conductance state): advances through the
  /// bit-identical RK4 path and compiles + caches the matrices for
  /// subsequent steps. @throws std::invalid_argument on non-positive dt or
  /// a power vector size mismatch (same conditions as RcNetwork::step).
  void step(RcNetwork& network, double dt_s,
            const std::vector<double>& power_w);

  /// The cached matrices for the network's current conductance state and
  /// dt, compiling them on first sight (without advancing any state). The
  /// reference stays valid until the cache evicts the entry (bounded FIFO;
  /// do not hold it across unrelated step()/matrices_for() calls).
  const PropagatorMatrices& matrices_for(const RcNetwork& network,
                                         double dt_s);

  /// Steps taken through the cached-matvec path.
  std::uint64_t propagator_steps() const { return propagator_steps_; }
  /// Steps taken through the RK4 fallback (cache-miss) path.
  std::uint64_t fallback_steps() const { return fallback_steps_; }

 private:
  struct Entry {
    double dt_s = 0.0;
    std::uint64_t signature = 0;
    PropagatorMatrices m;
  };

  /// Value signature of the network's current conductance state (FNV-1a
  /// over the edge-conductance bit patterns), memoized per (compiled model,
  /// epoch) so the hot path never rehashes an unchanged network.
  std::uint64_t signature_of(const RcNetwork& network);
  Entry& entry_for(const RcNetwork& network, double dt_s);
  static PropagatorMatrices compile(const RcNetwork& network, double dt_s,
                                    PropagatorMode mode);

  PropagatorMode mode_;
  std::vector<Entry> cache_;  ///< FIFO-bounded (fan states x dt values)
  std::size_t next_evict_ = 0;

  const void* memo_model_ = nullptr;
  std::uint64_t memo_epoch_ = 0;
  std::uint64_t memo_signature_ = 0;
  bool memo_valid_ = false;

  std::uint64_t propagator_steps_ = 0;
  std::uint64_t fallback_steps_ = 0;

  // step()'s propagate_lanes scratch (no allocation on the hot path).
  std::vector<double> x_;
};

}  // namespace dtpm::thermal
