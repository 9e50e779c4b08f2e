#include "thermal/lti_propagator.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "thermal/rc_network.hpp"
#include "util/matrix.hpp"

namespace dtpm::thermal {

namespace {

/// Entries alive at once: fan speed levels x the (usually one) step dt.
constexpr std::size_t kCacheCapacity = 16;

std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t value) {
  constexpr std::uint64_t kPrime = 1099511628211ull;
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xffu;
    hash *= kPrime;
  }
  return hash;
}

std::uint64_t bits_of(double v) {
  std::uint64_t out;
  std::memcpy(&out, &v, sizeof(out));
  return out;
}

/// expm(W) by scaling-and-squaring with a Taylor series on the scaled
/// matrix. W is small (2 x free node count) and, for RC networks, mildly
/// normed once scaled, so ~20 terms reach full double precision.
util::Matrix expm(const util::Matrix& w) {
  const std::size_t n = w.rows();
  // Infinity norm (max absolute row sum).
  double norm = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    double row = 0.0;
    for (std::size_t c = 0; c < n; ++c) row += std::abs(w(r, c));
    norm = std::max(norm, row);
  }
  int squarings = 0;
  double scale = 1.0;
  while (norm * scale > 0.5) {
    scale *= 0.5;
    ++squarings;
  }
  const util::Matrix ws = w * scale;
  util::Matrix result = util::Matrix::identity(n);
  util::Matrix term = util::Matrix::identity(n);
  for (int k = 1; k <= 20; ++k) {
    term = term * ws * (1.0 / double(k));
    result += term;
  }
  for (int s = 0; s < squarings; ++s) result = result * result;
  return result;
}

/// The exact affine map of one RK4 substep on dT/dt = A T + c:
///   T' = R T + S c,  R = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24,
///                    S = h (I + hA/2 + (hA)^2/6 + (hA)^3/24).
void rk4_substep_map(const util::Matrix& a, double h, util::Matrix& r_out,
                     util::Matrix& s_out) {
  const std::size_t n = a.rows();
  const util::Matrix ha = a * h;
  const util::Matrix ha2 = ha * ha;
  const util::Matrix ha3 = ha2 * ha;
  const util::Matrix ha4 = ha3 * ha;
  r_out = util::Matrix::identity(n);
  r_out += ha;
  r_out += ha2 * (1.0 / 2.0);
  r_out += ha3 * (1.0 / 6.0);
  r_out += ha4 * (1.0 / 24.0);
  s_out = util::Matrix::identity(n);
  s_out += ha * (1.0 / 2.0);
  s_out += ha2 * (1.0 / 6.0);
  s_out += ha3 * (1.0 / 24.0);
  s_out = s_out * h;
}

/// Composes affine maps: applying (p1, g1) then (p2, g2) is
/// (p2 p1, p2 g1 + g2).
void compose(const util::Matrix& p2, const util::Matrix& g2, util::Matrix& p,
             util::Matrix& g) {
  g = p2 * g + g2;
  p = p2 * p;
}

}  // namespace

std::uint64_t PropagatorRcModel::signature_of(const RcNetwork& network) {
  const CompiledRcModel& model = network.compiled();
  if (memo_valid_ && memo_model_ == &model &&
      memo_epoch_ == model.conductance_epoch()) {
    return memo_signature_;
  }
  std::uint64_t hash = 1469598103934665603ull;  // FNV offset basis
  hash = fnv1a(hash, model.edge_count());
  for (std::size_t e = 0; e < model.edge_count(); ++e) {
    hash = fnv1a(hash, bits_of(model.edge_conductance(e)));
  }
  memo_model_ = &model;
  memo_epoch_ = model.conductance_epoch();
  memo_signature_ = hash;
  memo_valid_ = true;
  return hash;
}

PropagatorMatrices PropagatorRcModel::compile(const RcNetwork& network,
                                              double dt_s,
                                              PropagatorMode mode) {
  const CompiledRcModel& model = network.compiled();
  PropagatorMatrices out;
  out.free_nodes = model.free_nodes();
  const std::size_t n = out.free_nodes.size();
  out.free_count = n;
  if (n == 0) return out;

  // Dense free slot lookup (node -> slot, or npos).
  constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);
  std::vector<std::size_t> slot(model.node_count(), kNoSlot);
  for (std::size_t fi = 0; fi < n; ++fi) slot[out.free_nodes[fi]] = fi;

  // Continuous dynamics on the free nodes: dT/dt = A T + D z with z the
  // injected power plus boundary coupling (assembled per step from the live
  // boundary temperatures, so furnace re-pinning needs no recompile).
  util::Matrix a(n, n);
  for (std::size_t e = 0; e < model.edge_count(); ++e) {
    const std::size_t na = model.edge_node_a(e);
    const std::size_t nb = model.edge_node_b(e);
    const double g = model.edge_conductance(e);
    const std::size_t sa = slot[na];
    const std::size_t sb = slot[nb];
    if (sa != kNoSlot) {
      const double g_over_c = g / model.capacitance_j_per_k(na);
      a(sa, sa) -= g_over_c;
      if (sb != kNoSlot) a(sa, sb) += g_over_c;
    }
    if (sb != kNoSlot) {
      const double g_over_c = g / model.capacitance_j_per_k(nb);
      a(sb, sb) -= g_over_c;
      if (sa != kNoSlot) a(sb, sa) += g_over_c;
    }
    if (sa != kNoSlot && sb == kNoSlot) {
      out.boundary_terms.push_back({sa, nb, g});
    } else if (sb != kNoSlot && sa == kNoSlot) {
      out.boundary_terms.push_back({sb, na, g});
    }
  }

  util::Matrix phi, gamma;
  if (mode == PropagatorMode::kRk4Map) {
    // The substep subdivision CompiledRcModel::step uses for this dt, so the
    // map is the composition of exactly the substeps the RK4 loop takes.
    const unsigned substeps = model.substeps_for(dt_s);
    const double h = dt_s / double(substeps);
    util::Matrix r, s;
    rk4_substep_map(a, h, r, s);
    // Fold D into the substep input map: z arrives in W.
    util::Matrix g1(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      const double inv_c =
          1.0 / model.capacitance_j_per_k(out.free_nodes[i]);
      for (std::size_t j = 0; j < n; ++j) g1(j, i) = s(j, i) * inv_c;
    }
    // Square-and-multiply composition over the substep count.
    phi = util::Matrix::identity(n);
    gamma = util::Matrix(n, n);
    util::Matrix base_p = r, base_g = g1;
    unsigned m = substeps;
    while (m > 0) {
      if (m & 1u) compose(base_p, base_g, phi, gamma);
      m >>= 1u;
      if (m > 0) compose(base_p, base_g, base_p, base_g);
    }
  } else {
    // Augmented-matrix exponential: exp([[A, D], [0, 0]] dt) =
    // [[Phi, Gamma], [0, I]]; handles singular A (no boundary node).
    util::Matrix w(2 * n, 2 * n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) w(i, j) = a(i, j) * dt_s;
      w(i, n + i) =
          dt_s / model.capacitance_j_per_k(out.free_nodes[i]);
    }
    const util::Matrix e = expm(w);
    phi = util::Matrix(n, n);
    gamma = util::Matrix(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        phi(i, j) = e(i, j);
        gamma(i, j) = e(i, n + j);
      }
    }
  }

  out.padded = (n + 3) / 4 * 4;
  out.block.assign(2 * n * out.padded, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    double* phi_col = &out.block[j * out.padded];
    double* gamma_col = &out.block[(n + j) * out.padded];
    for (std::size_t i = 0; i < n; ++i) {
      phi_col[i] = phi(i, j);
      gamma_col[i] = gamma(i, j);
    }
  }
  return out;
}

PropagatorRcModel::Entry& PropagatorRcModel::entry_for(
    const RcNetwork& network, double dt_s) {
  const std::uint64_t sig = signature_of(network);
  for (Entry& e : cache_) {
    if (e.dt_s == dt_s && e.signature == sig) return e;
  }
  Entry entry;
  entry.dt_s = dt_s;
  entry.signature = sig;
  entry.m = compile(network, dt_s, mode_);
  if (cache_.size() < kCacheCapacity) {
    cache_.push_back(std::move(entry));
    return cache_.back();
  }
  cache_[next_evict_] = std::move(entry);
  Entry& slot = cache_[next_evict_];
  next_evict_ = (next_evict_ + 1) % kCacheCapacity;
  return slot;
}

const PropagatorMatrices& PropagatorRcModel::matrices_for(
    const RcNetwork& network, double dt_s) {
  if (dt_s <= 0.0) {
    throw std::invalid_argument("PropagatorRcModel: dt must be > 0");
  }
  return entry_for(network, dt_s).m;
}

void PropagatorRcModel::step(RcNetwork& network, double dt_s,
                             const std::vector<double>& power_w) {
  if (dt_s <= 0.0) {
    throw std::invalid_argument("PropagatorRcModel::step: dt must be > 0");
  }
  if (power_w.size() != network.node_count()) {
    throw std::invalid_argument(
        "PropagatorRcModel::step: power vector size mismatch");
  }
  const std::uint64_t sig = signature_of(network);
  const PropagatorMatrices* m = nullptr;
  for (const Entry& e : cache_) {
    if (e.dt_s == dt_s && e.signature == sig) {
      m = &e.m;
      break;
    }
  }
  if (m == nullptr) {
    // First sight of this (dt, conductance state) -- e.g. the step after a
    // fan transition. Advance through the bit-identical RK4 path and
    // compile the matrices so the next such step is one matvec.
    ++fallback_steps_;
    network.step(dt_s, power_w);
    entry_for(network, dt_s);
    return;
  }

  ++propagator_steps_;
  double* temps = network.temperatures_mut().data();
  propagate_lanes(*m, temps, power_w.data(), 1, 1, temps, x_);
}

}  // namespace dtpm::thermal
