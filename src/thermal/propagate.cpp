// The propagator thermal update (declared in thermal/lti_propagator.hpp):
// the x = [T_free; z] gather, the matvec kernel and the scatter, for the
// scalar step and the batch lanes alike. Built with -ffp-contract=off --
// and, under DTPM_NATIVE_BATCH_KERNEL, with -march=native -- so every sum
// below is plain multiplies and adds on every ISA: wider vectors change
// the speed, never the bits.
#include "thermal/lti_propagator.hpp"

namespace dtpm::thermal {

namespace {

/// Padded width of every registry platform (9 free nodes), the one width
/// that gets a fixed-size kernel.
constexpr std::size_t kFixedRows = 12;

/// Column sweep over a block whose columns are kRows doubles: the kRows
/// accumulators stay in vector registers for the whole sweep. Kept out of
/// line: inlined, GCC 12 unrolls the row loop into scalar code instead of
/// vectorizing it (about 1.6x slower per lane on an AVX-512 x86-64 host).
template <std::size_t kRows>
[[gnu::noinline]] void propagate_fixed(const double* block, std::size_t cols,
                                       std::size_t n, const double* x,
                                       double* out) {
  double acc[kRows];
  for (std::size_t r = 0; r < kRows; ++r) acc[r] = 0.0;
  for (std::size_t c = 0; c < cols; ++c) {
    const double xc = x[c];
    const double* col = block + c * kRows;
    for (std::size_t r = 0; r < kRows; ++r) acc[r] += col[r] * xc;
  }
  for (std::size_t r = 0; r < n; ++r) out[r] = acc[r];
}

/// The same sweep at a runtime column stride, accumulating in `out`.
void propagate_any(const double* block, std::size_t cols, std::size_t n,
                   std::size_t padded, const double* x, double* out) {
  for (std::size_t r = 0; r < n; ++r) out[r] = 0.0;
  for (std::size_t c = 0; c < cols; ++c) {
    const double xc = x[c];
    const double* col = block + c * padded;
    for (std::size_t r = 0; r < n; ++r) out[r] += col[r] * xc;
  }
}

/// out = Phi * x[0, n) + Gamma * x[n, 2n): each row's sum is +0.0, then
/// the Phi terms, then the Gamma terms, both in ascending j.
void propagate(const PropagatorMatrices& m, const double* x, double* out) {
  const double* block = m.block.data();
  const std::size_t n = m.free_count;
  if (m.padded == kFixedRows) {
    propagate_fixed<kFixedRows>(block, 2 * n, n, x, out);
  } else {
    propagate_any(block, 2 * n, n, m.padded, x, out);
  }
}

}  // namespace

void propagate_lanes(const PropagatorMatrices& m, const double* temps,
                     const double* power, std::size_t stride,
                     std::size_t width, double* temps_out,
                     std::vector<double>& scratch) {
  const std::size_t n = m.free_count;
  scratch.resize(3 * n);
  double* x = scratch.data();
  double* z = x + n;
  double* out = x + 2 * n;
  const std::size_t* free_nodes = m.free_nodes.data();
  for (std::size_t l = 0; l < width; ++l) {
    for (std::size_t j = 0; j < n; ++j) {
      x[j] = temps[free_nodes[j] * stride + l];
      z[j] = power[free_nodes[j] * stride + l];
    }
    for (const PropagatorMatrices::BoundaryTerm& bt : m.boundary_terms) {
      z[bt.free_slot] += bt.g * temps[bt.boundary_node * stride + l];
    }
    propagate(m, x, out);
    for (std::size_t i = 0; i < n; ++i) {
      temps_out[free_nodes[i] * stride + l] = out[i];
    }
  }
}

}  // namespace dtpm::thermal
