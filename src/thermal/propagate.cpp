// The propagator thermal update (declared in thermal/lti_propagator.hpp):
// the x = [T_free; z] gather, the matvec kernel and the scatter, for the
// scalar step and the batch lanes alike. Built with -ffp-contract=off --
// and, under DTPM_NATIVE_BATCH_KERNEL, with -march=native -- so every sum
// below is plain multiplies and adds on every ISA: wider vectors change
// the speed, never the bits.
#include "thermal/lti_propagator.hpp"

#include <cstring>

namespace dtpm::thermal {

namespace {

/// Padded width of every registry platform (9 free nodes), the one width
/// that gets a fixed-size kernel.
constexpr std::size_t kFixedRows = 12;

/// Free-node count of every registry platform, the one count whose buckets
/// run in lane tiles (one register accumulator per free row).
constexpr std::size_t kTileRows = 9;

/// Lane tiles: one lane per vector element.
typedef double Lanes8 __attribute__((vector_size(8 * sizeof(double))));
typedef double Lanes4 __attribute__((vector_size(4 * sizeof(double))));

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

/// One tile of the lanes [l, l + lanes of V): x column c of lane l is
/// rows[c][l]. The block is swept column by column with one accumulator
/// per free row, each a vector of the tile's lanes, so every lane's sum is
/// +0.0, then the Phi terms, then the Gamma terms in ascending j -- the
/// order propagate() keeps for one lane. Results go straight to the tile's
/// slice of each free node's row of `temps_out`.
template <typename V>
void propagate_tile(const PropagatorMatrices& m, const double* const* rows,
                    std::size_t l, double* temps_out, std::size_t stride) {
  const double* block = m.block.data();
  const std::size_t* free_nodes = m.free_nodes.data();
  const std::size_t padded = m.padded;
  V acc[kTileRows];
  for (std::size_t r = 0; r < kTileRows; ++r) acc[r] = V{};
  for (std::size_t c = 0; c < 2 * kTileRows; ++c) {
    V xc;
    std::memcpy(&xc, rows[c] + l, sizeof(V));
    const double* col = block + c * padded;
    for (std::size_t r = 0; r < kTileRows; ++r) acc[r] += col[r] * xc;
  }
  for (std::size_t r = 0; r < kTileRows; ++r) {
    std::memcpy(temps_out + free_nodes[r] * stride + l, &acc[r], sizeof(V));
  }
}

/// The lanes [0, width) of a tileable bucket (width a multiple of 4) in 8-
/// and 4-lane tiles. x = [T_free; z] is read in place from the SoA rows,
/// except the z rows that take boundary terms: those are built in `z`
/// (kTileRows rows of `width`) before any lane is written, so `temps_out`
/// may alias `temps`.
void propagate_tiles(const PropagatorMatrices& m, const double* temps,
                     const double* power, std::size_t stride,
                     std::size_t width, double* temps_out, double* z) {
  const std::size_t n = kTileRows;
  const double* rows[2 * kTileRows];
  for (std::size_t j = 0; j < n; ++j) {
    rows[j] = temps + m.free_nodes[j] * stride;
    rows[n + j] = power + m.free_nodes[j] * stride;
  }
  for (const PropagatorMatrices::BoundaryTerm& bt : m.boundary_terms) {
    // z = power, then += g * T_boundary per term in order: the first term
    // reads the power row, later ones the z row built so far.
    double* zr = z + bt.free_slot * width;
    const double* src = rows[n + bt.free_slot];
    const double* tb = temps + bt.boundary_node * stride;
    for (std::size_t l = 0; l < width; ++l) zr[l] = src[l] + bt.g * tb[l];
    rows[n + bt.free_slot] = zr;
  }
  std::size_t l = 0;
  for (; l + 8 <= width; l += 8) {
    propagate_tile<Lanes8>(m, rows, l, temps_out, stride);
  }
  if (l < width) propagate_tile<Lanes4>(m, rows, l, temps_out, stride);
}

}  // namespace

void propagate_lanes(const PropagatorMatrices& m, const double* temps,
                     const double* power, std::size_t stride,
                     std::size_t width, double* temps_out,
                     std::vector<double>& scratch) {
  const std::size_t n = m.free_count;
  // Sized by the stride (the whole wave), not this bucket's width, so a
  // wave's first bucket already reaches the high-water mark.
  scratch.resize(3 * n + n * stride);
  double* x = scratch.data();
  double* z = x + n;
  double* out = x + 2 * n;
  std::size_t tiled = 0;
  if (n == kTileRows && width >= 4) {
    tiled = width & ~std::size_t{3};
    propagate_tiles(m, temps, power, stride, tiled, temps_out, x + 3 * n);
  }
  const std::size_t* free_nodes = m.free_nodes.data();
  for (std::size_t l = tiled; l < width; ++l) {
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
