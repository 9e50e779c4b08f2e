// Deterministic random number generation for reproducible simulations.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>

namespace dtpm::util {

/// MT19937-64 (Matsumoto & Nishimura): the seeding, twist and tempering of
/// std::mt19937_64, so it emits the same word stream from the same seed.
/// The twist selects the matrix term with the mask 0 - (y & 1) instead of
/// libstdc++'s branch on y's low bit -- a coin flip per word that the
/// branch predictor loses half the time. A UniformRandomBitGenerator with
/// min() 0 and max() 2^64 - 1, so the standard distributions consume it
/// exactly as they consume std::mt19937_64.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;

  explicit Mt19937_64(result_type seed = 5489u) {
    state_[0] = seed;
    for (std::size_t i = 1; i < kN; ++i) {
      const result_type prev = state_[i - 1];
      state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
    }
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (index_ >= kN) refill();
    result_type z = state_[index_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    z ^= z >> 43;
    return z;
  }

 private:
  static constexpr std::size_t kN = 312;
  static constexpr std::size_t kM = 156;
  static constexpr result_type kUpper = ~result_type{0} << 31;
  static constexpr result_type kLower = ~kUpper;

  static result_type twist(result_type cur, result_type next,
                           result_type far) {
    const result_type y = (cur & kUpper) | (next & kLower);
    const result_type odd = result_type{0} - (y & 1);  // all ones or zero
    return far ^ (y >> 1) ^ (odd & 0xb5026f5aa96619e9ULL);
  }

  /// Regenerates all kN words; once per kN draws, kept out of the inlined
  /// draw path.
  [[gnu::noinline]] void refill() {
    std::size_t k = 0;
    for (; k < kN - kM; ++k) {
      state_[k] = twist(state_[k], state_[k + 1], state_[k + kM]);
    }
    for (; k < kN - 1; ++k) {
      state_[k] = twist(state_[k], state_[k + 1], state_[k + kM - kN]);
    }
    state_[kN - 1] = twist(state_[kN - 1], state_[0], state_[kM - 1]);
    index_ = 0;
  }

  result_type state_[kN];
  std::size_t index_ = kN;
};

/// The double nearest to `w`, rounded once: both 32-bit halves convert
/// exactly through the signed conversion and their sum rounds once. Equal
/// to double(w), without the branch on w's (random) top bit that an
/// unsigned conversion costs on generic x86-64.
inline double word_to_double(std::uint64_t w) {
  return double(std::int64_t(w >> 32)) * 4294967296.0 +  // 2^32
         double(std::int64_t(w & 0xffffffffULL));
}

/// std::generate_canonical<double, 53> of one 64-bit engine word: the word
/// scaled into [0, 1), clamped below 1 exactly as libstdc++ does when the
/// word rounds up to 2^64.
inline double canonical_from_word(std::uint64_t w) {
  constexpr double kTwo64 = 18446744073709551616.0;  // 2^64
  constexpr double kBelowOne = 1.0 - 0x1p-53;  // nextafter(1.0, 0.0)
  return std::min(word_to_double(w) / kTwo64, kBelowOne);
}

/// Thin wrapper over a Mt19937_64 (word-identical to std::mt19937_64) with
/// convenience draws. Every stochastic component in the library takes an
/// explicit Rng (or a seed) so that whole experiments replay bit-identically;
/// there is no hidden global state.
///
/// gaussian() is a hand-rolled Marsaglia polar transform that reproduces,
/// bit for bit, the sequence a fresh libstdc++ std::normal_distribution
/// produces per call -- the sequence every golden trace was recorded
/// against. Hand-rolling it buys two things over the standard distribution
/// object: the second deviate of each polar pair is exposed through
/// gaussian_pair() (one log+sqrt per TWO deviates for callers whose draw
/// sequence is not replay-pinned), and util/vgauss.hpp can batch-fill noise
/// vectors through one tight loop instead of a distribution object per
/// draw. The bit-compat contract is pinned by tests/test_rng_gaussian.cpp.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eed5eedULL) : engine_(seed) {}

  /// Uniform double in [lo, hi): libstdc++'s
  /// std::uniform_real_distribution<double> formula, operation for operation.
  double uniform(double lo = 0.0, double hi = 1.0) {
    return canonical() * (hi - lo) + lo;
  }

  /// Gaussian with the given mean and standard deviation. stddev <= 0
  /// returns the mean without consuming the engine (a degenerate sensor is
  /// noise-free, and must not perturb the stream other draws replay from).
  double gaussian(double mean = 0.0, double stddev = 1.0) {
    if (stddev <= 0.0) return mean;
    double x, y, mult;
    polar_core(x, y, mult);
    return y * mult * stddev + mean;
  }

  /// Draws one polar pair and returns BOTH deviates: `first` is exactly the
  /// value gaussian() would have returned from the same engine state (and
  /// consumes the same engine draws); `second` is the companion deviate the
  /// per-call path throws away. Callers whose sequence is not pinned to
  /// golden traces get two deviates for one log+sqrt.
  void gaussian_pair(double mean, double stddev, double& first,
                     double& second) {
    if (stddev <= 0.0) {
      first = mean;
      second = mean;
      return;
    }
    double x, y, mult;
    polar_core(x, y, mult);
    first = y * mult * stddev + mean;
    second = x * mult * stddev + mean;
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Bernoulli draw with probability p of true (std::bernoulli_distribution's
  /// one-word comparison).
  bool bernoulli(double p) { return canonical() < p; }

  /// Derives an independent child stream; used to give each subsystem its own
  /// stream so adding draws to one does not perturb another.
  Rng fork() { return Rng(engine_() ^ 0x9e3779b97f4a7c15ULL); }

  Mt19937_64& engine() { return engine_; }

 private:
  /// One draw of std::generate_canonical<double, 53>(engine_).
  double canonical() { return canonical_from_word(engine_()); }

  /// Marsaglia polar rejection core, operation for operation the libstdc++
  /// std::normal_distribution one (bits/random.tcc), so the engine stream
  /// advances identically.
  void polar_core(double& x, double& y, double& mult) {
    double r2;
    do {
      x = 2.0 * canonical() - 1.0;
      y = 2.0 * canonical() - 1.0;
      r2 = x * x + y * y;
    } while (r2 > 1.0 || r2 == 0.0);
    mult = std::sqrt(-2.0 * std::log(r2) / r2);
  }

  Mt19937_64 engine_;
};

}  // namespace dtpm::util
