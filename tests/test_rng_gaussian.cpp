// Pins util::Rng to the libstdc++ sequences the golden traces were
// recorded against. The branchless Mt19937_64 must emit std::mt19937_64's
// words, and every Rng draw must equal the same standard call made through
// a std::mt19937_64. The hand-rolled gaussian() in particular must match a
// fresh std::normal_distribution per call over the same engine:
// bit-identical deviates AND a bit-identical engine state afterwards,
// across means, stddevs and long interleaved sequences. If this ever fails
// on a new standard library, the golden traces -- not this implementation
// -- are what changed meaning.
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <type_traits>

#include "util/vgauss.hpp"

namespace dtpm::util {
namespace {

// A UniformRandomBitGenerator with std::mt19937_64's range, so the standard
// distributions take the same code path over it.
static_assert(std::is_same_v<Mt19937_64::result_type, std::uint64_t>);
static_assert(Mt19937_64::min() == std::mt19937_64::min());
static_assert(Mt19937_64::max() == std::mt19937_64::max());
static_assert(Mt19937_64::max() == std::numeric_limits<std::uint64_t>::max());

constexpr std::uint64_t kSeeds[] = {0, 1, 42,
                                    std::numeric_limits<std::uint64_t>::max()};

TEST(MtEngine, WordsEqualTheStandardEngineOverFiveRefills) {
  // 312 words per refill: 1600 words cross five twists.
  for (std::uint64_t seed : kSeeds) {
    Mt19937_64 engine(seed);
    std::mt19937_64 reference(seed);
    for (int i = 0; i < 1600; ++i) {
      ASSERT_EQ(engine(), reference()) << "seed " << seed << " word " << i;
    }
  }
}

TEST(MtEngine, DefaultSeedMatchesTheStandardEngine) {
  Mt19937_64 engine;
  std::mt19937_64 reference;
  for (int i = 0; i < 400; ++i) ASSERT_EQ(engine(), reference()) << i;
}

TEST(Rng, DrawsEqualTheStandardCallsOverTheStandardEngine) {
  for (std::uint64_t seed : kSeeds) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    std::mt19937_64 reference(seed);
    // Interleaved, long enough to cross several refills.
    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ(rng.uniform(-2.0, 3.0),
                std::uniform_real_distribution<double>(-2.0, 3.0)(reference))
          << i;
      ASSERT_EQ(rng.uniform_int(-5, 1000),
                std::uniform_int_distribution<std::int64_t>(-5, 1000)(
                    reference))
          << i;
      ASSERT_EQ(rng.bernoulli(0.3),
                std::bernoulli_distribution(0.3)(reference))
          << i;
      ASSERT_EQ(rng.gaussian(1.0, 0.5),
                std::normal_distribution<double>(1.0, 0.5)(reference))
          << i;
    }
    // A fork seeds its child from the next word, and the child's stream is
    // the standard engine's stream from that seed.
    Rng child = rng.fork();
    std::mt19937_64 reference_child(reference() ^ 0x9e3779b97f4a7c15ULL);
    for (int i = 0; i < 700; ++i) {
      ASSERT_EQ(child.engine()(), reference_child()) << i;
    }
    ASSERT_EQ(rng.engine()(), reference());
  }
}

/// A generator stuck on one word: std::generate_canonical then sees exactly
/// the word canonical_from_word is handed.
struct FixedWord {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() const { return word; }
  result_type word;
};

TEST(Rng, EdgeWordsConvertExactlyAsTheStandardLibrary) {
  constexpr std::uint64_t kTwo53 = std::uint64_t{1} << 53;
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  constexpr double kTwo64 = 18446744073709551616.0;
  const double below_one = std::nextafter(1.0, 0.0);
  // 2^53 +- 1 straddle the last exactly representable integers; 2^63 is
  // the first word with the top bit set; 2^64 - 1025 is the largest word
  // that stays below 1 and 2^64 - 1 rounds up to 2^64 and clamps.
  for (const std::uint64_t w :
       {std::uint64_t{0}, kTwo53 - 1, kTwo53, kTwo53 + 1,
        std::uint64_t{1} << 63, kMax - 1025, kMax - 1024, kMax}) {
    SCOPED_TRACE(w);
    EXPECT_EQ(word_to_double(w), double(w));
    EXPECT_EQ(canonical_from_word(w), std::min(double(w) / kTwo64, below_one));
    FixedWord generator{w};
    EXPECT_EQ(canonical_from_word(w),
              (std::generate_canonical<double, 53>(generator)));
  }
  EXPECT_LT(double(kMax - 1025) / kTwo64, 1.0);
  EXPECT_EQ(double(kMax) / kTwo64, 1.0);
  EXPECT_EQ(canonical_from_word(kMax), below_one);
}

TEST(RngGaussian, BitIdenticalToFreshNormalDistributionPerCall) {
  Rng rng(12345);
  std::mt19937_64 reference(12345);
  const double means[] = {0.0, -3.5, 42.0};
  const double stddevs[] = {1.0, 0.2, 1e-3, 7.5};
  for (int i = 0; i < 20000; ++i) {
    const double mean = means[i % 3];
    const double stddev = stddevs[i % 4];
    const double want = std::normal_distribution<double>(mean, stddev)(reference);
    const double got = rng.gaussian(mean, stddev);
    ASSERT_EQ(got, want) << "draw " << i;
  }
  // Engine state advanced identically: the next raw words agree.
  ASSERT_EQ(rng.engine()(), reference());
}

TEST(RngGaussian, ZeroStddevReturnsMeanWithoutConsumingTheEngine) {
  Rng rng(7);
  const std::uint64_t before = Rng(7).engine()();
  EXPECT_EQ(rng.gaussian(5.0, 0.0), 5.0);
  EXPECT_EQ(rng.gaussian(5.0, -1.0), 5.0);
  EXPECT_EQ(rng.engine()(), before);
}

TEST(RngGaussian, PairFirstMatchesSingleDrawExactly) {
  // gaussian_pair's first deviate is the one gaussian() returns, from the
  // same engine words.
  Rng a(99), b(99);
  for (int i = 0; i < 1000; ++i) {
    double first = 0.0, second = 0.0;
    a.gaussian_pair(1.5, 0.3, first, second);
    EXPECT_EQ(first, b.gaussian(1.5, 0.3)) << i;
    // Keep b's stream aligned: gaussian() consumed the same words the pair
    // did, so the next iteration stays comparable.
  }
}

TEST(RngGaussian, PairSecondIsAFiniteDeviate) {
  Rng rng(3);
  double first = 0.0, second = 0.0;
  rng.gaussian_pair(0.0, 1.0, first, second);
  EXPECT_NE(first, second);
  EXPECT_TRUE(std::isfinite(second));
}

TEST(VGauss, FillIsSequenceIdenticalToPerCallDraws) {
  Rng a(4242), b(4242);
  double filled[257];
  gaussian_fill(a, 0.0, 0.2, filled, 257);
  for (int i = 0; i < 257; ++i) {
    ASSERT_EQ(filled[i], b.gaussian(0.0, 0.2)) << i;
  }
  ASSERT_EQ(a.engine()(), b.engine()());
}

TEST(VGauss, PairFillConsumesHalfTheRejectionLoops) {
  // Statistical sanity only: pair fill is documented as sequence-
  // incompatible, so assert distribution shape, not values.
  Rng rng(5);
  double out[10000];
  gaussian_pair_fill(rng, 2.0, 0.5, out, 10000);
  double sum = 0.0, sq = 0.0;
  for (double v : out) {
    sum += v;
    sq += (v - 2.0) * (v - 2.0);
  }
  EXPECT_NEAR(sum / 10000.0, 2.0, 0.02);
  EXPECT_NEAR(sq / 10000.0, 0.25, 0.01);
}

}  // namespace
}  // namespace dtpm::util
