// rng::FlipWord, target by target, against the scalar compare it replaces:
// bit b of a word is (SubstreamTail::At(step) >> 11) < below for the tail
// whose key() is keys[b]. Every target must return exactly that word.
#include "rng/flip_words.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "rng/lognormal_batch.h"
#include "rng/rng.h"
#include "splitmix_inverse.h"

namespace ipscope::rng {
namespace {

constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ULL;
constexpr std::uint64_t kOne = std::uint64_t{1} << 53;  // UnitThreshold(1)

// The scalar compare, one SubstreamTail::At per bit.
std::uint64_t Reference(const std::vector<SubstreamTail>& tails, int n,
                        std::uint64_t step, std::uint64_t below) {
  std::uint64_t word = 0;
  for (int b = 0; b < n; ++b) {
    const bool flip =
        (tails[static_cast<std::size_t>(b)].At(step) >> 11) < below;
    word |= std::uint64_t{flip} << b;
  }
  return word;
}

// A key whose draw at `step` is exactly h: SplitMix64Next(key ^ step γ)
// == h.
std::uint64_t KeyDrawing(std::uint64_t h, std::uint64_t step) {
  return (testing_support::UnmixSplitMix64(h) - kGamma) ^ (step * kGamma);
}

class FlipWordsTarget : public ::testing::TestWithParam<KernelTarget> {
 protected:
  void SetUp() override {
    if (GetParam() == KernelTarget::kAvx512 && !FlipWordAvx512Available()) {
      GTEST_SKIP() << "this CPU lacks AVX-512 F+DQ; the AVX-512 flip-word "
                      "target is not checked here";
    }
  }

  std::uint64_t Run(const std::uint64_t* keys, int n, std::uint64_t step,
                    std::uint64_t below) const {
    if (GetParam() == KernelTarget::kAvx512) {
      return FlipWordAvx512(keys, n, step, below);
    }
    return FlipWordPortable(keys, n, step, below);
  }
};

// Seeded keys, every width 1..64, steps 0..4095, thresholds 0, 1, 2^53
// (every draw flips) and a random one per step.
TEST_P(FlipWordsTarget, EveryWidthStepAndThresholdMatchesTheTails) {
  Xoshiro256 g{20161114};
  for (int n = 1; n <= 64; ++n) {
    std::vector<SubstreamTail> tails;
    std::vector<std::uint64_t> keys;
    for (int b = 0; b < n; ++b) {
      tails.emplace_back(g(), 0x7e05, b);
      keys.push_back(tails.back().key());
    }
    for (std::uint64_t step = 0; step < 4096; ++step) {
      const std::array<std::uint64_t, 4> thresholds = {0, 1, kOne,
                                                        g() >> 11};
      for (const std::uint64_t below : thresholds) {
        const std::uint64_t want = Reference(tails, n, step, below);
        const std::uint64_t got = Run(keys.data(), n, step, below);
        ASSERT_EQ(got, want) << "n " << n << " step " << step << " below "
                             << below;
      }
    }
    // Thresholds 0 and 2^53 pin the word regardless of the keys.
    EXPECT_EQ(Run(keys.data(), n, 7, 0), 0u) << n;
    EXPECT_EQ(Run(keys.data(), n, 7, kOne),
              n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1)
        << n;
  }
}

// Lanes whose draw sits one below, at, and one above the threshold
// (h >> 11 == below - 1, below, below + 1), in every lane position and
// width: only the draw strictly below flips, as HashUnit(h) < p does.
TEST_P(FlipWordsTarget, ADrawEqualToItsThresholdDoesNotFlip) {
  Xoshiro256 g{93};
  for (int n = 1; n <= 64; ++n) {
    const std::array<std::uint64_t, 5> steps = {0, 1, 93, 4095, g()};
    for (const std::uint64_t step : steps) {
      const std::uint64_t below = 1 + (g() >> 12);  // in [1, 2^52]
      std::vector<std::uint64_t> keys;
      std::uint64_t want = 0;
      for (int b = 0; b < n; ++b) {
        const std::uint64_t draw = below - 1 + static_cast<std::uint64_t>(
                                                   (b + n + step) % 3);
        const std::uint64_t h = (draw << 11) | (g() & 2047u);
        keys.push_back(KeyDrawing(h, step));
        std::uint64_t state = keys.back() ^ (step * kGamma);
        ASSERT_EQ(SplitMix64Next(state), h);
        if (draw < below) want |= std::uint64_t{1} << b;
      }
      ASSERT_EQ(Run(keys.data(), n, step, below), want)
          << "n " << n << " step " << step << " below " << below;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    FlipWords, FlipWordsTarget,
    ::testing::Values(KernelTarget::kPortable, KernelTarget::kAvx512),
    [](const ::testing::TestParamInfo<KernelTarget>& info) {
      return std::string(info.param == KernelTarget::kAvx512 ? "avx512"
                                                             : "portable");
    });

TEST(FlipWords, DispatchMatchesThePortableTarget) {
  Xoshiro256 g{5};
  std::array<std::uint64_t, 64> keys;
  for (std::uint64_t& k : keys) k = g();
  for (int n = 0; n <= 64; ++n) {
    for (std::uint64_t step = 0; step < 112; ++step) {
      const std::uint64_t below = g() >> 11;
      ASSERT_EQ(FlipWord(keys.data(), n, step, below),
                FlipWordPortable(keys.data(), n, step, below))
          << "n " << n << " step " << step;
    }
  }
}

}  // namespace
}  // namespace ipscope::rng
