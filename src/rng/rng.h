// Deterministic random-number substrate.
//
// Everything in the simulated world derives from a single 64-bit seed via
// hierarchical sub-stream derivation: Substream(seed, tag, tag, ...) mixes
// the tags through SplitMix64 so that, e.g., the stream for (block, day) is
// independent of every other (block, day) stream, yet fully reproducible.
// This is what lets the CDN observatory *regenerate* per-IP hit counts on
// demand instead of materializing them (see DESIGN.md §4.3).
//
// Xoshiro256++ is the workhorse generator (fast, 256-bit state, passes
// BigCrush); SplitMix64 seeds it and serves as the mixing function.
#pragma once

#include <cmath>
#include <cstdint>
#include <numbers>

namespace ipscope::rng {

// One SplitMix64 step: advances *state and returns the next output.
constexpr std::uint64_t SplitMix64Next(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Mixes an arbitrary list of 64-bit tags into a derived seed.
template <typename... Tags>
constexpr std::uint64_t Substream(std::uint64_t seed, Tags... tags) {
  std::uint64_t state = seed;
  ((state = SplitMix64Next(state) ^ (static_cast<std::uint64_t>(tags) *
                                     0x9e3779b97f4a7c15ULL)),
   ...);
  return SplitMix64Next(state);
}

// The precomputed prefix of one Substream family: SubstreamTail(seed,
// tags...) folds in everything that does not depend on the final tag, so
// that SubstreamTail(seed, tags...).At(i) == Substream(seed, tags..., i)
// with a single SplitMix64 round per call instead of one per tag. This is
// what makes slot-major generation kernels cheap: hashing a whole step
// sweep for one slot costs O(tags) setup once, then O(1) mixing per step.
class SubstreamTail {
 public:
  template <typename... Tags>
  constexpr explicit SubstreamTail(std::uint64_t seed, Tags... tags) {
    std::uint64_t state = seed;
    ((state = SplitMix64Next(state) ^ (static_cast<std::uint64_t>(tags) *
                                       0x9e3779b97f4a7c15ULL)),
     ...);
    z_ = SplitMix64Next(state);
  }

  constexpr std::uint64_t At(std::uint64_t last) const {
    std::uint64_t state = z_ ^ (last * 0x9e3779b97f4a7c15ULL);
    return SplitMix64Next(state);
  }

  // The folded prefix At mixes each final tag into: what rng::FlipWord
  // (rng/flip_words.h) takes to evaluate many tails' draws at once.
  constexpr std::uint64_t key() const { return z_; }

 private:
  std::uint64_t z_ = 0;
};

class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  constexpr explicit Xoshiro256(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& word : s_) word = SplitMix64Next(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

  constexpr std::uint64_t operator()() {
    const std::uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  // Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  // Uniform integer in [0, bound). Lemire's multiply-shift without the
  // rejection step — bias is < 2^-32 for the bounds used here.
  std::uint32_t NextBounded(std::uint32_t bound) {
    std::uint64_t x = (*this)() >> 32;
    return static_cast<std::uint32_t>((x * bound) >> 32);
  }

  bool NextBool(double p) { return NextDouble() < p; }

 private:
  static constexpr std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4] = {};
};

// --- Distributions -------------------------------------------------------
// Free functions over Xoshiro256, kept deliberately small: each experiment
// documents which distribution shapes it depends on.

// Standard normal via Box–Muller, one value per two uniforms. Split into
// "draw u1, then u2" (NextNormal) and "value from (u1, u2)"
// (NormalFromUniforms) so a caller can draw now and evaluate later: the
// sim hits pass queues its uniforms and evaluates a whole step at once in
// a certified polynomial kernel (rng/lognormal_batch.h), whose uncertain
// lanes fall back to exactly this scalar libm formula.
inline double NormalFromUniforms(double u1, double u2) {
  if (u1 <= 0) u1 = 0x1.0p-53;
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

inline double NextNormal(Xoshiro256& g) {
  const double u1 = g.NextDouble();
  const double u2 = g.NextDouble();
  return NormalFromUniforms(u1, u2);
}

inline double LogNormalFromUniforms(double u1, double u2, double mu,
                                    double sigma) {
  return std::exp(mu + sigma * NormalFromUniforms(u1, u2));
}

inline double NextLogNormal(Xoshiro256& g, double mu, double sigma) {
  const double u1 = g.NextDouble();
  const double u2 = g.NextDouble();
  return LogNormalFromUniforms(u1, u2, mu, sigma);
}

// Binomial(n, p). Exact inversion for small n·p, normal approximation with
// continuity correction for large n — good enough for simulation counts and
// orders of magnitude faster than exact sampling at CDN scale.
inline std::uint64_t NextBinomial(Xoshiro256& g, std::uint64_t n, double p) {
  if (n == 0 || p <= 0) return 0;
  if (p >= 1) return n;
  double np = static_cast<double>(n) * p;
  if (n <= 64) {
    std::uint64_t k = 0;
    for (std::uint64_t i = 0; i < n; ++i) k += g.NextBool(p) ? 1u : 0u;
    return k;
  }
  if (np < 32.0) {
    // Inversion by sequential search on the CDF.
    double q = std::pow(1.0 - p, static_cast<double>(n));
    double u = g.NextDouble();
    double cdf = q;
    std::uint64_t k = 0;
    while (u > cdf && k < n) {
      ++k;
      q *= (static_cast<double>(n - k + 1) / static_cast<double>(k)) *
           (p / (1.0 - p));
      cdf += q;
    }
    return k;
  }
  double mean = np;
  double stddev = std::sqrt(np * (1.0 - p));
  double x = std::round(mean + stddev * NextNormal(g));
  if (x < 0) x = 0;
  if (x > static_cast<double>(n)) x = static_cast<double>(n);
  return static_cast<std::uint64_t>(x);
}

// Poisson(lambda): Knuth for small lambda, normal approximation for large.
inline std::uint64_t NextPoisson(Xoshiro256& g, double lambda) {
  if (lambda <= 0) return 0;
  if (lambda < 30.0) {
    double l = std::exp(-lambda);
    std::uint64_t k = 0;
    double prod = g.NextDouble();
    while (prod > l) {
      ++k;
      prod *= g.NextDouble();
    }
    return k;
  }
  double x = std::round(lambda + std::sqrt(lambda) * NextNormal(g));
  return x < 0 ? 0 : static_cast<std::uint64_t>(x);
}

// Zipf-like rank sampler over [0, n): P(k) ∝ 1 / (k + 1)^s, via inverse
// transform on the (approximated) generalized harmonic CDF.
class ZipfSampler {
 public:
  ZipfSampler(std::uint32_t n, double s) : n_(n), s_(s) {
    // Integral approximation of the normalizing constant.
    h_n_ = GeneralizedHarmonic(n_);
  }

  std::uint32_t operator()(Xoshiro256& g) const {
    double u = g.NextDouble() * h_n_;
    // Invert the integral approximation, then clamp.
    double k;
    if (s_ == 1.0) {
      k = std::exp(u) - 1.0;
    } else {
      double base = 1.0 + u * (1.0 - s_);
      if (base < 0) base = 0;
      k = std::pow(base, 1.0 / (1.0 - s_)) - 1.0;
    }
    if (k < 0) k = 0;
    if (k >= static_cast<double>(n_)) k = static_cast<double>(n_ - 1);
    return static_cast<std::uint32_t>(k);
  }

 private:
  double GeneralizedHarmonic(std::uint32_t n) const {
    // ∫_1^{n+1} x^-s dx — smooth approximation, exact enough for sampling.
    if (s_ == 1.0) return std::log(static_cast<double>(n) + 1.0);
    return (std::pow(static_cast<double>(n) + 1.0, 1.0 - s_) - 1.0) /
           (1.0 - s_);
  }

  std::uint32_t n_;
  double s_;
  double h_n_;
};

}  // namespace ipscope::rng
