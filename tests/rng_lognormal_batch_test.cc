#include "rng/lognormal_batch.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "rng/rng.h"

namespace ipscope::rng {
namespace {

constexpr double kE = kFlooredLogNormalTolerance;

// A growable set of lanes with the arrays the kernel reads.
struct Lanes {
  std::vector<double> u1, u2, mu, sigma, scale, cap;

  void Add(double a, double b, double m, double s, double sc, double c) {
    u1.push_back(a);
    u2.push_back(b);
    mu.push_back(m);
    sigma.push_back(s);
    scale.push_back(sc);
    cap.push_back(c);
  }
  std::size_t size() const { return u1.size(); }
  FlooredLogNormalLanes View() const {
    return {u1.data(), u2.data(), mu.data(),
            sigma.data(), scale.data(), cap.data()};
  }
  std::uint32_t Scalar(std::size_t i) const {
    return FlooredLogNormal(u1[i], u2[i], mu[i], sigma[i], scale[i], cap[i]);
  }
  void Clear() { *this = Lanes{}; }
};

// The kernel's targets on this host: portable always, AVX2 when present.
std::vector<std::uint32_t> RunTarget(bool avx2, const Lanes& lanes,
                                     std::size_t* fallbacks) {
  std::vector<std::uint32_t> out(lanes.size(), 0xdeadbeefu);
  *fallbacks = avx2 ? FlooredLogNormalCertifiedAvx2(lanes.size(),
                                                    lanes.View(), out.data())
                    : FlooredLogNormalCertifiedPortable(
                          lanes.size(), lanes.View(), out.data());
  return out;
}

// Checks every lane on every target: a certified lane equals the scalar
// formula, both targets agree lane by lane (zeros included), the returned
// count is the number of zeros, and the dispatching batch equals the
// scalar formula everywhere. Returns the number of fallbacks.
std::size_t CheckLanes(const Lanes& lanes) {
  std::size_t portable_fallbacks = 0;
  const std::vector<std::uint32_t> portable =
      RunTarget(false, lanes, &portable_fallbacks);
  std::size_t zeros = 0;
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    if (portable[i] == 0) {
      ++zeros;
      continue;
    }
    EXPECT_EQ(portable[i], lanes.Scalar(i))
        << "lane " << i << " u1=" << lanes.u1[i] << " u2=" << lanes.u2[i]
        << " mu=" << lanes.mu[i] << " sigma=" << lanes.sigma[i];
  }
  EXPECT_EQ(zeros, portable_fallbacks);
  if (FlooredLogNormalAvx2Available()) {
    std::size_t avx2_fallbacks = 0;
    const std::vector<std::uint32_t> avx2 =
        RunTarget(true, lanes, &avx2_fallbacks);
    EXPECT_EQ(avx2, portable);
    EXPECT_EQ(avx2_fallbacks, portable_fallbacks);
  }
  std::vector<std::uint32_t> batch(lanes.size());
  EXPECT_EQ(FlooredLogNormalBatch(lanes.size(), lanes.View(), batch.data()),
            portable_fallbacks);
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    EXPECT_EQ(batch[i], lanes.Scalar(i)) << "lane " << i;
  }
  return portable_fallbacks;
}

// The hit-count parameter space the simulation uses: hits_mu 2..9, a
// subscriber's +1.2 * propensity or a gateway's growth of up to ~0.18,
// sigma 0.5..1.3, daily (scale 1, cap 5e7) and weekly always-on (scale
// 7, cap 1e9) lanes, plus both other scale/cap pairings.
void AddSimLane(Xoshiro256& g, Lanes& lanes) {
  const double hits_mu = 2.0 + 7.0 * g.NextDouble();
  const std::uint32_t kind = g.NextBounded(4);
  const double shift =
      kind % 2 == 0 ? 1.2 * (0.03 + 0.92 * g.NextDouble())  // subscriber
                    : 0.18 * (static_cast<double>(g.NextBounded(365)) / 364.0);
  const double sigma = 0.5 + 0.8 * g.NextDouble();
  const double scale = kind < 2 ? 1.0 : 7.0;
  const double cap = kind == 0 || kind == 3 ? 5.0e7 : 1.0e9;
  const double u1 = g.NextDouble();
  const double u2 = g.NextDouble();
  lanes.Add(u1, u2, hits_mu + shift, sigma, scale, cap);
}

TEST(LogNormalBatch, RandomSimLanesMatchTheScalarFormula) {
  Xoshiro256 g{20151217};
  constexpr std::size_t kChunk = 1 << 16;
  constexpr std::size_t kChunks = 160;  // 10,485,760 lanes
  std::size_t fallbacks = 0;
  Lanes lanes;
  for (std::size_t c = 0; c < kChunks; ++c) {
    lanes.Clear();
    for (std::size_t i = 0; i < kChunk; ++i) AddSimLane(g, lanes);
    fallbacks += CheckLanes(lanes);
    if (HasFailure()) return;
  }
  // Random lanes are almost never within 2^-40 of an integer.
  EXPECT_LE(fallbacks, kChunk * kChunks / 100000);
}

TEST(LogNormalBatch, EdgeLanesMatchTheScalarFormula) {
  const double tiny = 0x1.0p-53;
  const double below_one = 1.0 - tiny;
  const double sqrt_half = std::sqrt(0.5);
  const double u1s[] = {0.0, tiny, 2 * tiny, 0.5, below_one,
                        std::nextafter(sqrt_half, 0.0),
                        std::nextafter(sqrt_half, 1.0), 0.25, 0.999};
  const double u2s[] = {0.0,  0.125, 0.25, 0.5, 0.75, 0.875, below_one,
                        std::nextafter(0.25, 0.0), std::nextafter(0.25, 1.0),
                        std::nextafter(0.5, 0.0), std::nextafter(0.75, 1.0)};
  // Locations that land far below 1 (clamped up), around the caps
  // (clamped down) and in between.
  const double mus[] = {-20.0, -3.0, 0.0, 2.0, 9.2, 17.7, 20.8, 25.0};
  const double sigmas[] = {0.0, 0.5, 1.3, 1.5};
  Lanes lanes;
  for (double u1 : u1s) {
    for (double u2 : u2s) {
      for (double mu : mus) {
        for (double sigma : sigmas) {
          lanes.Add(u1, u2, mu, sigma, 1.0, 5.0e7);
          lanes.Add(u1, u2, mu, sigma, 7.0, 1.0e9);
        }
      }
    }
  }
  CheckLanes(lanes);
}

TEST(LogNormalBatch, LanesOutsideTheDomainFallBack) {
  // Defined for the scalar formula but outside the certified domain.
  Lanes lanes;
  lanes.Add(0.3, 0.6, 40.0, 0.5, 1.0, 5.0e7);   // |x| >= 32
  lanes.Add(0.3, 0.6, 3.0, 2.0, 1.0, 5.0e7);    // sigma > 1.5
  lanes.Add(0.3, 0.6, 3.0, -2.0, 1.0, 5.0e7);   // |sigma| > 1.5
  lanes.Add(0.3, 0.6, 3.0, 1.0, 0.0, 5.0e7);    // scale below 2^-32
  lanes.Add(0.3, 0.6, 3.0, 1.0, 1.0, 0.5);      // cap below 1
  EXPECT_EQ(CheckLanes(lanes), lanes.size());

  // Not even the scalar formula's domain: the kernel alone must still
  // return 0 for every lane, without an out-of-range conversion (the
  // UBSan build checks float-cast-overflow).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Lanes bad;
  bad.Add(nan, 0.5, 3.0, 1.0, 1.0, 5.0e7);
  bad.Add(0.5, nan, 3.0, 1.0, 1.0, 5.0e7);
  bad.Add(0.5, 0.5, nan, 1.0, 1.0, 5.0e7);
  bad.Add(0.5, 0.5, inf, 1.0, 1.0, 5.0e7);
  bad.Add(0.5, 0.5, -inf, 1.0, 1.0, 5.0e7);
  bad.Add(0.5, 0.5, 3.0, inf, 1.0, 5.0e7);
  bad.Add(0.5, 0.5, 3.0, 1.0, inf, 5.0e7);
  bad.Add(0.5, 0.5, 3.0, 1.0, 1.0, nan);
  bad.Add(0.5, 0.5, 3.0, 1.0, 1.0, 0x1.0p40);
  bad.Add(1.0, 0.5, 3.0, 1.0, 1.0, 5.0e7);
  bad.Add(-0.5, 0.5, 3.0, 1.0, 1.0, 5.0e7);
  bad.Add(0.5, -0.1, 3.0, 1.0, 1.0, 5.0e7);
  bad.Add(0.5, 1.5, 3.0, 1.0, 1.0, 5.0e7);
  for (bool avx2 : {false, true}) {
    if (avx2 && !FlooredLogNormalAvx2Available()) continue;
    std::size_t fallbacks = 0;
    const std::vector<std::uint32_t> out = RunTarget(avx2, bad, &fallbacks);
    EXPECT_EQ(fallbacks, bad.size());
    EXPECT_EQ(out, std::vector<std::uint32_t>(bad.size(), 0u));
  }
}

// Lanes whose scalar value lies within E/2 (relative) of an integer must
// fall back: that is where a kernel without its certification (E = 0)
// returns a neighbouring integer. Built by solving mu for a target
// integer k, then walking mu ulp by ulp around it.
TEST(LogNormalBatch, NearIntegerLanesAllFallBackAndMatch) {
  Xoshiro256 g{1024};
  constexpr int kBases = 1000;
  constexpr int kWalk = 512;  // 1024 lanes per base
  std::size_t near = 0;
  std::size_t lanes_total = 0;
  for (int base = 0; base < kBases; ++base) {
    const double u1 = g.NextDouble();
    const double u2 = g.NextDouble();
    const double sigma = 0.5 + 0.8 * g.NextDouble();
    const bool weekly = base % 2 == 1;
    const double scale = weekly ? 7.0 : 1.0;
    const double cap = weekly ? 1.0e9 : 5.0e7;
    // A target integer, log-uniform in [2, 4e7].
    const double k =
        std::floor(std::exp(std::log(2.0) + g.NextDouble() *
                                                (std::log(4.0e7) -
                                                 std::log(2.0))));
    const double z = NormalFromUniforms(u1, u2);
    const double mu0 = std::log(k / scale) - sigma * z;
    Lanes lanes;
    double mu = mu0;
    for (int j = 0; j < kWalk; ++j) mu = std::nextafter(mu, -1e300);
    for (int j = 0; j < 2 * kWalk; ++j) {
      lanes.Add(u1, u2, mu, sigma, scale, cap);
      mu = std::nextafter(mu, 1e300);
    }
    std::size_t portable_fallbacks = 0;
    const std::vector<std::uint32_t> portable =
        RunTarget(false, lanes, &portable_fallbacks);
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      const double w =
          LogNormalFromUniforms(u1, u2, lanes.mu[i], sigma) * scale;
      if (std::fabs(w - k) <= 0.5 * kE * k) {
        ++near;
        EXPECT_EQ(portable[i], 0u) << "certified a lane at " << w;
      }
    }
    CheckLanes(lanes);
    lanes_total += lanes.size();
    if (HasFailure()) return;
  }
  EXPECT_EQ(lanes_total, 1024000u);
  // Most walks stay within E/2 of k for a good share of their steps.
  EXPECT_GE(near, lanes_total / 4);
}

TEST(LogNormalBatch, DispatchPicksAnAvailableTarget) {
  Lanes lanes;
  Xoshiro256 g{5};
  for (int i = 0; i < 4096; ++i) AddSimLane(g, lanes);
  std::vector<std::uint32_t> dispatched(lanes.size());
  const std::size_t fallbacks = FlooredLogNormalCertified(
      lanes.size(), lanes.View(), dispatched.data());
  std::size_t target_fallbacks = 0;
  EXPECT_EQ(dispatched, RunTarget(FlooredLogNormalAvx2Available(), lanes,
                                  &target_fallbacks));
  EXPECT_EQ(fallbacks, target_fallbacks);
}

TEST(LogNormalBatch, SplitDrawsMatchTheOneCallForms) {
  Xoshiro256 a{77};
  Xoshiro256 b{77};
  for (int i = 0; i < 1000; ++i) {
    const double u1 = a.NextDouble();
    const double u2 = a.NextDouble();
    EXPECT_EQ(NormalFromUniforms(u1, u2), NextNormal(b));
  }
  for (int i = 0; i < 1000; ++i) {
    const double u1 = a.NextDouble();
    const double u2 = a.NextDouble();
    EXPECT_EQ(LogNormalFromUniforms(u1, u2, 3.0, 1.1),
              NextLogNormal(b, 3.0, 1.1));
  }
}

}  // namespace
}  // namespace ipscope::rng
