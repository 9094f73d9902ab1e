#include "rng/lognormal_batch.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
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

bool Available(KernelTarget target) {
  switch (target) {
    case KernelTarget::kAvx512:
      return FlooredLogNormalAvx512Available();
    case KernelTarget::kAvx2:
      return FlooredLogNormalAvx2Available();
    case KernelTarget::kPortable:
      break;
  }
  return true;
}

const char* TargetName(KernelTarget target) {
  switch (target) {
    case KernelTarget::kAvx512:
      return "avx512";
    case KernelTarget::kAvx2:
      return "avx2";
    case KernelTarget::kPortable:
      break;
  }
  return "portable";
}

// One target of the kernel, called directly.
std::vector<std::uint32_t> RunTarget(KernelTarget target, const Lanes& lanes,
                                     std::size_t* fallbacks) {
  std::vector<std::uint32_t> out(lanes.size(), 0xdeadbeefu);
  switch (target) {
    case KernelTarget::kAvx512:
      *fallbacks = FlooredLogNormalCertifiedAvx512(lanes.size(), lanes.View(),
                                                   out.data());
      break;
    case KernelTarget::kAvx2:
      *fallbacks = FlooredLogNormalCertifiedAvx2(lanes.size(), lanes.View(),
                                                 out.data());
      break;
    case KernelTarget::kPortable:
      *fallbacks = FlooredLogNormalCertifiedPortable(
          lanes.size(), lanes.View(), out.data());
      break;
  }
  return out;
}

// Checks the portable target and the dispatching batch on every lane: a
// certified lane equals the scalar formula, the returned count is the
// number of zeros, and the batch equals the scalar formula everywhere.
// (Each vector target is checked lane for lane against the portable one
// by the LogNormalBatchTarget tests below.) Returns the number of
// fallbacks.
std::size_t CheckLanes(const Lanes& lanes) {
  std::size_t portable_fallbacks = 0;
  const std::vector<std::uint32_t> portable =
      RunTarget(KernelTarget::kPortable, lanes, &portable_fallbacks);
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

// The random set: kRandomChunks chunks of kRandomChunk simulation-like
// lanes from one seeded generator, handed to `check` one chunk at a time
// until it reports a failure.
constexpr std::size_t kRandomChunk = 1 << 16;
constexpr std::size_t kRandomChunks = 160;  // 10,485,760 lanes

template <typename Check>
void ForEachRandomChunk(Check check) {
  Xoshiro256 g{20151217};
  Lanes lanes;
  for (std::size_t c = 0; c < kRandomChunks; ++c) {
    lanes.Clear();
    for (std::size_t i = 0; i < kRandomChunk; ++i) AddSimLane(g, lanes);
    if (!check(lanes)) return;
  }
}

TEST(LogNormalBatch, RandomSimLanesMatchTheScalarFormula) {
  std::size_t fallbacks = 0;
  ForEachRandomChunk([&](const Lanes& lanes) {
    fallbacks += CheckLanes(lanes);
    return !::testing::Test::HasFailure();
  });
  // Random lanes are almost never within 2^-40 of an integer.
  EXPECT_LE(fallbacks, kRandomChunk * kRandomChunks / 100000);
}

// The edge set: every combination of boundary uniforms, clamped and
// capped locations and the sigma range, at both daily and weekly shapes.
Lanes EdgeLanes() {
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
  return lanes;
}

TEST(LogNormalBatch, EdgeLanesMatchTheScalarFormula) {
  CheckLanes(EdgeLanes());
}

// Lanes outside even the scalar formula's domain. The kernel must return
// 0 for each without an out-of-range conversion (the UBSan build checks
// float-cast-overflow).
Lanes UndefinedLanes() {
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
  return bad;
}

// Lanes defined for the scalar formula but outside the certified domain:
// every target must fall back on each.
Lanes OutOfDomainLanes() {
  Lanes lanes;
  lanes.Add(0.3, 0.6, 40.0, 0.5, 1.0, 5.0e7);   // |x| >= 32
  lanes.Add(0.3, 0.6, 3.0, 2.0, 1.0, 5.0e7);    // sigma > 1.5
  lanes.Add(0.3, 0.6, 3.0, -2.0, 1.0, 5.0e7);   // |sigma| > 1.5
  lanes.Add(0.3, 0.6, 3.0, 1.0, 0.0, 5.0e7);    // scale below 2^-32
  lanes.Add(0.3, 0.6, 3.0, 1.0, 1.0, 0.5);      // cap below 1
  return lanes;
}

TEST(LogNormalBatch, LanesOutsideTheDomainFallBack) {
  // Each vector target is checked by
  // LogNormalBatchTarget.OutOfDomainLanesAllFallBack.
  const Lanes lanes = OutOfDomainLanes();
  EXPECT_EQ(CheckLanes(lanes), lanes.size());

  // Not even the scalar formula's domain: the portable kernel alone must
  // still return 0 for every lane (each vector target is checked by
  // LogNormalBatchTarget.UndefinedLanesAllReturnZero).
  std::size_t fallbacks = 0;
  const Lanes bad = UndefinedLanes();
  EXPECT_EQ(RunTarget(KernelTarget::kPortable, bad, &fallbacks),
            std::vector<std::uint32_t>(bad.size(), 0u));
  EXPECT_EQ(fallbacks, bad.size());
}

// The near-integer set: for each of kNearBases random (u1, u2, sigma,
// shape) bases, a target integer k and 2 * kNearWalk lanes that walk mu ulp
// by ulp around the mu whose scalar value is k. Hands each base's lanes
// and k to `check` until it reports a failure.
constexpr int kNearBases = 1000;
constexpr int kNearWalk = 512;  // 1024 lanes per base

template <typename Check>
void ForEachNearIntegerWalk(Check check) {
  Xoshiro256 g{1024};
  for (int base = 0; base < kNearBases; ++base) {
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
    for (int j = 0; j < kNearWalk; ++j) mu = std::nextafter(mu, -1e300);
    for (int j = 0; j < 2 * kNearWalk; ++j) {
      lanes.Add(u1, u2, mu, sigma, scale, cap);
      mu = std::nextafter(mu, 1e300);
    }
    if (!check(lanes, k)) return;
  }
}

// Lanes whose scalar value lies within E/2 (relative) of an integer must
// fall back: that is where a kernel without its certification (E = 0)
// returns a neighbouring integer.
TEST(LogNormalBatch, NearIntegerLanesAllFallBackAndMatch) {
  std::size_t near = 0;
  std::size_t lanes_total = 0;
  ForEachNearIntegerWalk([&](const Lanes& lanes, double k) {
    std::size_t portable_fallbacks = 0;
    const std::vector<std::uint32_t> portable =
        RunTarget(KernelTarget::kPortable, lanes, &portable_fallbacks);
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      const double w = LogNormalFromUniforms(lanes.u1[i], lanes.u2[i],
                                             lanes.mu[i], lanes.sigma[i]) *
                       lanes.scale[i];
      if (std::fabs(w - k) <= 0.5 * kE * k) {
        ++near;
        EXPECT_EQ(portable[i], 0u) << "certified a lane at " << w;
      }
    }
    CheckLanes(lanes);
    lanes_total += lanes.size();
    return !::testing::Test::HasFailure();
  });
  EXPECT_EQ(lanes_total, 1024000u);
  // Most walks stay within E/2 of k for a good share of their steps.
  EXPECT_GE(near, lanes_total / 4);
}

TEST(LogNormalBatch, DispatchPicksAnAvailableTarget) {
  const KernelTarget widest = FlooredLogNormalAvx512Available()
                                  ? KernelTarget::kAvx512
                              : FlooredLogNormalAvx2Available()
                                  ? KernelTarget::kAvx2
                                  : KernelTarget::kPortable;
  EXPECT_EQ(DetectKernelTarget(), widest);
  Lanes lanes;
  Xoshiro256 g{5};
  for (int i = 0; i < 4096; ++i) AddSimLane(g, lanes);
  std::vector<std::uint32_t> dispatched(lanes.size());
  const std::size_t fallbacks = FlooredLogNormalCertified(
      lanes.size(), lanes.View(), dispatched.data());
  std::size_t target_fallbacks = 0;
  EXPECT_EQ(dispatched, RunTarget(widest, lanes, &target_fallbacks));
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

// Each vector target against the portable one, lane for lane, zeros and
// fallback counts included, on the random, edge, near-integer,
// out-of-domain and undefined sets. Since the portable target is checked
// against the scalar formula above, AVX-512 == AVX2 == portable == scalar
// on every certified lane. A target this CPU cannot run is skipped.
class LogNormalBatchTarget : public ::testing::TestWithParam<KernelTarget> {
 protected:
  void SetUp() override {
    if (!Available(GetParam())) {
      GTEST_SKIP() << "this CPU cannot run the " << TargetName(GetParam())
                   << " kernel target; it is not checked here";
    }
  }

  // True while the target matches portable on every lane so far.
  bool MatchesPortable(const Lanes& lanes) {
    std::size_t portable_fallbacks = 0;
    const std::vector<std::uint32_t> portable =
        RunTarget(KernelTarget::kPortable, lanes, &portable_fallbacks);
    std::size_t fallbacks = 0;
    const std::vector<std::uint32_t> out =
        RunTarget(GetParam(), lanes, &fallbacks);
    EXPECT_EQ(fallbacks, portable_fallbacks);
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      EXPECT_EQ(out[i], portable[i])
          << "lane " << i << " u1=" << lanes.u1[i] << " u2=" << lanes.u2[i]
          << " mu=" << lanes.mu[i] << " sigma=" << lanes.sigma[i];
      if (out[i] != portable[i]) return false;
    }
    return !HasFailure();
  }
};

TEST_P(LogNormalBatchTarget, RandomSimLanesMatchPortable) {
  ForEachRandomChunk(
      [&](const Lanes& lanes) { return MatchesPortable(lanes); });
}

TEST_P(LogNormalBatchTarget, EdgeLanesMatchPortable) {
  MatchesPortable(EdgeLanes());
}

TEST_P(LogNormalBatchTarget, NearIntegerLanesMatchPortable) {
  ForEachNearIntegerWalk(
      [&](const Lanes& lanes, double) { return MatchesPortable(lanes); });
}

TEST_P(LogNormalBatchTarget, OutOfDomainLanesAllFallBack) {
  const Lanes lanes = OutOfDomainLanes();
  std::size_t fallbacks = 0;
  EXPECT_EQ(RunTarget(GetParam(), lanes, &fallbacks),
            std::vector<std::uint32_t>(lanes.size(), 0u));
  EXPECT_EQ(fallbacks, lanes.size());
  MatchesPortable(lanes);
}

TEST_P(LogNormalBatchTarget, UndefinedLanesAllReturnZero) {
  const Lanes bad = UndefinedLanes();
  std::size_t fallbacks = 0;
  EXPECT_EQ(RunTarget(GetParam(), bad, &fallbacks),
            std::vector<std::uint32_t>(bad.size(), 0u));
  EXPECT_EQ(fallbacks, bad.size());
}

INSTANTIATE_TEST_SUITE_P(
    LogNormalBatch, LogNormalBatchTarget,
    ::testing::Values(KernelTarget::kAvx2, KernelTarget::kAvx512),
    [](const ::testing::TestParamInfo<KernelTarget>& info) {
      return std::string(TargetName(info.param));
    });

}  // namespace
}  // namespace ipscope::rng
