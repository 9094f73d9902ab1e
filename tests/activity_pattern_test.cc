#include "activity/pattern.h"

#include <gtest/gtest.h>

#include <string>

#include "cdn/observatory.h"
#include "check/reference.h"
#include "rng/rng.h"
#include "sim/world.h"

namespace ipscope::activity {
namespace {

constexpr int kDays = 112;

// Synthetic matrices mimicking the paper's Fig 6 patterns.

ActivityMatrix StaticSparse() {
  ActivityMatrix m{kDays};
  rng::Xoshiro256 g{1};
  // 30 scattered addresses, each active ~40% of days.
  for (int i = 0; i < 30; ++i) {
    int host = static_cast<int>(g.NextBounded(256));
    for (int d = 0; d < kDays; ++d) {
      if (g.NextBool(0.4)) m.Set(d, host);
    }
  }
  return m;
}

ActivityMatrix DenseShortLease() {
  ActivityMatrix m{kDays};
  rng::Xoshiro256 g{2};
  // Every day an independent ~60% of the pool is active.
  for (int d = 0; d < kDays; ++d) {
    for (int h = 0; h < 256; ++h) {
      if (g.NextBool(0.6)) m.Set(d, h);
    }
  }
  return m;
}

ActivityMatrix LongLease() {
  ActivityMatrix m{kDays};
  rng::Xoshiro256 g{3};
  // Each address held by one subscriber for ~56 days; persistent activity
  // levels per occupant.
  for (int h = 0; h < 256; ++h) {
    for (int epoch = 0; epoch < 2; ++epoch) {
      double p = g.NextDouble() < 0.3 ? 0.9 : 0.25;
      for (int d = epoch * 56; d < (epoch + 1) * 56; ++d) {
        if (g.NextBool(p)) m.Set(d, h);
      }
    }
  }
  return m;
}

ActivityMatrix Gateway() {
  ActivityMatrix m{kDays};
  for (int d = 0; d < kDays; ++d) {
    for (int h = 0; h < 256; ++h) m.Set(d, h);
  }
  return m;
}

TEST(Pattern, FeaturesOfEmptyMatrix) {
  ActivityMatrix m{kDays};
  auto f = ComputeFeatures(m);
  EXPECT_EQ(f.filling_degree, 0);
  EXPECT_EQ(ClassifyPattern(f), BlockPattern::kInactive);
}

TEST(Pattern, GatewayFeatures) {
  auto f = ComputeFeatures(Gateway());
  EXPECT_EQ(f.filling_degree, 256);
  EXPECT_DOUBLE_EQ(f.stu, 1.0);
  EXPECT_EQ(ClassifyPattern(f), BlockPattern::kFullyUtilized);
}

TEST(Pattern, StaticSparseClassification) {
  auto f = ComputeFeatures(StaticSparse());
  EXPECT_LT(f.filling_degree, 64);
  EXPECT_EQ(ClassifyPattern(f), BlockPattern::kStaticSparse);
}

TEST(Pattern, DenseShortLeaseClassification) {
  auto f = ComputeFeatures(DenseShortLease());
  EXPECT_GT(f.filling_degree, 250);
  // Re-dealt pool: every address gets a near-identical activity share.
  EXPECT_LT(f.host_days_cv, 0.25);
  EXPECT_EQ(ClassifyPattern(f), BlockPattern::kDynamicShortLease);
}

TEST(Pattern, LongLeaseClassification) {
  auto f = ComputeFeatures(LongLease());
  EXPECT_GT(f.filling_degree, 100);
  // Heterogeneous occupants spread per-address activity widely.
  EXPECT_GT(f.host_days_cv, 0.25);
  EXPECT_EQ(ClassifyPattern(f), BlockPattern::kDynamicLongLease);
}

TEST(Pattern, FeatureRanges) {
  for (const ActivityMatrix& m :
       {StaticSparse(), DenseShortLease(), LongLease(), Gateway()}) {
    auto f = ComputeFeatures(m);
    EXPECT_GE(f.stu, 0.0);
    EXPECT_LE(f.stu, 1.0);
    EXPECT_GE(f.mean_host_days, 0.0);
    EXPECT_LE(f.mean_host_days, kDays);
    EXPECT_GE(f.host_days_cv, 0.0);
  }
}

// ComputeFeatures against check::reference's per-bit walk, double for
// double, and ClassifyPattern against its transcribed thresholds.
void ExpectMatchesReference(const ActivityMatrix& m, const std::string& what) {
  const PatternFeatures f = ComputeFeatures(m);
  const check::RefPatternFeatures ref = check::RefBlockPatternFeatures(m);
  EXPECT_EQ(f.filling_degree, ref.filling_degree) << what;
  EXPECT_EQ(f.stu, ref.stu) << what;
  EXPECT_EQ(f.mean_host_days, ref.mean_host_days) << what;
  EXPECT_EQ(f.host_days_cv, ref.host_days_cv) << what;
  EXPECT_STREQ(PatternName(ClassifyPattern(f)), check::RefPatternName(ref))
      << what;
}

TEST(Pattern, FeaturesEqualReferenceOnEveryWorldBlock) {
  for (std::uint64_t seed : {1u, 2u}) {
    sim::WorldConfig config;
    config.seed = seed;
    config.target_client_blocks = 400;
    sim::World world{config};
    const ActivityStore store = cdn::Observatory::Daily(world).BuildStore();
    ASSERT_GE(store.BlockCount(), 300u);
    for (std::size_t i = 0; i < store.BlockCount(); ++i) {
      ExpectMatchesReference(store.MatrixAt(i),
                             "seed " + std::to_string(seed) + " block " +
                                 std::to_string(store.keys()[i]));
    }
  }
}

TEST(Pattern, FeaturesEqualReferenceOnEdgeMatrices) {
  ExpectMatchesReference(ActivityMatrix{kDays}, "empty");
  ExpectMatchesReference(Gateway(), "all ones");
  for (int days : {1, 112, 600}) {
    const std::string at = " over " + std::to_string(days) + " days";
    ActivityMatrix one_host{days};
    for (int d = 0; d < days; d += 3) one_host.Set(d, 200);
    ExpectMatchesReference(one_host, "one host" + at);
    ActivityMatrix one_day{days};
    for (int h = 0; h < 256; h += 2) one_day.Set(days / 2, h);
    ExpectMatchesReference(one_day, "one day" + at);
    ActivityMatrix full{days};
    for (int d = 0; d < days; ++d) SetBitRange(full.Row(d), 0, 256);
    ExpectMatchesReference(full, "all ones" + at);
    // Per-host activity rates from 0 to 1, so the counts span every
    // bit-sliced counter plane and, at 600 days, two spills.
    rng::Xoshiro256 g{static_cast<std::uint64_t>(days)};
    ActivityMatrix mixed{days};
    for (int h = 0; h < 256; ++h) {
      const double p = h / 255.0;
      for (int d = 0; d < days; ++d) {
        if (g.NextBool(p)) mixed.Set(d, h);
      }
    }
    ExpectMatchesReference(mixed, "mixed" + at);
  }
}

TEST(Pattern, NamesAreStable) {
  EXPECT_STREQ(PatternName(BlockPattern::kInactive), "inactive");
  EXPECT_STREQ(PatternName(BlockPattern::kStaticSparse), "static-sparse");
  EXPECT_STREQ(PatternName(BlockPattern::kFullyUtilized), "fully-utilized");
}

}  // namespace
}  // namespace ipscope::activity
