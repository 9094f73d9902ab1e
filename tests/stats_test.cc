#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "stats/binning.h"
#include "stats/capture_recapture.h"
#include "stats/histogram.h"
#include "stats/linreg.h"
#include "stats/quantile.h"
#include "stats/summary.h"

namespace ipscope::stats {
namespace {

TEST(Summary, BasicMoments) {
  Summary s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Summary, EmptyIsZero) {
  Summary s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(Summary, MovingAverage) {
  std::vector<double> series{1, 2, 3, 4, 5};
  auto ma = MovingAverage(series, 3);
  ASSERT_EQ(ma.size(), 3u);
  EXPECT_DOUBLE_EQ(ma[0], 2.0);
  EXPECT_DOUBLE_EQ(ma[2], 4.0);
  EXPECT_TRUE(MovingAverage(series, 6).empty());
  EXPECT_TRUE(MovingAverage(series, 0).empty());
}

TEST(Summary, PearsonCorrelation) {
  std::vector<double> x{1, 2, 3, 4, 5};
  std::vector<double> y{2, 4, 6, 8, 10};
  EXPECT_NEAR(PearsonCorrelation(x, y), 1.0, 1e-12);
  std::vector<double> yneg{10, 8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(x, yneg), -1.0, 1e-12);
  std::vector<double> flat{3, 3, 3, 3, 3};
  EXPECT_EQ(PearsonCorrelation(x, flat), 0.0);
}

TEST(Summary, GiniKnownValues) {
  // Perfect equality.
  EXPECT_NEAR(Gini({5, 5, 5, 5}), 0.0, 1e-12);
  // Total concentration in one of n elements: (n-1)/n.
  EXPECT_NEAR(Gini({0, 0, 0, 10}), 0.75, 1e-12);
  // Classic two-element split 1:3 -> Gini 0.25.
  EXPECT_NEAR(Gini({1, 3}), 0.25, 1e-12);
  // Degenerate inputs.
  EXPECT_EQ(Gini({}), 0.0);
  EXPECT_EQ(Gini({7}), 0.0);
  EXPECT_EQ(Gini({0, 0, 0}), 0.0);
}

TEST(Summary, GiniScaleInvariant) {
  std::vector<double> base{1, 2, 3, 10, 20};
  std::vector<double> scaled{100, 200, 300, 1000, 2000};
  EXPECT_NEAR(Gini(base), Gini(scaled), 1e-12);
  EXPECT_GT(Gini(base), 0.0);
  EXPECT_LT(Gini(base), 1.0);
}

TEST(Summary, GiniSortedIsGiniOfTheSortedSample) {
  std::vector<double> values{20, 1, 3, 10, 2, 3, 0.5};
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(GiniSorted(sorted), Gini(values));  // bit for bit
  EXPECT_EQ(GiniSorted({}), 0.0);
}

TEST(Quantile, LinearInterpolation) {
  std::vector<double> sorted{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(QuantileSorted(sorted, 0.0), 10);
  EXPECT_DOUBLE_EQ(QuantileSorted(sorted, 1.0), 40);
  EXPECT_DOUBLE_EQ(QuantileSorted(sorted, 0.5), 25);
  EXPECT_DOUBLE_EQ(QuantileSorted(sorted, 1.0 / 3.0), 20);
}

TEST(Quantile, MedianOddEven) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({7}), 7.0);
}

// Regression: an empty sample used to report 0.0, indistinguishable from a
// genuine zero quantile (e.g. a 0% churn median). The contract is now NaN.
TEST(Quantile, EmptyInputIsNaN) {
  EXPECT_TRUE(std::isnan(Median({})));
  EXPECT_TRUE(std::isnan(QuantileSorted(std::vector<double>{}, 0.5)));
  EXPECT_TRUE(std::isnan(QuantileSorted(std::vector<double>{}, 0.0)));
  EXPECT_TRUE(std::isnan(QuantileSorted(std::vector<double>{}, 1.0)));
  auto qs = Quantiles({}, std::vector<double>{0.25, 0.75});
  ASSERT_EQ(qs.size(), 2u);
  EXPECT_TRUE(std::isnan(qs[0]));
  EXPECT_TRUE(std::isnan(qs[1]));
}

TEST(Quantile, EmpiricalCdf) {
  auto cdf = EmpiricalCdf({1, 1, 2, 3});
  ASSERT_EQ(cdf.size(), 3u);  // duplicates collapsed
  EXPECT_DOUBLE_EQ(cdf[0].x, 1);
  EXPECT_DOUBLE_EQ(cdf[0].f, 0.5);
  EXPECT_DOUBLE_EQ(cdf[2].x, 3);
  EXPECT_DOUBLE_EQ(cdf[2].f, 1.0);
}

TEST(Quantile, CdfAt) {
  std::vector<double> sorted{1, 2, 2, 5};
  EXPECT_DOUBLE_EQ(CdfAt(sorted, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(CdfAt(sorted, 2), 0.75);
  EXPECT_DOUBLE_EQ(CdfAt(sorted, 10), 1.0);
}

TEST(Histogram, BinningAndClamping) {
  Histogram h{0.0, 1.0, 10};
  h.Add(0.05);
  h.Add(0.95);
  h.Add(1.5);   // clamps into last bin
  h.Add(-0.5);  // clamps into first bin
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(9), 2u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_DOUBLE_EQ(h.Fraction(0), 0.5);
  EXPECT_DOUBLE_EQ(h.BinLow(5), 0.5);
  EXPECT_DOUBLE_EQ(h.BinHigh(5), 0.6);
}

TEST(Histogram, WeightedAdd) {
  Histogram h{0.0, 10.0, 5};
  h.Add(1.0, 7);
  EXPECT_EQ(h.count(0), 7u);
  EXPECT_EQ(h.total(), 7u);
}

TEST(Histogram, LogBin) {
  EXPECT_EQ(LogBin(0.5, 10.0), -1);
  EXPECT_EQ(LogBin(1.0, 10.0), 0);
  EXPECT_EQ(LogBin(9.9, 10.0), 0);
  EXPECT_EQ(LogBin(10.0, 10.0), 1);
  EXPECT_EQ(LogBin(12345.0, 10.0), 4);
}

TEST(Histogram, LogLogGrid) {
  LogLogGrid grid{10.0, 4, 3};
  grid.Add(5, 2);       // cell (0, 0)
  grid.Add(500, 50);    // cell (2, 1)
  grid.Add(1e9, 1e9);   // clamped to (3, 2)
  EXPECT_EQ(grid.count(0, 0), 1u);
  EXPECT_EQ(grid.count(2, 1), 1u);
  EXPECT_EQ(grid.count(3, 2), 1u);
  EXPECT_EQ(grid.total(), 3u);
  EXPECT_DOUBLE_EQ(grid.CellLowX(2), 100.0);
}

TEST(LinReg, PerfectLine) {
  std::vector<double> x{0, 1, 2, 3, 4};
  std::vector<double> y{1, 3, 5, 7, 9};
  LinearFit fit = FitLinear(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
  EXPECT_NEAR(fit.At(10), 21.0, 1e-12);
}

TEST(LinReg, DegenerateInputs) {
  EXPECT_EQ(FitLinear({}, {}).slope, 0.0);
  std::vector<double> x{1};
  std::vector<double> y{2};
  EXPECT_EQ(FitLinear(x, y).slope, 0.0);
  std::vector<double> xc{2, 2, 2};
  std::vector<double> yc{1, 2, 3};
  EXPECT_EQ(FitLinear(xc, yc).slope, 0.0);  // constant x
}

TEST(CaptureRecapture, ChapmanKnownValue) {
  // n1=100 marked, n2=100 caught, 25 recaptured:
  // N* = 101*101/26 - 1 = 391.3
  auto est = Chapman(100, 100, 25);
  EXPECT_NEAR(est.population, 101.0 * 101.0 / 26.0 - 1.0, 1e-9);
  EXPECT_GT(est.std_error, 0.0);
}

TEST(CaptureRecapture, ChapmanPerfectOverlap) {
  // Full recapture: estimate equals the common population size.
  auto est = Chapman(500, 500, 500);
  EXPECT_NEAR(est.population, 500.0, 1.0);
}

TEST(CaptureRecapture, ChapmanRecoverySimulation) {
  // Draw two independent samples of a 10000-strong population and check
  // the estimate lands near the truth.
  const std::uint64_t population = 10000;
  const double p1 = 0.2, p2 = 0.3;
  auto n1 = static_cast<std::uint64_t>(population * p1);
  auto n2 = static_cast<std::uint64_t>(population * p2);
  auto m = static_cast<std::uint64_t>(population * p1 * p2);
  auto est = Chapman(n1, n2, m);
  EXPECT_NEAR(est.population, static_cast<double>(population),
              static_cast<double>(population) * 0.02);
}

TEST(CaptureRecapture, SchnabelMatchesChapmanOnTwoOccasions) {
  std::vector<std::uint64_t> catches{2000, 3000};
  std::vector<std::uint64_t> recaptures{0, 600};
  std::vector<std::uint64_t> marked{0, 2000};
  auto est = Schnabel(catches, recaptures, marked);
  // Schnabel: 3000*2000 / (600+1) ~ 9983 for a 10000 population.
  EXPECT_NEAR(est.population, 10000.0, 200.0);
}

TEST(CaptureRecapture, SchnabelRejectsMismatchedSpans) {
  std::vector<std::uint64_t> a{1, 2};
  std::vector<std::uint64_t> b{1};
  EXPECT_EQ(Schnabel(a, b, a).population, 0.0);
}

TEST(Binning, LogNormalize) {
  EXPECT_DOUBLE_EQ(LogNormalize(0, 100), 0.0);
  EXPECT_DOUBLE_EQ(LogNormalize(100, 100), 1.0);
  double mid = LogNormalize(10, 100);
  EXPECT_GT(mid, 0.4);  // log compression pulls small values up
  EXPECT_LT(mid, 0.7);
  EXPECT_DOUBLE_EQ(LogNormalize(5, 0), 0.0);
}

TEST(Binning, BinOfBoundaries) {
  EXPECT_EQ(BinOf(0.0, 10), 0);
  EXPECT_EQ(BinOf(0.09, 10), 0);
  EXPECT_EQ(BinOf(0.1, 10), 1);
  EXPECT_EQ(BinOf(1.0, 10), 9);  // 1.0 in last bin
}

TEST(Binning, FeatureCube) {
  FeatureCube cube{10};
  cube.Add(0.05, 0.05, 0.05);
  cube.Add(0.95, 0.95, 0.95, 3);
  EXPECT_EQ(cube.count(0, 0, 0), 1u);
  EXPECT_EQ(cube.count(9, 9, 9), 3u);
  EXPECT_EQ(cube.total(), 4u);

  auto marginal = cube.Marginal01();
  EXPECT_EQ(marginal[0], 1u);
  EXPECT_EQ(marginal[9 * 10 + 9], 3u);

  auto means = cube.MeanFeature2Per01();
  EXPECT_NEAR(means[0], 0.05, 1e-9);
  EXPECT_NEAR(means[9 * 10 + 9], 0.95, 1e-9);
  EXPECT_EQ(means[5 * 10 + 5], -1.0);  // empty cell
}

}  // namespace
}  // namespace ipscope::stats
