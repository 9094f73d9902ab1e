// Streaming summary statistics (Welford) and simple series helpers.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace ipscope::stats {

// Single-pass mean/variance/min/max accumulator (Welford's algorithm).
class Summary {
 public:
  void Add(double x) {
    ++n_;
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }

  std::uint64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Centered moving average with window `w` (odd or even; even windows use the
// trailing convention: average of the last w values). Used for the trend
// line in Fig 9c.
std::vector<double> MovingAverage(std::span<const double> series, int w);

// Pearson correlation coefficient of two equal-length series.
double PearsonCorrelation(std::span<const double> x, std::span<const double> y);

// Gini coefficient of a non-negative sample (0 = perfectly even, ->1 =
// concentrated in one element). Used to summarize traffic concentration
// across addresses (complementing Fig 9's top-decile share).
double Gini(std::vector<double> values);
// The same coefficient of an already ascending sample; Gini(v) equals
// GiniSorted of v sorted, bit for bit.
double GiniSorted(std::span<const double> sorted);

}  // namespace ipscope::stats
