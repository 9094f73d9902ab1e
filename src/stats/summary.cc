#include "stats/summary.h"

#include <algorithm>
#include <cmath>

namespace ipscope::stats {

double Summary::stddev() const { return std::sqrt(variance()); }

std::vector<double> MovingAverage(std::span<const double> series, int w) {
  std::vector<double> out;
  if (w <= 0 || series.size() < static_cast<std::size_t>(w)) return out;
  out.reserve(series.size() - static_cast<std::size_t>(w) + 1);
  double sum = 0;
  for (int i = 0; i < w; ++i) sum += series[static_cast<std::size_t>(i)];
  out.push_back(sum / w);
  for (std::size_t i = static_cast<std::size_t>(w); i < series.size(); ++i) {
    sum += series[i] - series[i - static_cast<std::size_t>(w)];
    out.push_back(sum / w);
  }
  return out;
}

double Gini(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return GiniSorted(values);
}

double GiniSorted(std::span<const double> sorted) {
  if (sorted.size() < 2) return 0.0;
  double cum_weighted = 0.0;
  double total = 0.0;
  const double n = static_cast<double>(sorted.size());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    cum_weighted += (static_cast<double>(i) + 1.0) * sorted[i];
    total += sorted[i];
  }
  if (total <= 0) return 0.0;
  return (2.0 * cum_weighted) / (n * total) - (n + 1.0) / n;
}

double PearsonCorrelation(std::span<const double> x,
                          std::span<const double> y) {
  if (x.size() != y.size() || x.size() < 2) return 0.0;
  Summary sx, sy;
  for (double v : x) sx.Add(v);
  for (double v : y) sy.Add(v);
  double cov = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    cov += (x[i] - sx.mean()) * (y[i] - sy.mean());
  }
  cov /= static_cast<double>(x.size() - 1);
  double denom = sx.stddev() * sy.stddev();
  return denom > 0 ? cov / denom : 0.0;
}

}  // namespace ipscope::stats
