// Process-wide observability: named counters, gauges, and histograms.
//
// The registry is the measurement substrate every pipeline stage reports
// into. Instruments are created on first use and live for the life of the
// registry, so call sites can cache references:
//
//   auto& hist = obs::GlobalRegistry().GetHistogram("sim.world.build_seconds");
//   hist.Record(elapsed_seconds);
//
// Thread-safety: instrument lookup takes a registry mutex; updates on an
// instrument are lock-free (Counter, Gauge) or take a per-instrument mutex
// (Histogram). Canonical metric names are dot-separated, lowest-level unit
// last: `sim.world.build_seconds`, `io.store.save_bytes`.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace ipscope::obs {

// Monotonically increasing event count.
class Counter {
 public:
  void Add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// Last-written point-in-time value (e.g. a throughput or a fleet size).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta);
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Fixed-bucket histogram with geometric bucket bounds, designed for
// wall-time (seconds) and size (bytes) distributions spanning many orders
// of magnitude. Quantiles interpolate linearly inside the matched bucket
// and are clamped to the observed [min, max], so a single-valued
// distribution reads back exactly.
class Histogram {
 public:
  // Buckets cover [1e-9, 1e-9 * 2^80) at 4 buckets per octave (~19%
  // relative width); values outside the range land in the edge buckets but
  // min/max stay exact.
  static constexpr double kMinBound = 1e-9;
  static constexpr int kBucketsPerOctave = 4;
  static constexpr int kNumBuckets = 320;

  struct Snapshot {
    std::uint64_t count = 0;
    double sum = 0;
    double min = 0;
    double max = 0;
    double p50 = 0;
    double p90 = 0;
    double p99 = 0;
  };

  void Record(double value);

  std::uint64_t count() const;
  double sum() const;
  // Interpolated quantile for q in [0, 1]; 0 when the histogram is empty.
  double Quantile(double q) const;
  Snapshot Snap() const;

 private:
  static int BucketIndex(double value);
  static double LowerBound(int bucket);

  mutable std::mutex mu_;
  std::array<std::uint64_t, kNumBuckets> buckets_{};  // guards: mu_
  std::uint64_t count_ = 0;                           // guards: mu_
  double sum_ = 0;                                    // guards: mu_
  double min_ = 0;                                    // guards: mu_
  double max_ = 0;                                    // guards: mu_
};

// Named instrument registry. Returned references stay valid until the
// registry is destroyed; re-requesting a name returns the same instrument.
class Registry {
 public:
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  // Sorted (name, value) gauge snapshot, for reports and tests.
  std::vector<std::pair<std::string, double>> GaugeValues() const;

  // Serializes every instrument as a single JSON object:
  //   {"counters": {...}, "gauges": {...},
  //    "histograms": {"name": {"count":..,"sum":..,"min":..,"max":..,
  //                            "p50":..,"p90":..,"p99":..}, ...}}
  void WriteJson(std::ostream& os) const;
  std::string ToJson() const;
  void WriteJsonFile(const std::string& path) const;

  // Serializes every instrument in the Prometheus text exposition format
  // 0.0.4 — the groundwork a scraping daemon (ROADMAP item 3) consumes.
  // Dotted canonical names map to Prometheus names by replacing every
  // character outside [a-zA-Z0-9_:] with '_' (a leading digit gets a '_'
  // prefix); each family carries a # HELP line holding the original dotted
  // name. Counters emit as `counter`, gauges as `gauge`, histograms as
  // `summary` (quantile 0.5/0.9/0.99 series plus _sum and _count).
  void WritePrometheus(std::ostream& os) const;
  std::string ToPrometheus() const;
  void WritePrometheusFile(const std::string& path) const;

 private:
  // Sorted snapshots for the serializers above.
  std::vector<std::pair<std::string, std::uint64_t>> CounterValues() const;
  std::vector<std::pair<std::string, Histogram::Snapshot>> HistogramSnapshots()
      const;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;      // guards: mu_
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;          // guards: mu_
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;  // guards: mu_
};

// Maps a dotted canonical metric name onto the Prometheus data model
// ([a-zA-Z_:][a-zA-Z0-9_:]*): every invalid character becomes '_', and a
// leading digit gets a '_' prefix. Exposed for tests and for callers that
// need to predict exposition names.
std::string PrometheusName(const std::string& name);

// The process-global registry every pipeline stage reports into.
Registry& GlobalRegistry();

}  // namespace ipscope::obs
