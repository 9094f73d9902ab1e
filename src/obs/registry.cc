#include "obs/registry.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "io/atomic_file.h"
#include "obs/json.h"

namespace ipscope::obs {

namespace {

// JSON string escaping for metric names (quotes, backslash, control chars)
// — the shared obs::json escaper, so every obs serializer escapes
// identically.
std::string EscapeJson(const std::string& s) { return json::Escape(s); }

// Finite doubles only (the registry never produces NaN/inf, but a gauge is
// user-settable); JSON has no literal for non-finite values.
std::string FormatJsonDouble(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

// Prometheus sample values, unlike JSON, have literals for non-finite
// numbers.
std::string FormatPromDouble(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

// # HELP text escaping per the text-format spec: backslash and newline.
std::string EscapeHelp(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

std::string PrometheusName(const std::string& name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (char c : name) {
    bool valid = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                 (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += valid ? c : '_';
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) {
    out.insert(out.begin(), '_');
  }
  return out;
}

void Gauge::Add(double delta) {
  double expected = value_.load(std::memory_order_relaxed);
  while (!value_.compare_exchange_weak(expected, expected + delta,
                                       std::memory_order_relaxed)) {
  }
}

int Histogram::BucketIndex(double value) {
  if (!(value > kMinBound)) return 0;
  int idx = static_cast<int>(std::log2(value / kMinBound) *
                             kBucketsPerOctave);
  return std::clamp(idx, 0, kNumBuckets - 1);
}

double Histogram::LowerBound(int bucket) {
  return kMinBound *
         std::exp2(static_cast<double>(bucket) / kBucketsPerOctave);
}

void Histogram::Record(double value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  ++buckets_[static_cast<std::size_t>(BucketIndex(value))];
}

std::uint64_t Histogram::count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

double Histogram::sum() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sum_;
}

double Histogram::Quantile(double q) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  double target = q * static_cast<double>(count_);
  double cum = 0;
  for (int b = 0; b < kNumBuckets; ++b) {
    double n = static_cast<double>(buckets_[static_cast<std::size_t>(b)]);
    if (n == 0) continue;
    if (cum + n >= target) {
      double frac = (target - cum) / n;
      double lo = LowerBound(b);
      double hi = LowerBound(b + 1);
      return std::clamp(lo + frac * (hi - lo), min_, max_);
    }
    cum += n;
  }
  return max_;
}

Histogram::Snapshot Histogram::Snap() const {
  Snapshot s;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.count = count_;
    s.sum = sum_;
    s.min = min_;
    s.max = max_;
  }
  // Quantile re-locks; fine because writers only ever append.
  s.p50 = Quantile(0.50);
  s.p90 = Quantile(0.90);
  s.p99 = Quantile(0.99);
  return s;
}

Counter& Registry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

std::vector<std::pair<std::string, std::uint64_t>> Registry::CounterValues()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    out.emplace_back(name, counter->value());
  }
  return out;
}

std::vector<std::pair<std::string, double>> Registry::GaugeValues() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, double>> out;
  out.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    out.emplace_back(name, gauge->value());
  }
  return out;
}

std::vector<std::pair<std::string, Histogram::Snapshot>>
Registry::HistogramSnapshots() const {
  std::vector<std::pair<std::string, Histogram*>> items;
  {
    std::lock_guard<std::mutex> lock(mu_);
    items.reserve(histograms_.size());
    for (const auto& [name, hist] : histograms_) {
      items.emplace_back(name, hist.get());
    }
  }
  std::vector<std::pair<std::string, Histogram::Snapshot>> out;
  out.reserve(items.size());
  for (const auto& [name, hist] : items) {
    out.emplace_back(name, hist->Snap());
  }
  return out;
}

void Registry::WriteJson(std::ostream& os) const {
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : CounterValues()) {
    os << (first ? "\n" : ",\n") << "    \"" << EscapeJson(name)
       << "\": " << value;
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : GaugeValues()) {
    os << (first ? "\n" : ",\n") << "    \"" << EscapeJson(name)
       << "\": " << FormatJsonDouble(value);
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, s] : HistogramSnapshots()) {
    os << (first ? "\n" : ",\n") << "    \"" << EscapeJson(name) << "\": {"
       << "\"count\": " << s.count << ", \"sum\": " << FormatJsonDouble(s.sum)
       << ", \"min\": " << FormatJsonDouble(s.min)
       << ", \"max\": " << FormatJsonDouble(s.max)
       << ", \"p50\": " << FormatJsonDouble(s.p50)
       << ", \"p90\": " << FormatJsonDouble(s.p90)
       << ", \"p99\": " << FormatJsonDouble(s.p99) << "}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "}\n}\n";
}

std::string Registry::ToJson() const {
  std::ostringstream os;
  WriteJson(os);
  return os.str();
}

void Registry::WriteJsonFile(const std::string& path) const {
  // Atomic temp+rename: a killed process never leaves a truncated metrics
  // file that a later collector half-reads.
  if (auto error = io::WriteFileAtomic(path, ToJson())) {
    throw std::runtime_error("obs: metrics write failed: " + *error);
  }
}

void Registry::WritePrometheus(std::ostream& os) const {
  for (const auto& [name, value] : CounterValues()) {
    std::string prom = PrometheusName(name);
    os << "# HELP " << prom << " ipscope counter " << EscapeHelp(name)
       << "\n# TYPE " << prom << " counter\n"
       << prom << " " << value << "\n";
  }
  for (const auto& [name, value] : GaugeValues()) {
    std::string prom = PrometheusName(name);
    os << "# HELP " << prom << " ipscope gauge " << EscapeHelp(name)
       << "\n# TYPE " << prom << " gauge\n"
       << prom << " " << FormatPromDouble(value) << "\n";
  }
  for (const auto& [name, s] : HistogramSnapshots()) {
    std::string prom = PrometheusName(name);
    os << "# HELP " << prom << " ipscope histogram " << EscapeHelp(name)
       << "\n# TYPE " << prom << " summary\n"
       << prom << "{quantile=\"0.5\"} " << FormatPromDouble(s.p50) << "\n"
       << prom << "{quantile=\"0.9\"} " << FormatPromDouble(s.p90) << "\n"
       << prom << "{quantile=\"0.99\"} " << FormatPromDouble(s.p99) << "\n"
       << prom << "_sum " << FormatPromDouble(s.sum) << "\n"
       << prom << "_count " << s.count << "\n";
  }
}

std::string Registry::ToPrometheus() const {
  std::ostringstream os;
  WritePrometheus(os);
  return os.str();
}

void Registry::WritePrometheusFile(const std::string& path) const {
  if (auto error = io::WriteFileAtomic(path, ToPrometheus())) {
    throw std::runtime_error("obs: metrics write failed: " + *error);
  }
}

Registry& GlobalRegistry() {
  static Registry* registry = new Registry;  // never destroyed: atexit-safe
  return *registry;
}

}  // namespace ipscope::obs
