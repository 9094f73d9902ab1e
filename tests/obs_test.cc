#include <gtest/gtest.h>

#include <cctype>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "obs/registry.h"
#include "obs/timer.h"
#include "obs/trace.h"

namespace ipscope::obs {
namespace {

// Minimal JSON syntax checker (objects, arrays, strings, numbers,
// true/false/null) — enough to assert that serialized output is valid JSON
// without pulling in a JSON library.
class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : s_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Eof() const { return pos_ >= s_.size(); }
  char Peek() const { return s_[pos_]; }
  bool Consume(char c) {
    if (Eof() || Peek() != c) return false;
    ++pos_;
    return true;
  }
  void SkipWs() {
    while (!Eof() && std::isspace(static_cast<unsigned char>(Peek()))) ++pos_;
  }

  bool String() {
    if (!Consume('"')) return false;
    while (!Eof() && Peek() != '"') {
      if (Peek() == '\\') {
        ++pos_;
        if (Eof()) return false;
      }
      ++pos_;
    }
    return Consume('"');
  }

  bool Number() {
    std::size_t start = pos_;
    if (!Eof() && Peek() == '-') ++pos_;
    while (!Eof() && (std::isdigit(static_cast<unsigned char>(Peek())) ||
                      Peek() == '.' || Peek() == 'e' || Peek() == 'E' ||
                      Peek() == '+' || Peek() == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool Value() {
    SkipWs();
    if (Eof()) return false;
    char c = Peek();
    if (c == '{') return Object();
    if (c == '[') return Array();
    if (c == '"') return String();
    if (c == 't') return Literal("true");
    if (c == 'f') return Literal("false");
    if (c == 'n') return Literal("null");
    return Number();
  }

  bool Object() {
    if (!Consume('{')) return false;
    SkipWs();
    if (Consume('}')) return true;
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (!Consume(':')) return false;
      if (!Value()) return false;
      SkipWs();
      if (Consume('}')) return true;
      if (!Consume(',')) return false;
    }
  }

  bool Array() {
    if (!Consume('[')) return false;
    SkipWs();
    if (Consume(']')) return true;
    while (true) {
      if (!Value()) return false;
      SkipWs();
      if (Consume(']')) return true;
      if (!Consume(',')) return false;
    }
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

TEST(ObsCounter, AddAndRead) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(ObsGauge, SetAndAdd) {
  Gauge g;
  g.Set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.Add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
  g.Set(7.0);
  EXPECT_DOUBLE_EQ(g.value(), 7.0);
}

TEST(ObsHistogram, CountSumMinMax) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);
  for (double v : {4.0, 1.0, 9.0}) h.Record(v);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 14.0);
  auto s = h.Snap();
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
}

TEST(ObsHistogram, QuantilesOnUniformDistribution) {
  Histogram h;
  for (int i = 1; i <= 10000; ++i) h.Record(static_cast<double>(i));
  auto s = h.Snap();
  // Linear interpolation inside geometric buckets keeps quantiles of a
  // uniform distribution within a few percent.
  EXPECT_NEAR(s.p50, 5000.0, 0.03 * 5000.0);
  EXPECT_NEAR(s.p90, 9000.0, 0.03 * 9000.0);
  EXPECT_NEAR(s.p99, 9900.0, 0.03 * 9900.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 10000.0);
}

TEST(ObsHistogram, SingleValueDistributionIsExact) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.Record(0.25);
  // Clamping to [min, max] makes a point-mass distribution read back
  // exactly at every quantile.
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.25);
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 0.25);
}

TEST(ObsHistogram, TinyAndZeroValues) {
  Histogram h;
  h.Record(0.0);
  h.Record(1e-12);  // below the first bucket bound
  auto s = h.Snap();
  EXPECT_EQ(s.count, 2u);
  EXPECT_GE(s.p50, 0.0);
  EXPECT_LE(s.p99, 1e-12);
}

TEST(ObsRegistry, SameNameReturnsSameInstrument) {
  Registry r;
  Counter& a = r.GetCounter("x.count");
  Counter& b = r.GetCounter("x.count");
  EXPECT_EQ(&a, &b);
  a.Add(3);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_NE(static_cast<void*>(&r.GetHistogram("x.count")),
            static_cast<void*>(&a));  // separate namespaces per kind
}

TEST(ObsRegistry, ConcurrentIncrementsAreExact) {
  Registry r;
  Counter& counter = r.GetCounter("mt.count");
  Histogram& hist = r.GetHistogram("mt.seconds");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&r, &counter, &hist, t] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.Add();
        hist.Record(1e-3 * (t + 1));
        // Lookups race with updates from other threads too.
        r.GetGauge("mt.gauge").Set(static_cast<double>(i));
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(counter.value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(hist.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(ObsRegistry, JsonIsValidAndComplete) {
  Registry r;
  r.GetCounter("io.store.save_bytes").Add(12345);
  r.GetGauge("io.store.save_mb_per_s").Set(87.5);
  auto& h = r.GetHistogram("sim.world.build_seconds");
  h.Record(0.5);
  h.Record(1.5);
  std::string json = r.ToJson();
  EXPECT_TRUE(JsonChecker{json}.Valid()) << json;
  for (const char* needle :
       {"\"counters\"", "\"gauges\"", "\"histograms\"",
        "\"io.store.save_bytes\": 12345", "\"sim.world.build_seconds\"",
        "\"p50\"", "\"p90\"", "\"p99\"", "\"count\": 2"}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle << "\n" << json;
  }
}

TEST(ObsRegistry, EmptyRegistryJsonIsValid) {
  Registry r;
  EXPECT_TRUE(JsonChecker{r.ToJson()}.Valid()) << r.ToJson();
}

TEST(ObsTimer, ScopedTimerRecordsSeconds) {
  Registry r;
  {
    ScopedTimer timer{r, "stage.seconds"};
  }
  auto& h = r.GetHistogram("stage.seconds");
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GE(h.sum(), 0.0);
  EXPECT_LT(h.sum(), 60.0);  // sanity: a no-op scope is not a minute long
}

TEST(ObsTimer, StopIsIdempotent) {
  Registry r;
  ScopedTimer timer{r, "stop.seconds"};
  double first = timer.Stop();
  EXPECT_DOUBLE_EQ(timer.Stop(), first);
  EXPECT_EQ(r.GetHistogram("stop.seconds").count(), 1u);
}

TEST(ObsTrace, DisabledRecorderDropsEvents) {
  TraceRecorder rec;
  rec.AddComplete("x", "cat", 0, 10);
  EXPECT_EQ(rec.size(), 0u);
}

TEST(ObsTrace, EventsAreMonotonicallyConsistent) {
  TraceRecorder rec;
  rec.Enable();
  for (int i = 0; i < 5; ++i) {
    std::int64_t start = rec.NowMicros();
    volatile double sink = 0;
    for (int j = 0; j < 1000; ++j) sink = sink + j;
    rec.AddComplete("stage." + std::to_string(i), "test", start,
                    rec.NowMicros() - start);
  }
  auto events = rec.Events();
  ASSERT_EQ(events.size(), 5u);
  std::int64_t now = rec.NowMicros();
  for (const auto& e : events) {
    EXPECT_GE(e.ts_us, 0);
    EXPECT_GE(e.dur_us, 0);
    EXPECT_LE(e.ts_us + e.dur_us, now);
  }
}

TEST(ObsTrace, WriteProducesValidSortedChromeTraceJson) {
  TraceRecorder rec;
  rec.Enable();
  // Insert out of order; Write must sort by start timestamp.
  rec.AddComplete("late", "test", 500, 10);
  rec.AddComplete("early \"quoted\\name\"", "test", 100, 50);
  std::ostringstream os;
  rec.Write(os);
  std::string json = os.str();
  EXPECT_TRUE(JsonChecker{json}.Valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_LT(json.find("early"), json.find("late"));
}

TEST(ObsSpan, RecordsHistogramAndTraceEvent) {
  TraceRecorder& trace = GlobalTrace();
  bool was_enabled = trace.enabled();
  trace.Enable();
  std::size_t before = trace.size();
  auto& hist = GlobalRegistry().GetHistogram("obs_test.span_seconds");
  std::uint64_t count_before = hist.count();
  {
    Span span{"obs_test.span_seconds"};
  }
  EXPECT_EQ(hist.count(), count_before + 1);
  EXPECT_GT(trace.size(), before);
  if (!was_enabled) trace.Disable();
}

// Regression: the trace serializer used to flatten control characters to
// spaces (silent corruption); it now shares obs::json::Escape with the
// registry, so a hostile name must come out \u-escaped and the document
// must stay parseable.
TEST(ObsTrace, ControlCharactersInNamesAreEscapedNotFlattened) {
  TraceRecorder rec;
  rec.Enable();
  rec.AddComplete(std::string("bad\x01name\tand\nnewline"), "cat\x02", 0, 10);
  std::ostringstream os;
  rec.Write(os);
  std::string json = os.str();
  EXPECT_TRUE(JsonChecker{json}.Valid()) << json;
  EXPECT_NE(json.find("bad\\u0001name\\tand\\nnewline"), std::string::npos)
      << json;
  EXPECT_NE(json.find("cat\\u0002"), std::string::npos) << json;
  // The original bug: control bytes replaced with ' ', losing the name.
  EXPECT_EQ(json.find("bad name"), std::string::npos) << json;
}

TEST(ObsRegistry, ControlCharactersInMetricNamesStayValidJson) {
  Registry r;
  r.GetCounter(std::string("weird\x1fname\nwith \"quotes\"")).Add(1);
  r.GetGauge("tab\tgauge").Set(1.0);
  std::string json = r.ToJson();
  EXPECT_TRUE(JsonChecker{json}.Valid()) << json;
  EXPECT_NE(json.find("weird\\u001fname\\nwith \\\"quotes\\\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("tab\\tgauge"), std::string::npos) << json;
}

TEST(ObsJsonUnicode, SurrogatePairDecodesToFourByteUtf8) {
  // U+1F600 (😀) spelled as a UTF-16 surrogate pair. External clients
  // (serve requests) are allowed to send arbitrary JSON-escaped text.
  auto v = json::Parse(R"("\uD83D\uDE00")");
  EXPECT_EQ(v.AsString(), "\xF0\x9F\x98\x80");
}

TEST(ObsJsonUnicode, SurrogatePairRoundTripsThroughEscape) {
  // Escape passes UTF-8 bytes >= 0x20 through untouched, so a decoded
  // pair embedded back into a document parses to the same bytes.
  auto decoded = json::Parse(R"("\uD800\uDC00")").AsString();  // U+10000
  EXPECT_EQ(decoded, "\xF0\x90\x80\x80");
  auto reparsed = json::Parse("\"" + json::Escape(decoded) + "\"");
  EXPECT_EQ(reparsed.AsString(), decoded);
}

TEST(ObsJsonUnicode, BasicPlaneEscapesStillDecode) {
  EXPECT_EQ(json::Parse(R"("\u0041")").AsString(), "A");
  EXPECT_EQ(json::Parse(R"("\u00E9")").AsString(), "\xC3\xA9");    // é
  EXPECT_EQ(json::Parse(R"("\u20AC")").AsString(), "\xE2\x82\xAC");  // €
}

TEST(ObsJsonUnicode, LoneHighSurrogateIsRejectedWithOffset) {
  try {
    json::Parse(R"("\uD800")");
    FAIL() << "lone high surrogate must not parse";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string_view{e.what()}.find("surrogate"),
              std::string_view::npos)
        << e.what();
    EXPECT_NE(std::string_view{e.what()}.find("offset"),
              std::string_view::npos)
        << e.what();
  }
}

TEST(ObsJsonUnicode, LoneLowSurrogateIsRejected) {
  EXPECT_THROW(json::Parse(R"("\uDC00")"), std::runtime_error);
}

TEST(ObsJsonUnicode, ReversedSurrogatePairIsRejected) {
  EXPECT_THROW(json::Parse(R"("\uDE00\uD83D")"), std::runtime_error);
}

TEST(ObsJsonUnicode, HighSurrogateBeforeNonEscapeIsRejected) {
  EXPECT_THROW(json::Parse(R"("\uD83Dxx")"), std::runtime_error);
  EXPECT_THROW(json::Parse(R"("\uD83D\n")"), std::runtime_error);
  EXPECT_THROW(json::Parse(R"("\uD83DA")"), std::runtime_error);
}


}  // namespace
}  // namespace ipscope::obs
