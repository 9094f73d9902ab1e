// Conformance tests for obs::Registry's Prometheus text exposition
// (format 0.0.4) and the obs::json escape/parse helpers backing it.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/registry.h"

namespace ipscope::obs {
namespace {

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is{text};
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

bool ValidMetricName(const std::string& name) {
  if (name.empty()) return false;
  auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           c == ':';
  };
  if (!head(name[0])) return false;
  for (char c : name) {
    if (!head(c) && !(c >= '0' && c <= '9')) return false;
  }
  return true;
}

TEST(PrometheusName, SanitizesInvalidCharacters) {
  EXPECT_EQ(PrometheusName("par.pool.chunk_seconds"),
            "par_pool_chunk_seconds");
  EXPECT_EQ(PrometheusName("io.store.save_mb_per_s"),
            "io_store_save_mb_per_s");
  EXPECT_EQ(PrometheusName("weird metric-name!"), "weird_metric_name_");
  EXPECT_EQ(PrometheusName("already_valid:name"), "already_valid:name");
}

TEST(PrometheusName, LeadingDigitGetsUnderscorePrefix) {
  EXPECT_EQ(PrometheusName("24_blocks"), "_24_blocks");
  EXPECT_EQ(PrometheusName(""), "_");
}

TEST(PrometheusExposition, CountersGaugesAndSummaries) {
  Registry r;
  r.GetCounter("par.pool.tasks_executed").Add(42);
  r.GetGauge("par.pool.imbalance_ratio").Set(1.25);
  auto& h = r.GetHistogram("par.pool.chunk_seconds");
  h.Record(0.5);
  h.Record(1.5);

  std::string text = r.ToPrometheus();
  for (const char* needle : {
           "# TYPE par_pool_tasks_executed counter",
           "par_pool_tasks_executed 42",
           "# TYPE par_pool_imbalance_ratio gauge",
           "par_pool_imbalance_ratio 1.25",
           "# TYPE par_pool_chunk_seconds summary",
           "par_pool_chunk_seconds{quantile=\"0.5\"} ",
           "par_pool_chunk_seconds{quantile=\"0.9\"} ",
           "par_pool_chunk_seconds{quantile=\"0.99\"} ",
           "par_pool_chunk_seconds_sum 2",
           "par_pool_chunk_seconds_count 2",
       }) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle << "\n" << text;
  }
}

TEST(PrometheusExposition, EveryLineIsCommentOrSample) {
  Registry r;
  r.GetCounter("cdn.observatory.rows_emitted").Add(7);
  r.GetGauge("io.store.save_mb_per_s").Set(87.5);
  r.GetHistogram("io.store.save_seconds").Record(0.01);

  for (const std::string& line : Lines(r.ToPrometheus())) {
    if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
      continue;
    }
    // Sample line: name[{labels}] SP value — and the name obeys the
    // Prometheus charset.
    auto space = line.find(' ');
    ASSERT_NE(space, std::string::npos) << line;
    std::string name = line.substr(0, space);
    auto brace = name.find('{');
    if (brace != std::string::npos) {
      EXPECT_EQ(name.back(), '}') << line;
      name = name.substr(0, brace);
    }
    EXPECT_TRUE(ValidMetricName(name)) << line;
    EXPECT_EQ(line.find(' ', space + 1), std::string::npos) << line;
  }
}

TEST(PrometheusExposition, NonFiniteGaugesUseSpecLiterals) {
  Registry r;
  r.GetGauge("g.nan").Set(std::nan(""));
  r.GetGauge("g.pos").Set(HUGE_VAL);
  r.GetGauge("g.neg").Set(-HUGE_VAL);
  std::string text = r.ToPrometheus();
  EXPECT_NE(text.find("g_nan NaN"), std::string::npos) << text;
  EXPECT_NE(text.find("g_pos +Inf"), std::string::npos) << text;
  EXPECT_NE(text.find("g_neg -Inf"), std::string::npos) << text;
}

TEST(PrometheusExposition, EmptyRegistryIsEmptyDocument) {
  Registry r;
  EXPECT_EQ(r.ToPrometheus(), "");
}

TEST(PrometheusExposition, HelpTextEscapesOriginalName) {
  Registry r;
  r.GetCounter("odd\\name\nwith.newline").Add(1);
  std::string text = r.ToPrometheus();
  // The HELP line carries the original (pre-sanitization) name with
  // backslash and newline escaped per the text-format spec.
  EXPECT_NE(text.find("odd\\\\name\\nwith.newline"), std::string::npos)
      << text;
  for (const std::string& line : Lines(text)) {
    EXPECT_EQ(line.find('\r'), std::string::npos);
  }
}

// --- obs::json, the parser serve and ipscope_bench trust ------------------

TEST(ObsJson, EscapeHandlesQuotesBackslashesAndControlChars) {
  EXPECT_EQ(json::Escape("plain"), "plain");
  EXPECT_EQ(json::Escape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(json::Escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json::Escape("tab\there"), "tab\\there");
  EXPECT_EQ(json::Escape(std::string("nul\0byte", 8)), "nul\\u0000byte");
  EXPECT_EQ(json::Escape("\x01\x1f"), "\\u0001\\u001f");
  EXPECT_EQ(json::Escape("caf\xc3\xa9"), "caf\xc3\xa9");  // UTF-8 untouched
}

TEST(ObsJson, ParseRoundTripsEscapedStrings) {
  for (const std::string& original :
       {std::string("say \"hi\""), std::string("a\\b\tc\nd"),
        std::string("nul\0byte", 8), std::string("caf\xc3\xa9")}) {
    std::string doc = "\"" + json::Escape(original) + "\"";
    json::Value v = json::Parse(doc);
    EXPECT_EQ(v.AsString(), original) << doc;
  }
}

TEST(ObsJson, ParseAcceptsFullDocuments) {
  json::Value v = json::Parse(
      R"({"schema_version": 2, "ok": true, "xs": [1, 2.5, -3e2], "nested": {"s": "x"}})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.Find("schema_version")->AsNumber(), 2);
  EXPECT_TRUE(v.Find("ok")->AsBool());
  ASSERT_EQ(v.Find("xs")->AsArray().size(), 3u);
  EXPECT_DOUBLE_EQ(v.Find("xs")->AsArray()[2].AsNumber(), -300.0);
  EXPECT_EQ(v.Find("nested")->Find("s")->AsString(), "x");
  EXPECT_EQ(v.Find("absent"), nullptr);
}

TEST(ObsJson, ParseRejectsMalformedInputLoudly) {
  for (const char* bad : {"", "{", "[1,]", "{\"a\" 1}", "tru", "1 2",
                          "\"unterminated", "\"bad \\x escape\"", "nan"}) {
    EXPECT_THROW(json::Parse(bad), std::runtime_error) << bad;
  }
}

TEST(ObsJson, ParseErrorsCarryByteOffsets) {
  try {
    json::Parse("{\"a\": }");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos)
        << e.what();
  }
}

TEST(ObsJson, TypedAccessorsThrowOnKindMismatch) {
  json::Value v = json::Parse("[1]");
  EXPECT_THROW(v.AsObject(), std::runtime_error);
  EXPECT_THROW(v.AsString(), std::runtime_error);
  EXPECT_THROW(v.AsArray()[0].AsBool(), std::runtime_error);
}

}  // namespace
}  // namespace ipscope::obs
