// Query-daemon tests: frame decoding, the DirectAnswer oracle, the
// per-snapshot aggregate memo and each popcount target of the sweep that
// fills it, snapshot isolation under concurrent reload, a multi-threaded
// hammer that diffs every served response against direct
// ActivityStore/analysis calls on the same snapshot, and the TCP accept
// loop's thread reaping, bounded drain past stalled and non-reading
// clients, survival of peers that reset mid-write, and fd-exhaustion
// backoff.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <future>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "activity/churn.h"
#include "activity/pattern.h"
#include "activity/store.h"
#include "cdn/observatory.h"
#include "geo/country.h"
#include "netbase/prefix.h"
#include "obs/json.h"
#include "obs/registry.h"
#include "obs/timer.h"
#include "par/pool.h"
#include "serve/frame.h"
#include "serve/server.h"
#include "serve/smoke.h"
#include "serve/tcp.h"
#include "sim/world.h"

namespace ipscope::serve {
namespace {

// A small deterministic store: three /24 blocks under 10.0.0.0/16 plus one
// far-away block, 14 days, distinct per-block activity shapes. `variant`
// perturbs day coverage so two stores built from it answer differently.
activity::ActivityStore MakeStore(int variant = 0) {
  activity::ActivityStore store{14};
  // Insertion keeps blocks sorted, so grab each matrix only after all four
  // keys exist (GetOrCreate may move earlier matrices).
  for (net::BlockKey key : {0x0A0000, 0x0A0001, 0x0A0002, 0xC0A800}) {
    store.GetOrCreate(key);
  }
  activity::ActivityMatrix& a = store.GetOrCreate(0x0A0000);  // 10.0.0.0/24
  activity::ActivityMatrix& b = store.GetOrCreate(0x0A0001);  // 10.0.1.0/24
  activity::ActivityMatrix& c = store.GetOrCreate(0x0A0002);  // 10.0.2.0/24
  activity::ActivityMatrix& d = store.GetOrCreate(0xC0A800);  // 192.168.0.0/24
  for (int day = 0; day < 14; ++day) {
    for (int host = 0; host < 40; ++host) a.Set(day, host);  // constant
    if (day % 2 == 0) b.Set(day, 7);                         // periodic
    c.Set(day, day * 3);                                     // wandering
    if (day < 7) d.Set(day, 1);                              // disappears
  }
  if (variant != 0) store.SetDayCovered(0, false);
  return store;
}

std::vector<BlockAttribution> MakeAttribution() {
  std::int16_t country_a = 0;
  std::int16_t country_b = 1;
  return {
      {0x0A0000, 65001, country_a},
      {0x0A0001, 65001, country_b},
      {0x0A0002, 65002, country_a},
      {0xC0A800, 65002, country_b},
  };
}

std::uint64_t ParseSnapshotId(const std::string& response) {
  auto doc = obs::json::Parse(response);
  const obs::json::Value* id = doc.Find("snapshot");
  return id ? static_cast<std::uint64_t>(id->AsNumber()) : 0;
}

// --- framing ---------------------------------------------------------------

TEST(ServeFrame, EncodeDecodeRoundTrip) {
  std::string frame = EncodeFrame(R"({"endpoint": "summary"})");
  auto decoded = DecodeFrame(frame);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().body, R"({"endpoint": "summary"})");
  EXPECT_EQ(decoded.value().consumed, frame.size());
}

TEST(ServeFrame, EmptyBodyRoundTrips) {
  std::string frame = EncodeFrame("");
  ASSERT_EQ(frame.size(), kFrameHeaderBytes);
  auto decoded = DecodeFrame(frame);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value().body.empty());
}

TEST(ServeFrame, TruncatedHeaderIsTyped) {
  auto decoded = DecodeFrame("IPS");
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().kind, FrameError::Kind::kTruncated);
  EXPECT_NE(decoded.error().ToString().find("truncated"), std::string::npos);
}

TEST(ServeFrame, BadMagicIsTypedWithOffset) {
  std::string frame = EncodeFrame("{}");
  frame[0] = 'X';
  auto decoded = DecodeFrame(frame);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().kind, FrameError::Kind::kBadMagic);
  EXPECT_EQ(decoded.error().offset, 0u);
}

TEST(ServeFrame, StoreFileMagicIsRejected) {
  // A v2 store file piped at the daemon must fail as bad magic, not hang.
  auto decoded = DecodeFrame("IPSCOPE2........");
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().kind, FrameError::Kind::kBadMagic);
}

TEST(ServeFrame, OversizedBodyIsRejectedBeforeAllocation) {
  std::string frame = EncodeFrame("x");
  // Patch the length field to 2 MiB against a 1 MiB ceiling.
  std::uint32_t huge = 2u << 20;
  for (int i = 0; i < 4; ++i) {
    frame[4 + static_cast<std::size_t>(i)] =
        static_cast<char>((huge >> (8 * i)) & 0xFF);
  }
  auto decoded = DecodeFrame(frame, kDefaultMaxBodyBytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().kind, FrameError::Kind::kOversized);
  EXPECT_EQ(decoded.error().offset, 4u);
}

TEST(ServeFrame, TruncatedBodyIsTyped) {
  std::string frame = EncodeFrame("hello world");
  frame.resize(frame.size() - 4);
  auto decoded = DecodeFrame(frame);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().kind, FrameError::Kind::kTruncated);
}

TEST(ServeFrame, KindNamesAreStable) {
  EXPECT_STREQ(FrameErrorKindName(FrameError::Kind::kTruncated), "truncated");
  EXPECT_STREQ(FrameErrorKindName(FrameError::Kind::kBadMagic), "bad-magic");
  EXPECT_STREQ(FrameErrorKindName(FrameError::Kind::kOversized), "oversized");
}

// --- DirectAnswer oracle anchors -------------------------------------------
//
// DirectAnswer is the oracle every other test diffs against, so it is
// itself anchored here against direct store/analysis calls.

TEST(ServeDirect, SummaryMatchesStoreCounts) {
  auto store = MakeStore();
  std::string response =
      Server::DirectAnswer(store, 1, {}, R"({"endpoint": "summary"})");
  auto doc = obs::json::Parse(response);
  EXPECT_TRUE(doc.Find("ok")->AsBool());
  EXPECT_EQ(doc.Find("endpoint")->AsString(), "summary");
  EXPECT_EQ(ParseSnapshotId(response), 1u);
  const obs::json::Value* result = doc.Find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->Find("days")->AsNumber(), store.days());
  EXPECT_EQ(result->Find("blocks")->AsNumber(),
            static_cast<double>(store.keys().size()));
  EXPECT_EQ(result->Find("unique_addresses")->AsNumber(),
            static_cast<double>(store.CountActive(0, store.days())));
  const auto& daily = result->Find("active_per_day")->AsArray();
  auto want = store.DailyActiveCounts();
  ASSERT_EQ(daily.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(daily[i].AsNumber(), static_cast<double>(want[i]));
  }
}

TEST(ServeDirect, ChurnRendersAnalyzerResultsExactly) {
  auto store = MakeStore();
  activity::ChurnAnalyzer analyzer{store};
  auto series = analyzer.Churn(7);
  std::string response = Server::DirectAnswer(
      store, 1, {}, R"({"endpoint": "churn", "window": 7})");
  // Bit-identity contract: the response must contain each percentage
  // rendered with serve::JsonNumber (%.17g), not a re-rounded variant.
  for (double v : series.up_pct) {
    EXPECT_NE(response.find(JsonNumber(v)), std::string::npos)
        << "up_pct " << v << " missing from " << response;
  }
  for (double v : series.down_pct) {
    EXPECT_NE(response.find(JsonNumber(v)), std::string::npos);
  }
  EXPECT_NE(response.find(JsonNumber(series.up.median)), std::string::npos);
  EXPECT_NE(response.find(JsonNumber(series.down.median)), std::string::npos);
  auto doc = obs::json::Parse(response);
  const auto& pairs = doc.Find("result")->Find("pairs")->AsArray();
  ASSERT_EQ(pairs.size(), series.pairs.size());
}

TEST(ServeDirect, PointReportsAbsentBlock) {
  auto store = MakeStore();
  std::string response = Server::DirectAnswer(
      store, 1, {}, R"({"endpoint": "point", "block": "10.9.9.0/24"})");
  auto doc = obs::json::Parse(response);
  EXPECT_TRUE(doc.Find("ok")->AsBool());
  EXPECT_FALSE(doc.Find("result")->Find("present")->AsBool());
}

TEST(ServeDirect, PointHostListsActiveDays) {
  auto store = MakeStore();
  std::string response = Server::DirectAnswer(
      store, 1, {},
      R"({"endpoint": "point", "block": "10.0.1.0/24", "host": 7})");
  auto doc = obs::json::Parse(response);
  const obs::json::Value* result = doc.Find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->Find("active_days")->AsNumber(), 7.0);  // days 0,2,..,12
  const auto& days = result->Find("days")->AsArray();
  ASSERT_EQ(days.size(), 7u);
  for (std::size_t i = 0; i < days.size(); ++i) {
    EXPECT_EQ(days[i].AsNumber(), static_cast<double>(2 * i));
  }
}

TEST(ServeDirect, PrefixCountsOnlyContainedBlocks) {
  auto store = MakeStore();
  std::string response = Server::DirectAnswer(
      store, 1, {}, R"({"endpoint": "prefix", "prefix": "10.0.0.0/16"})");
  auto doc = obs::json::Parse(response);
  const obs::json::Value* result = doc.Find("result");
  ASSERT_NE(result, nullptr);
  // 192.168.0.0/24 must be excluded: 3 of the 4 blocks are under 10.0/16.
  EXPECT_EQ(result->Find("active_blocks")->AsNumber(), 3.0);
  EXPECT_EQ(result->Find("active_addresses")->AsNumber(),
            40.0 + 1.0 + 14.0);  // constant + periodic + wandering
}

TEST(ServeDirect, AttributionEndpointsNeedTheTable) {
  auto store = MakeStore();
  std::string response = Server::DirectAnswer(
      store, 1, {}, R"({"endpoint": "as", "asn": 65001})");
  auto doc = obs::json::Parse(response);
  EXPECT_FALSE(doc.Find("ok")->AsBool());
  EXPECT_EQ(doc.Find("error")->Find("kind")->AsString(),
            "attribution-unavailable");
}

TEST(ServeDirect, AsEndpointAggregatesAttributedBlocks) {
  auto store = MakeStore();
  auto attribution = MakeAttribution();
  std::string response = Server::DirectAnswer(
      store, 1, attribution, R"({"endpoint": "as", "asn": 65001})");
  auto doc = obs::json::Parse(response);
  ASSERT_TRUE(doc.Find("ok")->AsBool());
  const obs::json::Value* result = doc.Find("result");
  EXPECT_EQ(result->Find("attributed_blocks")->AsNumber(), 2.0);
  EXPECT_EQ(result->Find("active_addresses")->AsNumber(), 40.0 + 1.0);
}

TEST(ServeDirect, CountryEndpointUsesGeoIndex) {
  auto store = MakeStore();
  auto attribution = MakeAttribution();
  std::string code{geo::Countries()[0].code};
  std::string response = Server::DirectAnswer(
      store, 1, attribution,
      R"({"endpoint": "country", "code": ")" + code + "\"}");
  auto doc = obs::json::Parse(response);
  ASSERT_TRUE(doc.Find("ok")->AsBool());
  // Country index 0 owns 10.0.0.0/24 (constant) and 10.0.2.0/24 (wandering).
  EXPECT_EQ(doc.Find("result")->Find("attributed_blocks")->AsNumber(), 2.0);
  EXPECT_EQ(doc.Find("result")->Find("active_addresses")->AsNumber(),
            40.0 + 14.0);
}

TEST(ServeDirect, TypedErrorsForBadInput) {
  auto store = MakeStore();
  auto kind_of = [&](std::string_view body) {
    auto doc = obs::json::Parse(Server::DirectAnswer(store, 1, {}, body));
    EXPECT_FALSE(doc.Find("ok")->AsBool());
    return doc.Find("error")->Find("kind")->AsString();
  };
  EXPECT_EQ(kind_of("{not json"), "bad-json");
  EXPECT_EQ(kind_of(R"({"endpoint": "no-such"})"), "unknown-endpoint");
  EXPECT_EQ(kind_of(R"({"endpoint": "point"})"), "bad-request");
  EXPECT_EQ(kind_of(R"({"endpoint": "prefix", "prefix": "10.0.0.0/28"})"),
            "bad-request");  // length > 24
  EXPECT_EQ(kind_of(R"({"endpoint": "country", "code": "zz"})"),
            "bad-request");
  EXPECT_EQ(kind_of(R"({"endpoint": "churn", "window": 0})"), "bad-request");
}

// --- Server: frames -----------------------------------------------------------

TEST(ServeServer, HandleFrameWrapsBadFramesAsTypedErrors) {
  Server server{MakeStore()};
  std::string response_frame = server.HandleFrame("garbage-not-a-frame");
  auto decoded = DecodeFrame(response_frame);
  ASSERT_TRUE(decoded.ok());
  auto doc = obs::json::Parse(decoded.value().body);
  EXPECT_FALSE(doc.Find("ok")->AsBool());
  EXPECT_EQ(doc.Find("error")->Find("kind")->AsString(), "bad-frame");
}

TEST(ServeServer, HandleFrameRoundTripsGoodRequests) {
  Server server{MakeStore()};
  std::string body = R"({"endpoint": "summary"})";
  std::string response_frame = server.HandleFrame(EncodeFrame(body));
  auto decoded = DecodeFrame(response_frame);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().body, server.HandleRequest(body));
}

// --- per-snapshot aggregate memo ----------------------------------------------

// Every aggregate body a snapshot memoizes for MakeStore(): summary, each
// churn window, and patterns whole, under /0, a populated /8, one /24 and
// a prefix that holds no blocks.
std::vector<std::string> AggregateBodies(int days) {
  std::vector<std::string> bodies = {
      R"({"endpoint": "summary"})",
      R"({"endpoint": "patterns"})",
      R"({"endpoint": "patterns", "prefix": "0.0.0.0/0"})",
      R"({"endpoint": "patterns", "prefix": "10.0.0.0/8"})",
      R"({"endpoint": "patterns", "prefix": "10.0.1.0/24"})",
      R"({"endpoint": "patterns", "prefix": "172.16.0.0/12"})",
  };
  for (int w = 1; w <= days; ++w) {
    bodies.push_back(R"({"endpoint": "churn", "window": )" +
                     std::to_string(w) + "}");
  }
  return bodies;
}

// MakeStore(1) plus a fully utilized 10.0.3.0/24: every aggregate body
// above that can tell two stores apart answers differently than on
// MakeStore(0).
activity::ActivityStore ReloadedStore() {
  activity::ActivityStore store = MakeStore(1);
  activity::ActivityMatrix& full = store.GetOrCreate(0x0A0003);
  for (int day = 1; day < store.days(); ++day) {
    for (int host = 0; host < 256; ++host) full.Set(day, host);
  }
  return store;
}

TEST(ServeMemo, FilledSlotsMatchOracleBeforeAndAfterReload) {
  const int days = MakeStore().days();
  const auto bodies = AggregateBodies(days);
  // An aggregate carried over from snapshot 1 must be visible after the
  // reload, except for the bodies that answer alike on any two of these
  // stores: the unchanged /24, the empty prefix, and churn windows too wide
  // for a single window pair (2 * window > days; their answers still
  // differ from each other by "window").
  for (const std::string& body : bodies) {
    bool alike = body.find("10.0.1.0/24") != std::string::npos ||
                 body.find("172.16.0.0/12") != std::string::npos;
    for (int w = days / 2 + 1; w <= days; ++w) {
      alike |= body == R"({"endpoint": "churn", "window": )" +
                           std::to_string(w) + "}";
    }
    if (alike) continue;
    EXPECT_NE(Server::DirectAnswer(MakeStore(0), 1, {}, body),
              Server::DirectAnswer(ReloadedStore(), 1, {}, body))
        << body;
  }
  Server server{MakeStore(0)};
  // Fill snapshot 1's aggregates, then read each one back.
  for (const std::string& body : bodies) server.HandleRequest(body);
  for (const std::string& body : bodies) {
    EXPECT_EQ(server.HandleRequest(body),
              Server::DirectAnswer(MakeStore(0), 1, {}, body))
        << body;
  }
  ASSERT_EQ(server.Reload(ReloadedStore()), 2u);
  for (const std::string& body : bodies) {
    EXPECT_EQ(server.HandleRequest(body),
              Server::DirectAnswer(ReloadedStore(), 2, {}, body))
        << body;
  }
}

TEST(ServeMemo, SmokeAggregatesDiscriminateSnapshots) {
  // The aggregate bodies of `ipscope_cli serve-smoke` (SmokeRequests in
  // src/serve/smoke.cc) on its world, against its reloaded snapshot: the
  // same store with day 0 uncovered. summary and both churn windows answer
  // differently on the two stores under one snapshot id, so a summary or
  // churn memo carried across the reload cannot pass the smoke.
  //
  // The two patterns bodies do NOT discriminate: uncovering day 0 leaves
  // every block's pattern class unchanged on this world, so the smoke
  // cannot catch a pattern-class vector carried across the reload.
  // ServeMemo.FilledSlotsMatchOracleBeforeAndAfterReload covers that
  // case with a reload that does change the classes.
  sim::WorldConfig config;
  config.target_client_blocks = 400;
  sim::World world{config};
  activity::ActivityStore v1 = cdn::Observatory::Daily(world).BuildStore();
  activity::ActivityStore v2 = v1;
  v2.SetDayCovered(0, false);
  net::BlockKey first = v1.keys().front();
  net::Prefix p16{net::IPv4Addr{(first << 8) & 0xFFFF0000u}, 16};
  for (const char* body : {R"({"endpoint": "summary"})",
                           R"({"endpoint": "churn", "window": 7})",
                           R"({"endpoint": "churn", "window": 28})"}) {
    EXPECT_NE(Server::DirectAnswer(v1, 7, {}, body),
              Server::DirectAnswer(v2, 7, {}, body))
        << body;
  }
  for (const std::string& body :
       {std::string{R"({"endpoint": "patterns"})"},
        R"({"endpoint": "patterns", "prefix": ")" + p16.ToString() +
            "\"}"}) {
    EXPECT_EQ(Server::DirectAnswer(v1, 7, {}, body),
              Server::DirectAnswer(v2, 7, {}, body))
        << body << " now discriminates; move it to the loop above";
  }
}

// The daily store of a 400-block world.
activity::ActivityStore WorldStore() {
  sim::WorldConfig config;
  config.target_client_blocks = 400;
  sim::World world{config};
  return cdn::Observatory::Daily(world).BuildStore();
}

// `store` with day 0 and one mid-period 7-day window (on window 7's
// boundary) uncovered.
activity::ActivityStore GappedStore(activity::ActivityStore store) {
  const int gap = store.days() / 2 / 7 * 7;
  store.SetDayCovered(0, false);
  for (int d = gap; d < gap + 7; ++d) store.SetDayCovered(d, false);
  return store;
}

// The first `days` days of `full`, block for block.
activity::ActivityStore FirstDays(const activity::ActivityStore& full,
                                  int days) {
  activity::ActivityStore out{days};
  std::size_t cursor = 0;
  for (std::size_t i = 0; i < full.BlockCount(); ++i) {
    activity::ActivityMatrix& m = out.GetOrCreateFrom(&cursor, full.KeyAt(i));
    for (int d = 0; d < days; ++d) m.Row(d) = full.MatrixAt(i).Row(d);
  }
  return out;
}

// Every aggregate body of `store`: summary, patterns over the whole store
// and under eight /8s holding its blocks (10.0.0.0/8 when it has none),
// and churn at every window including every window too wide for a window
// pair and window = days.
std::vector<std::string> EveryAggregateBody(
    const activity::ActivityStore& store) {
  std::vector<std::string> bodies = {R"({"endpoint": "summary"})",
                                     R"({"endpoint": "patterns"})"};
  for (int w = 1; w <= store.days(); ++w) {
    bodies.push_back(R"({"endpoint": "churn", "window": )" +
                     std::to_string(w) + "}");
  }
  std::vector<std::uint32_t> octets;
  for (net::BlockKey key : store.keys()) {
    std::uint32_t octet = key >> 16;
    if (octets.empty() || octets.back() != octet) octets.push_back(octet);
  }
  if (octets.empty()) octets.push_back(10);
  for (std::size_t k = 0; k < std::min<std::size_t>(8, octets.size()); ++k) {
    bodies.push_back(R"({"endpoint": "patterns", "prefix": ")" +
                     std::to_string(octets[k * octets.size() / 8]) +
                     ".0.0.0/8\"}");
  }
  return bodies;
}

// The one aggregate sweep must answer every aggregate body exactly as the
// oracle does: on a world store with gaps, and on stores of 1, 2, 3 and 7
// days (a 1-day store has no window pair, yet its summary still carries
// its per-day counts) and one with no blocks, at pool sizes 1, 2 and 7.
TEST(ServeMemo, EveryAggregateMatchesOracleOnGappedStore) {
  const activity::ActivityStore full = WorldStore();
  const activity::ActivityStore gapped = GappedStore(full);
  ASSERT_GE(gapped.days(), 28);
  std::set<std::uint32_t> slash8s;
  for (net::BlockKey key : gapped.keys()) slash8s.insert(key >> 16);
  ASSERT_GE(slash8s.size(), 8u);
  const std::string week = R"({"endpoint": "churn", "window": 7})";
  ASSERT_NE(Server::DirectAnswer(gapped, 1, {}, week),
            Server::DirectAnswer(full, 1, {}, week));

  std::vector<std::pair<std::string, activity::ActivityStore>> stores;
  stores.emplace_back("gapped world", gapped);
  for (int days : {1, 2, 3, 7}) {
    stores.emplace_back(std::to_string(days) + " days",
                        FirstDays(full, days));
  }
  stores.back().second.SetDayCovered(3, false);
  stores.emplace_back("no blocks", activity::ActivityStore{7});
  ASSERT_EQ(Server::DirectAnswer(stores[1].second, 1, {},
                                 R"({"endpoint": "summary"})")
                .find(R"("active_per_day": [0])"),
            std::string::npos)
      << "the 1-day store must have activity on its day";

  const int pool_threads = par::GlobalPool().threads();
  for (int threads : {1, 2, 7}) {
    par::GlobalPool().Resize(threads);
    for (const auto& [name, store] : stores) {
      Server server{store};
      for (const std::string& body : EveryAggregateBody(store)) {
        EXPECT_EQ(server.HandleRequest(body),
                  Server::DirectAnswer(store, 1, {}, body))
            << name << " at " << threads << " threads: " << body;
      }
    }
  }
  par::GlobalPool().Resize(pool_threads);
}

// The sweep target by target on the gapped world store: each must equal
// the portable sweep in the summary, every churn window and every running
// pattern count, render the oracle's summary and churn bytes, and step
// its running counts by each block's own class. On a CPU without popcnt
// that target is skipped.
class ServeSweepTarget : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    if (GetParam() && !activity::PopCountHwAvailable()) {
      GTEST_SKIP() << "this CPU lacks popcnt; the popcnt clone of the "
                      "aggregate sweep is not checked here";
    }
  }

  Aggregates Run(const activity::ActivityStore& store) const {
    return GetParam() ? ComputeAggregatesPopcnt(store)
                      : ComputeAggregatesPortable(store);
  }
};

// A DirectAnswer response around one rendered aggregate "result".
std::string Response(const std::string& endpoint, const std::string& result) {
  return R"({"ok": true, "endpoint": ")" + endpoint +
         R"(", "snapshot": 1, )" + result + "}";
}

TEST_P(ServeSweepTarget, MatchesPortableAndOracleOnGappedStore) {
  const activity::ActivityStore store = GappedStore(WorldStore());
  const Aggregates got = Run(store);
  const Aggregates want = ComputeAggregatesPortable(store);
  EXPECT_EQ(got.summary, want.summary);
  EXPECT_EQ(Response("summary", got.summary),
            Server::DirectAnswer(store, 1, {}, R"({"endpoint": "summary"})"));
  ASSERT_EQ(got.churn.size(), static_cast<std::size_t>(store.days()));
  ASSERT_EQ(want.churn.size(), got.churn.size());
  for (int w = 1; w <= store.days(); ++w) {
    const auto i = static_cast<std::size_t>(w - 1);
    EXPECT_EQ(got.churn[i], want.churn[i]) << "window " << w;
    EXPECT_EQ(Response("churn", got.churn[i]),
              Server::DirectAnswer(store, 1, {},
                                   R"({"endpoint": "churn", "window": )" +
                                       std::to_string(w) + "}"))
        << "window " << w;
  }
  ASSERT_EQ(got.patterns.size(), store.BlockCount() + 1);
  ASSERT_EQ(want.patterns.size(), got.patterns.size());
  for (std::size_t i = 0; i < got.patterns.size(); ++i) {
    ASSERT_EQ(got.patterns[i], want.patterns[i]) << "blocks [0, " << i << ")";
    if (i == 0) continue;
    PatternCounts step{};
    for (std::size_t p = 0; p < step.size(); ++p) {
      step[p] = got.patterns[i][p] - got.patterns[i - 1][p];
    }
    PatternCounts own{};
    ++own[static_cast<std::size_t>(
        activity::ClassifyPattern(store.MatrixAt(i - 1)))];
    ASSERT_EQ(step, own) << "block " << i - 1;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ServeSweep, ServeSweepTarget, ::testing::Bool(),
    [](const ::testing::TestParamInfo<bool>& info) {
      return std::string(info.param ? "popcnt" : "portable");
    });

TEST(ServeSweep, DispatchMatchesThePortableSweep) {
  const activity::ActivityStore store = GappedStore(WorldStore());
  const Aggregates got = ComputeAggregates(store);
  const Aggregates want = ComputeAggregatesPortable(store);
  EXPECT_EQ(got.summary, want.summary);
  EXPECT_EQ(got.churn, want.churn);
  EXPECT_EQ(got.patterns, want.patterns);
}

TEST(ServeMemo, FillThatThrowsLeavesTheSlotForTheNextCaller) {
  auto& computed =
      obs::GlobalRegistry().GetCounter("serve.snapshot.aggregates_computed");
  const std::uint64_t before = computed.value();
  Memo<int> memo;
  EXPECT_THROW(memo.Get([]() -> int { throw std::runtime_error{"failed"}; }),
               std::runtime_error);
  EXPECT_EQ(computed.value(), before);
  EXPECT_EQ(memo.Get([] { return 7; }), 7);
  EXPECT_EQ(memo.Get([] { return 8; }), 7);
  EXPECT_EQ(computed.value() - before, 1u);
}

TEST(ServeMemo, ConcurrentFirstTouchComputesOnce) {
  // Eight threads race to be a fresh snapshot's first aggregate request,
  // each with a different summary/churn/patterns body: one sweep fills
  // all of them, once per snapshot.
  const std::vector<std::string> bodies = {
      R"({"endpoint": "summary"})",
      R"({"endpoint": "churn", "window": 1})",
      R"({"endpoint": "churn", "window": 5})",
      R"({"endpoint": "churn", "window": 14})",
      R"({"endpoint": "patterns"})",
      R"({"endpoint": "patterns", "prefix": "10.0.0.0/8"})",
      R"({"endpoint": "churn", "window": 7})",
      R"({"endpoint": "patterns", "prefix": "10.0.1.0/24"})",
  };
  Server server{MakeStore(0)};
  auto& computed =
      obs::GlobalRegistry().GetCounter("serve.snapshot.aggregates_computed");
  for (int variant = 0; variant < 2; ++variant) {
    if (variant == 1) server.Reload(MakeStore(1));
    const std::uint64_t id = server.snapshot_id();
    const std::uint64_t before = computed.value();
    std::vector<std::string> got(bodies.size());
    std::atomic<int> waiting{static_cast<int>(got.size())};
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < got.size(); ++t) {
      threads.emplace_back([&, t] {
        waiting.fetch_sub(1);
        while (waiting.load() > 0) std::this_thread::yield();
        got[t] = server.HandleRequest(bodies[t]);
      });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(computed.value() - before, 1u) << "snapshot " << id;
    for (const std::string& body : bodies) server.HandleRequest(body);
    EXPECT_EQ(computed.value() - before, 1u) << "snapshot " << id;
    for (std::size_t t = 0; t < got.size(); ++t) {
      EXPECT_EQ(got[t],
                Server::DirectAnswer(MakeStore(variant), id, {}, bodies[t]))
          << bodies[t];
    }
  }
}

// --- snapshot isolation -----------------------------------------------------

TEST(ServeSnapshot, ReloadGivesNewIdAndNewAnswers) {
  Server server{MakeStore(0)};
  std::string body = R"({"endpoint": "summary"})";
  std::string before = server.HandleRequest(body);
  EXPECT_EQ(ParseSnapshotId(before), 1u);
  EXPECT_EQ(before, Server::DirectAnswer(MakeStore(0), 1, {}, body));

  std::uint64_t new_id = server.Reload(MakeStore(1));
  EXPECT_EQ(new_id, 2u);
  EXPECT_EQ(server.snapshot_id(), 2u);
  std::string after = server.HandleRequest(body);
  EXPECT_EQ(ParseSnapshotId(after), 2u);
  EXPECT_EQ(after, Server::DirectAnswer(MakeStore(1), 2, {}, body));
  EXPECT_NE(before, after);  // day-0 coverage shift must be visible
}

TEST(ServeSnapshot, ConcurrentReloadNeverMixesSnapshots) {
  Server server{MakeStore(0)};
  auto oracle_even = MakeStore(1);  // installed at even ids (2, 4, ...)
  auto oracle_odd = MakeStore(0);   // id 1 and odd reinstalls (3, 5, ...)
  const std::vector<std::string> bodies = {
      R"({"endpoint": "summary"})",
      R"({"endpoint": "churn", "window": 7})",
      R"({"endpoint": "point", "block": "192.168.0.0/24"})",
  };
  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      int i = t;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string& body = bodies[static_cast<std::size_t>(i++) %
                                         bodies.size()];
        std::string got = server.HandleRequest(body);
        std::uint64_t id = ParseSnapshotId(got);
        const auto& oracle = (id % 2 == 0) ? oracle_even : oracle_odd;
        if (got != Server::DirectAnswer(oracle, id, {}, body)) ++mismatches;
      }
    });
  }
  for (int round = 0; round < 8; ++round) {
    std::uint64_t id = server.Reload(MakeStore(round % 2 == 1 ? 0 : 1));
    EXPECT_EQ(id, static_cast<std::uint64_t>(round + 2));
    std::this_thread::yield();
  }
  // A request started strictly after the last Reload must see its id.
  std::uint64_t final_id = server.snapshot_id();
  EXPECT_EQ(ParseSnapshotId(server.HandleRequest(bodies[0])), final_id);
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// --- the hammer -------------------------------------------------------------

TEST(ServeHammer, EightThreadsStayBitIdenticalToOracle) {
  Server server{MakeStore()};
  server.SetAttribution(MakeAttribution());
  auto oracle = MakeStore();
  auto attribution = MakeAttribution();
  const std::vector<std::string> bodies = {
      R"({"endpoint": "summary"})",
      R"({"endpoint": "churn", "window": 7})",
      R"({"endpoint": "churn", "window": 3})",
      R"({"endpoint": "patterns"})",
      R"({"endpoint": "patterns", "prefix": "10.0.0.0/16"})",
      R"({"endpoint": "point", "block": "10.0.0.0/24"})",
      R"({"endpoint": "point", "block": "10.0.1.0/24", "host": 7})",
      R"({"endpoint": "prefix", "prefix": "10.0.0.0/16"})",
      R"({"endpoint": "as", "asn": 65002})",
      R"({"endpoint": "no-such"})",
  };
  std::vector<std::string> expected;
  for (const std::string& body : bodies) {
    expected.push_back(
        EncodeFrame(Server::DirectAnswer(oracle, 1, attribution, body)));
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < 40; ++r) {
        std::size_t i = static_cast<std::size_t>(t + r) % bodies.size();
        if (server.HandleFrame(EncodeFrame(bodies[i])) != expected[i]) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// --- TCP transport ----------------------------------------------------------

// One numeric field of /proc/self/status ("VmSize" in kB, "Threads").
std::uint64_t ProcStatus(const std::string& field) {
  std::ifstream in{"/proc/self/status"};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) != 0) continue;
    std::istringstream value{line.substr(field.size() + 1)};
    std::uint64_t n = 0;
    value >> n;
    return n;
  }
  return 0;
}

TEST(ServeTcp, FinishedConnectionsAreReapedAndDrainJoinsLiveOnes) {
  par::GlobalPool();  // start the pool's workers before the thread baseline
  const std::uint64_t threads_before = ProcStatus("Threads");
  Server server{MakeStore()};
  TcpOptions options;
  options.poll_millis = 20;
  std::atomic<bool> stop{false};
  std::promise<int> listening;
  std::uint64_t accepted = 0;
  std::thread daemon{[&] {
    auto result = RunTcpServer(
        server, options, [&stop] { return stop.load(); },
        [&listening](int port) { listening.set_value(port); });
    accepted = result.ok() ? result.value() : 0;
  }};
  const int port = listening.get_future().get();
  const std::string body = R"({"endpoint": "summary"})";
  const std::string want = Server::DirectAnswer(MakeStore(), 1, {}, body);
  // One connection, then a wait until its thread has exited, so that at
  // most one connection thread is ever alive and VmSize moves only with
  // the threads the daemon keeps.
  const std::uint64_t threads_idle = threads_before + 1;  // + the daemon
  auto cycle = [&] {
    int fd = ConnectLoopback(port);
    if (fd < 0) return false;
    bool same = Exchange(fd, body) == want;
    bool closed = ::close(fd) == 0;
    for (int wait = 0; ProcStatus("Threads") > threads_idle; ++wait) {
      if (wait == 5000) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return closed && same;
  };

  // Warm up (malloc arenas, the thread-stack cache), then serve 500
  // sequential connections. An exited but unjoined thread keeps its ~8 MB
  // stack mapped, so holding them would grow VmSize by gigabytes.
  int bad = 0;
  for (int i = 0; i < 20; ++i) bad += cycle() ? 0 : 1;
  const std::uint64_t vm_before_kb = ProcStatus("VmSize");
  for (int i = 0; i < 500; ++i) bad += cycle() ? 0 : 1;
  const std::uint64_t vm_after_kb = ProcStatus("VmSize");
  EXPECT_EQ(bad, 0);
  EXPECT_LT(static_cast<std::int64_t>(vm_after_kb) -
                static_cast<std::int64_t>(vm_before_kb),
            100 * 1024)
      << "VmSize " << vm_before_kb << " kB -> " << vm_after_kb << " kB";

  // Drain with three live, idle connections: each is closed by its
  // connection thread and every thread is joined before RunTcpServer
  // returns.
  std::vector<int> live;
  for (int i = 0; i < 3; ++i) {
    int fd = ConnectLoopback(port);
    ASSERT_GE(fd, 0);
    EXPECT_EQ(Exchange(fd, body), want);
    live.push_back(fd);
  }
  stop.store(true);
  daemon.join();
  EXPECT_EQ(accepted, 523u);
  for (int fd : live) {
    char byte = 0;
    EXPECT_EQ(::read(fd, &byte, 1), 0);  // EOF: the server side closed
    EXPECT_EQ(::close(fd), 0);
  }
  EXPECT_EQ(ProcStatus("Threads"), threads_before);
}

// A daemon on an ephemeral port in a thread of this process, stopped and
// joined by the destructor.
class InProcessDaemon {
 public:
  explicit InProcessDaemon(int poll_millis) {
    options_.poll_millis = poll_millis;
    std::promise<int> listening;
    auto port = listening.get_future();
    thread_ = std::thread{[this, &listening] {
      auto result = RunTcpServer(
          server_, options_, [this] { return stop_.load(); },
          [&listening](int p) { listening.set_value(p); });
      EXPECT_TRUE(result.ok());
      returned_.set_value();
    }};
    port_ = port.get();
  }
  ~InProcessDaemon() {
    stop_.store(true);
    thread_.join();
  }
  InProcessDaemon(const InProcessDaemon&) = delete;
  InProcessDaemon& operator=(const InProcessDaemon&) = delete;

  int port() const { return port_; }
  // Requests the drain; returns whether RunTcpServer returned within
  // `bound` (it is still joined by the destructor).
  bool DrainWithin(std::chrono::milliseconds bound) {
    stop_.store(true);
    return returned_.get_future().wait_for(bound) ==
           std::future_status::ready;
  }

 private:
  Server server_{MakeStore()};
  TcpOptions options_;
  std::atomic<bool> stop_{false};
  std::promise<void> returned_;
  std::thread thread_;
  int port_ = 0;
};

// A client sends the first `sent` bytes of a request frame, after one
// full exchange, and then goes silent. Once stop is requested,
// RunTcpServer must return within 50 poll ticks. When it does not, the
// test closes the client, which lets the server go, and fails instead of
// hanging.
void ExpectDrainDespiteStalledClient(std::size_t sent) {
  constexpr int kPollMillis = 20;
  InProcessDaemon daemon{kPollMillis};
  const int fd = ConnectLoopback(daemon.port());
  EXPECT_GE(fd, 0);
  if (fd >= 0) {
    // The full exchange proves the connection thread is up and waiting for
    // the next header when the partial frame arrives.
    const std::string body = R"({"endpoint": "summary"})";
    EXPECT_EQ(Exchange(fd, body),
              Server::DirectAnswer(MakeStore(), 1, {}, body));
    const std::string frame = EncodeFrame(body);
    EXPECT_LT(sent, frame.size());
    EXPECT_EQ(::write(fd, frame.data(), sent), static_cast<ssize_t>(sent));
    // Let the connection thread read the partial frame before the drain.
    std::this_thread::sleep_for(std::chrono::milliseconds(5 * kPollMillis));
  }
  EXPECT_TRUE(daemon.DrainWithin(std::chrono::milliseconds(50 * kPollMillis)))
      << "drain still waiting on a client stalled after " << sent
      << " bytes of a frame";
  if (fd >= 0) {
    EXPECT_EQ(::close(fd), 0);
  }
}

TEST(ServeTcp, DrainEndsAConnectionStalledMidHeader) {
  static_assert(kFrameHeaderBytes > 5);
  ExpectDrainDespiteStalledClient(5);
}

TEST(ServeTcp, DrainEndsAConnectionStalledMidBody) {
  ExpectDrainDespiteStalledClient(kFrameHeaderBytes + 3);
}

// A client pipelines 200 requests in one write and closes without reading
// the answers. Its kernel answers the responses with a reset, and the
// daemon's next send on that connection fails; that must end the
// connection, not raise SIGPIPE in the daemon's process.
TEST(ServeTcp, PipelinedClientThatClosesEarlyLeavesTheDaemonServing) {
  InProcessDaemon daemon{20};
  const std::string body = R"({"endpoint": "summary"})";
  std::string burst;
  for (int i = 0; i < 200; ++i) burst += EncodeFrame(body);
  for (int round = 0; round < 5; ++round) {
    int fd = ConnectLoopback(daemon.port());
    ASSERT_GE(fd, 0);
    EXPECT_EQ(::send(fd, burst.data(), burst.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(burst.size()));
    EXPECT_EQ(::close(fd), 0);
  }
  int fd = ConnectLoopback(daemon.port());
  ASSERT_GE(fd, 0);
  EXPECT_EQ(Exchange(fd, body), Server::DirectAnswer(MakeStore(), 1, {}, body));
  EXPECT_EQ(::close(fd), 0);
}

// A client pipelines requests and never reads, until its own send buffer
// is full: the daemon's connection thread then waits for room to send.
// Once stop is requested, RunTcpServer must return within 50 poll ticks.
// When it does not, the test closes the client, which lets the server go,
// and fails instead of hanging.
TEST(ServeTcp, DrainEndsAConnectionThatNeverReads) {
  constexpr int kPollMillis = 20;
  InProcessDaemon daemon{kPollMillis};
  const int fd = ConnectLoopback(daemon.port());
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK), 0);
  const std::string frame = EncodeFrame(R"({"endpoint": "summary"})");
  std::size_t sent = 0;
  // Full once 10 poll ticks in a row bring no room; 256 MB is a backstop.
  for (int idle = 0; idle < 10 && sent < (std::size_t{256} << 20);) {
    ssize_t n = ::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      idle = 0;
    } else if (errno != EAGAIN && errno != EWOULDBLOCK) {
      ADD_FAILURE() << "send: " << std::strerror(errno);
      break;
    } else {
      ++idle;
      std::this_thread::sleep_for(std::chrono::milliseconds(kPollMillis));
    }
  }
  EXPECT_LT(sent, std::size_t{256} << 20) << "the send buffer never filled";
  EXPECT_TRUE(daemon.DrainWithin(std::chrono::milliseconds(50 * kPollMillis)))
      << "drain still waiting on a client that never reads (" << sent
      << " request bytes sent)";
  EXPECT_EQ(::close(fd), 0);
}

TEST(ServeTcp, AcceptBacksOffWhenOutOfDescriptors) {
  constexpr int kPollMillis = 20;
  constexpr double kRunSeconds = 0.3;
  int report[2];
  ASSERT_EQ(::pipe(report), 0);
  pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // The daemon, capped to the descriptors it already holds once it
    // listens: every accept then fails with EMFILE while the parent's
    // connection stays queued.
    Server server{MakeStore()};
    TcpOptions options;
    options.poll_millis = kPollMillis;
    std::optional<obs::Stopwatch> since_listen;
    auto result = RunTcpServer(
        server, options,
        [&since_listen] {
          return since_listen && since_listen->Seconds() >= kRunSeconds;
        },
        [&](int port) {
          if (::write(report[1], &port, sizeof(port)) != sizeof(port)) {
            ::_exit(2);
          }
          int lowest_free = ::dup(report[1]);
          if (lowest_free < 0 || ::close(lowest_free) != 0) ::_exit(3);
          struct rlimit limit = {};
          if (::getrlimit(RLIMIT_NOFILE, &limit) != 0) ::_exit(4);
          limit.rlim_cur = static_cast<rlim_t>(lowest_free);
          if (::setrlimit(RLIMIT_NOFILE, &limit) != 0) ::_exit(5);
          since_listen.emplace();
        });
    std::uint64_t errors =
        obs::GlobalRegistry().GetCounter("serve.tcp.accept_errors").value();
    if (::write(report[1], &errors, sizeof(errors)) != sizeof(errors)) {
      ::_exit(6);
    }
    ::_exit(result.ok() && result.value() == 0 ? 0 : 1);
  }
  ASSERT_EQ(::close(report[1]), 0);
  int port = 0;
  ASSERT_TRUE(ReadFully(report[0], reinterpret_cast<char*>(&port),
                        sizeof(port)));
  int fd = ConnectLoopback(port);
  EXPECT_GE(fd, 0);
  std::uint64_t errors = 0;
  EXPECT_TRUE(ReadFully(report[0], reinterpret_cast<char*>(&errors),
                        sizeof(errors)));
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "child status " << status;
  EXPECT_GE(errors, 1u);
  EXPECT_LE(errors, static_cast<std::uint64_t>(kRunSeconds * 1000 /
                                               kPollMillis) +
                        2);
  if (fd >= 0) {
    EXPECT_EQ(::close(fd), 0);
  }
  EXPECT_EQ(::close(report[0]), 0);
}

}  // namespace
}  // namespace ipscope::serve
