#include "serve/server.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "activity/churn.h"
#include "activity/pattern.h"
#include "geo/country.h"
#include "obs/json.h"
#include "obs/registry.h"
#include "par/pool.h"
#include "serve/frame.h"
#include "sim/world.h"

namespace ipscope::serve {

namespace {

namespace json = obs::json;

// A routing failure with a wire-visible kind. Thrown internally by the
// endpoint handlers and rendered as {"ok": false, "error": {...}}; it
// never escapes DirectAnswer.
struct RequestError {
  std::string kind;
  std::string message;
};

[[noreturn]] void FailRequest(std::string kind, std::string message) {
  throw RequestError{std::move(kind), std::move(message)};
}

void AppendInt(std::string& out, std::int64_t v) {
  out += std::to_string(v);
}

std::string ErrorResponse(const std::string& kind, const std::string& message) {
  std::string out = R"({"ok": false, "error": {"kind": ")";
  out += json::Escape(kind);
  out += R"(", "message": ")";
  out += json::Escape(message);
  out += "\"}}";
  return out;
}

// --- request field accessors ---------------------------------------------

const json::Value* Find(const json::Value& req, const std::string& key) {
  return req.Find(key);
}

// Integer field with bounds; `fallback` when absent.
std::int64_t IntField(const json::Value& req, const std::string& key,
                      std::int64_t fallback, std::int64_t lo,
                      std::int64_t hi) {
  const json::Value* v = Find(req, key);
  if (v == nullptr) {
    if (fallback < lo || fallback > hi) {
      FailRequest("bad-request", "required field \"" + key + "\" is missing");
    }
    return fallback;
  }
  if (!v->is_number()) {
    FailRequest("bad-request", "field \"" + key + "\" must be a number");
  }
  double d = v->AsNumber();
  auto n = static_cast<std::int64_t>(d);
  if (static_cast<double>(n) != d || n < lo || n > hi) {
    FailRequest("bad-request", "field \"" + key + "\" out of range [" +
                                   std::to_string(lo) + ", " +
                                   std::to_string(hi) + "]");
  }
  return n;
}

std::string StringField(const json::Value& req, const std::string& key) {
  const json::Value* v = Find(req, key);
  if (v == nullptr || !v->is_string()) {
    FailRequest("bad-request",
                "required string field \"" + key + "\" is missing");
  }
  return v->AsString();
}

net::Prefix PrefixField(const json::Value& req, const std::string& key,
                        int max_length) {
  std::string text = StringField(req, key);
  auto prefix = net::Prefix::Parse(text);
  if (!prefix || prefix->length() > max_length) {
    FailRequest("bad-request", "field \"" + key + "\" ('" + text +
                                   "') is not a prefix of length <= " +
                                   std::to_string(max_length));
  }
  return *prefix;
}

// [day_first, day_last) window, defaulting to the full period.
std::pair<int, int> WindowFields(const json::Value& req, int days) {
  int first = static_cast<int>(IntField(req, "day_first", 0, 0, days));
  int last = static_cast<int>(IntField(req, "day_last", days, 0, days));
  if (first > last) {
    FailRequest("bad-request", "day_first must be <= day_last");
  }
  return {first, last};
}

// --- per-endpoint handlers -----------------------------------------------
// All of them render into `out` against one immutable store; determinism
// is inherited from the store reductions (ParallelReduce merges in chunk
// order, so thread count never changes a byte).

// Appends an aggregate of the answering store to `out`: through the
// snapshot's memo slot when HandleRequest answers, freshly computed when
// the oracle does (it has no snapshot, so `slot` is null).
template <typename Fill>
void AppendAggregate(std::string& out, const Memo<std::string>* slot,
                     Fill&& fill) {
  if (slot != nullptr) {
    out += slot->Get(fill);
  } else {
    out += fill();
  }
}

std::string SummaryResult(const activity::ActivityStore& store) {
  std::string out = R"("result": {"days": )";
  AppendInt(out, store.days());
  out += R"(, "blocks": )";
  AppendInt(out, static_cast<std::int64_t>(store.BlockCount()));
  out += R"(, "covered_days": )";
  AppendInt(out, store.CoveredDaysIn(0, store.days()));
  out += R"(, "unique_addresses": )";
  AppendInt(out, static_cast<std::int64_t>(store.CountActive(0, store.days())));
  out += R"(, "active_per_day": [)";
  auto daily = store.DailyActiveCounts();
  for (std::size_t i = 0; i < daily.size(); ++i) {
    if (i) out += ", ";
    AppendInt(out, daily[i]);
  }
  out += "]}";
  return out;
}

void AnswerPoint(std::string& out, const activity::ActivityStore& store,
                 const json::Value& req) {
  net::Prefix block = PrefixField(req, "block", 24);
  if (block.length() != 24) {
    FailRequest("bad-request", "field \"block\" must be a /24 prefix");
  }
  const activity::ActivityMatrix* matrix = store.Find(net::BlockKeyOf(block));
  if (matrix == nullptr) {
    out += R"("result": {"present": false})";
    return;
  }
  const json::Value* host_field = Find(req, "host");
  if (host_field != nullptr) {
    int host = static_cast<int>(IntField(req, "host", -1, 0, 255));
    out += R"("result": {"present": true, "host": )";
    AppendInt(out, host);
    out += R"(, "active_days": )";
    AppendInt(out, matrix->HostActiveDays(host));
    out += R"(, "days": [)";
    bool first = true;
    for (int d = 0; d < matrix->days(); ++d) {
      if (!matrix->Get(d, host)) continue;
      if (!first) out += ", ";
      first = false;
      AppendInt(out, d);
    }
    out += "]}";
    return;
  }
  auto features = activity::ComputeFeatures(*matrix);
  out += R"("result": {"present": true, "fd": )";
  AppendInt(out, features.filling_degree);
  out += R"(, "stu": )";
  out += JsonNumber(features.stu);
  out += R"(, "pattern": ")";
  out += activity::PatternName(activity::ClassifyPattern(features));
  out += R"(", "active_per_day": [)";
  for (int d = 0; d < matrix->days(); ++d) {
    if (d) out += ", ";
    AppendInt(out, matrix->ActiveOnDay(d));
  }
  out += "]}";
}

// Index range [lo, hi) of store blocks under `prefix` (length <= 24).
std::pair<std::size_t, std::size_t> BlockRange(
    const activity::ActivityStore& store, net::Prefix prefix) {
  auto keys = store.keys();
  net::BlockKey first_key = net::BlockKeyOf(prefix);
  std::uint64_t span = std::uint64_t{1} << (24 - prefix.length());
  auto lo = std::lower_bound(keys.begin(), keys.end(), first_key);
  auto hi = std::lower_bound(
      keys.begin(), keys.end(),
      static_cast<net::BlockKey>(
          std::min<std::uint64_t>(first_key + span, 0x1000000)));
  return {static_cast<std::size_t>(lo - keys.begin()),
          static_cast<std::size_t>(hi - keys.begin())};
}

void AnswerPrefix(std::string& out, const activity::ActivityStore& store,
                  const json::Value& req) {
  net::Prefix prefix = PrefixField(req, "prefix", 24);
  auto [day_first, day_last] = WindowFields(req, store.days());
  auto [lo, hi] = BlockRange(store, prefix);
  struct Acc {
    std::int64_t addresses = 0;
    std::int64_t blocks = 0;
  };
  Acc total = par::ParallelReduce(
      lo, hi, Acc{},
      [&store, day_first = day_first, day_last = day_last](
          Acc& acc, std::size_t first, std::size_t last) {
        for (std::size_t i = first; i < last; ++i) {
          int active = activity::PopCount(
              store.MatrixAt(i).UnionOver(day_first, day_last));
          acc.addresses += active;
          acc.blocks += active > 0 ? 1 : 0;
        }
      },
      [](Acc& into, Acc&& from) {
        into.addresses += from.addresses;
        into.blocks += from.blocks;
      },
      /*grain=*/256);
  out += R"("result": {"prefix": ")";
  out += prefix.ToString();
  out += R"(", "day_first": )";
  AppendInt(out, day_first);
  out += R"(, "day_last": )";
  AppendInt(out, day_last);
  out += R"(, "active_addresses": )";
  AppendInt(out, total.addresses);
  out += R"(, "active_blocks": )";
  AppendInt(out, total.blocks);
  out += "}";
}

// Shared body of the as/country endpoints: sum activity over the
// attributed block set selected by `match`.
template <typename MatchFn>
void AnswerAttributed(std::string& out, const activity::ActivityStore& store,
                      std::span<const BlockAttribution> attribution,
                      const json::Value& req, MatchFn&& match) {
  if (attribution.empty()) {
    FailRequest("attribution-unavailable",
                "this daemon was started without a world attribution table "
                "(--world-blocks); as/country endpoints need one");
  }
  auto [day_first, day_last] = WindowFields(req, store.days());
  std::int64_t addresses = 0;
  std::int64_t active_blocks = 0;
  std::int64_t attributed_blocks = 0;
  for (const BlockAttribution& entry : attribution) {
    if (!match(entry)) continue;
    ++attributed_blocks;
    const activity::ActivityMatrix* matrix = store.Find(entry.key);
    if (matrix == nullptr) continue;
    int active =
        activity::PopCount(matrix->UnionOver(day_first, day_last));
    addresses += active;
    active_blocks += active > 0 ? 1 : 0;
  }
  out += R"(, "day_first": )";
  AppendInt(out, day_first);
  out += R"(, "day_last": )";
  AppendInt(out, day_last);
  out += R"(, "attributed_blocks": )";
  AppendInt(out, attributed_blocks);
  out += R"(, "active_blocks": )";
  AppendInt(out, active_blocks);
  out += R"(, "active_addresses": )";
  AppendInt(out, addresses);
  out += "}";
}

void AnswerAs(std::string& out, const activity::ActivityStore& store,
              std::span<const BlockAttribution> attribution,
              const json::Value& req) {
  auto asn = static_cast<std::uint32_t>(
      IntField(req, "asn", -1, 0, std::numeric_limits<std::uint32_t>::max()));
  out += R"("result": {"asn": )";
  AppendInt(out, asn);
  AnswerAttributed(out, store, attribution, req,
                   [asn](const BlockAttribution& e) { return e.asn == asn; });
}

void AnswerCountry(std::string& out, const activity::ActivityStore& store,
                   std::span<const BlockAttribution> attribution,
                   const json::Value& req) {
  std::string code = StringField(req, "code");
  int index = geo::CountryIndex(code);
  if (index < 0) {
    FailRequest("bad-request", "unknown country code '" + code + "'");
  }
  out += R"("result": {"code": ")";
  out += json::Escape(code);
  out += "\"";
  auto want = static_cast<std::int16_t>(index);
  AnswerAttributed(
      out, store, attribution, req,
      [want](const BlockAttribution& e) { return e.country == want; });
}

std::string ChurnResult(const activity::ActivityStore& store, int window) {
  auto series = activity::ChurnAnalyzer{store}.Churn(window);
  std::string out;
  auto append_doubles = [&out](const std::vector<double>& values) {
    out += "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i) out += ", ";
      out += JsonNumber(values[i]);
    }
    out += "]";
  };
  out += R"("result": {"window": )";
  AppendInt(out, series.window_days);
  out += R"(, "pairs": [)";
  for (std::size_t i = 0; i < series.pairs.size(); ++i) {
    if (i) out += ", ";
    AppendInt(out, series.pairs[i]);
  }
  out += R"(], "up_pct": )";
  append_doubles(series.up_pct);
  out += R"(, "down_pct": )";
  append_doubles(series.down_pct);
  out += R"(, "up": {"min": )";
  out += JsonNumber(series.up.min);
  out += R"(, "median": )";
  out += JsonNumber(series.up.median);
  out += R"(, "max": )";
  out += JsonNumber(series.up.max);
  out += R"(}, "down": {"min": )";
  out += JsonNumber(series.down.min);
  out += R"(, "median": )";
  out += JsonNumber(series.down.median);
  out += R"(, "max": )";
  out += JsonNumber(series.down.max);
  out += "}}";
  return out;
}

// Running per-class block counts over store blocks [lo, hi) in key order:
// entry i counts the classes of blocks [lo, lo + i), so entry hi - lo holds
// the range's histogram and any sub-range is a difference of two entries.
std::vector<PatternCounts> CumulativePatternCounts(
    const activity::ActivityStore& store, std::size_t lo, std::size_t hi) {
  std::vector<activity::BlockPattern> classes(hi - lo);
  par::ParallelFor(
      par::GlobalPool(), lo, hi,
      [&store, &classes, lo](std::size_t first, std::size_t last) {
        for (std::size_t i = first; i < last; ++i) {
          classes[i - lo] = activity::ClassifyPattern(store.MatrixAt(i));
        }
      },
      /*grain=*/64);
  std::vector<PatternCounts> cumulative(classes.size() + 1);
  for (std::size_t i = 0; i < classes.size(); ++i) {
    cumulative[i + 1] = cumulative[i];
    ++cumulative[i + 1][static_cast<std::size_t>(classes[i])];
  }
  return cumulative;
}

void AnswerChurn(std::string& out, const activity::ActivityStore& store,
                 const json::Value& req, const Snapshot* memo) {
  int window = static_cast<int>(
      IntField(req, "window", 7, 1, std::max(1, store.days())));
  AppendAggregate(
      out,
      memo != nullptr ? &memo->churn[static_cast<std::size_t>(window - 1)]
                      : nullptr,
      [&store, window] { return ChurnResult(store, window); });
}

void AnswerPatterns(std::string& out, const activity::ActivityStore& store,
                    const json::Value& req, const Snapshot* memo) {
  std::size_t lo = 0;
  std::size_t hi = store.BlockCount();
  if (Find(req, "prefix") != nullptr) {
    std::tie(lo, hi) = BlockRange(store, PrefixField(req, "prefix", 24));
  }
  // A snapshot classifies every block once and answers any prefix as the
  // difference of two running counts; the oracle classifies just the
  // requested range.
  PatternCounts counts{};
  if (memo != nullptr) {
    const std::vector<PatternCounts>& cumulative =
        memo->patterns.Get([&store] {
          return CumulativePatternCounts(store, 0, store.BlockCount());
        });
    for (std::size_t p = 0; p < counts.size(); ++p) {
      counts[p] = cumulative[hi][p] - cumulative[lo][p];
    }
  } else {
    counts = CumulativePatternCounts(store, lo, hi).back();
  }
  out += R"("result": {"blocks": )";
  AppendInt(out, static_cast<std::int64_t>(hi - lo));
  out += R"(, "counts": {)";
  for (int p = 0; p < kPatternClasses; ++p) {
    if (p) out += ", ";
    out += "\"";
    out += activity::PatternName(static_cast<activity::BlockPattern>(p));
    out += "\": ";
    AppendInt(out, counts[static_cast<std::size_t>(p)]);
  }
  out += "}}";
}

// Parse + route + render one request against `store`. `memo` is the
// snapshot `store` belongs to when HandleRequest answers (its aggregate
// slots are read and filled), and null for the DirectAnswer oracle.
std::string Answer(const activity::ActivityStore& store,
                   std::uint64_t snapshot_id,
                   std::span<const BlockAttribution> attribution,
                   std::string_view body, const Snapshot* memo) {
  auto& reg = obs::GlobalRegistry();
  json::Value req = json::Value::Null();
  try {
    req = json::Parse(body);
  } catch (const std::runtime_error& e) {
    reg.GetCounter("serve.errors").Add();
    return ErrorResponse("bad-json", e.what());
  }
  std::string endpoint;
  try {
    if (!req.is_object()) {
      FailRequest("bad-request", "request body must be a JSON object");
    }
    endpoint = StringField(req, "endpoint");
    obs::ScopedTimer timer{reg,
                           "serve.endpoint." + endpoint + ".seconds"};
    std::string out = R"({"ok": true, "endpoint": ")";
    out += json::Escape(endpoint);
    out += R"(", "snapshot": )";
    AppendInt(out, static_cast<std::int64_t>(snapshot_id));
    out += ", ";
    if (endpoint == "summary") {
      AppendAggregate(out, memo != nullptr ? &memo->summary : nullptr,
                      [&store] { return SummaryResult(store); });
    } else if (endpoint == "point") {
      AnswerPoint(out, store, req);
    } else if (endpoint == "prefix") {
      AnswerPrefix(out, store, req);
    } else if (endpoint == "as") {
      AnswerAs(out, store, attribution, req);
    } else if (endpoint == "country") {
      AnswerCountry(out, store, attribution, req);
    } else if (endpoint == "churn") {
      AnswerChurn(out, store, req, memo);
    } else if (endpoint == "patterns") {
      AnswerPatterns(out, store, req, memo);
    } else {
      FailRequest("unknown-endpoint",
                  "unknown endpoint '" + endpoint + "'");
    }
    out += "}";
    return out;
  } catch (const RequestError& e) {
    reg.GetCounter("serve.errors").Add();
    return ErrorResponse(e.kind, e.message);
  } catch (const std::runtime_error& e) {
    // A schema error from the json accessors (wrong kinds, etc).
    reg.GetCounter("serve.errors").Add();
    return ErrorResponse("bad-request", e.what());
  }
}

}  // namespace

std::string JsonNumber(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

Server::Server(activity::ActivityStore store, ServerOptions options)
    : options_(options), snapshots_(std::move(store)) {}

void Server::SetAttribution(std::vector<BlockAttribution> attribution) {
  std::sort(attribution.begin(), attribution.end(),
            [](const BlockAttribution& a, const BlockAttribution& b) {
              return a.key < b.key;
            });
  attribution_ = std::move(attribution);
}

std::vector<BlockAttribution> Server::AttributionFromWorld(
    const sim::World& world) {
  std::vector<BlockAttribution> out;
  out.reserve(world.blocks().size());
  for (const sim::BlockPlan& plan : world.blocks()) {
    out.push_back(BlockAttribution{net::BlockKeyOf(plan.block), plan.asn,
                                   plan.country});
  }
  return out;
}

std::uint64_t Server::Reload(activity::ActivityStore store) {
  return snapshots_.Install(std::move(store));
}

std::string Server::HandleFrame(std::string_view frame_bytes) {
  auto decoded = DecodeFrame(frame_bytes, options_.max_frame_bytes);
  if (!decoded.ok()) {
    obs::GlobalRegistry().GetCounter("serve.frames.bad").Add();
    return EncodeFrame(
        ErrorResponse("bad-frame", decoded.error().ToString()));
  }
  return EncodeFrame(HandleRequest(decoded.value().body));
}

std::string Server::HandleRequest(std::string_view body) {
  auto& reg = obs::GlobalRegistry();
  reg.GetCounter("serve.requests").Add();
  std::uint64_t n = requests_.fetch_add(1, std::memory_order_relaxed) + 1;
  double elapsed = uptime_.Seconds();
  if (elapsed > 0) {
    reg.GetGauge("serve.qps").Set(static_cast<double>(n) / elapsed);
  }

  // Pin exactly one snapshot for the whole request.
  std::shared_ptr<const Snapshot> pin = snapshots_.Current();
  return Answer(pin->store, pin->id, attribution_, body, pin.get());
}

std::string Server::DirectAnswer(
    const activity::ActivityStore& store, std::uint64_t snapshot_id,
    std::span<const BlockAttribution> attribution, std::string_view body) {
  return Answer(store, snapshot_id, attribution, body, /*memo=*/nullptr);
}

}  // namespace ipscope::serve
