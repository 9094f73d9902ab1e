#include "serve/server.h"

#include <algorithm>
#include <array>
#include <bit>
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

// --- whole-snapshot aggregates -------------------------------------------
// DirectAnswer computes each one from the analysis it reports
// (ActivityStore::CountActive/DailyActiveCounts, ChurnAnalyzer::Churn,
// ClassifyPattern). A
// snapshot fills all of them at once with one sweep over its blocks
// (ComputeAggregates); the serve tests hold the two byte-identical.

std::string RenderSummary(const activity::ActivityStore& store,
                          std::uint64_t unique_addresses,
                          const std::vector<std::int64_t>& active_per_day) {
  std::string out = R"("result": {"days": )";
  AppendInt(out, store.days());
  out += R"(, "blocks": )";
  AppendInt(out, static_cast<std::int64_t>(store.BlockCount()));
  out += R"(, "covered_days": )";
  AppendInt(out, store.CoveredDaysIn(0, store.days()));
  out += R"(, "unique_addresses": )";
  AppendInt(out, static_cast<std::int64_t>(unique_addresses));
  out += R"(, "active_per_day": [)";
  for (std::size_t i = 0; i < active_per_day.size(); ++i) {
    if (i) out += ", ";
    AppendInt(out, active_per_day[i]);
  }
  out += "]}";
  return out;
}

std::string RenderChurn(const activity::WindowChurnSeries& series) {
  std::string out;
  out.reserve(256 + 64 * series.pairs.size());  // ~45 bytes per pair
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

// Pattern-class histogram of store blocks [lo, hi).
PatternCounts ClassCounts(const activity::ActivityStore& store,
                          std::size_t lo, std::size_t hi) {
  return par::ParallelReduce(
      lo, hi, PatternCounts{},
      [&store](PatternCounts& counts, std::size_t first, std::size_t last) {
        for (std::size_t i = first; i < last; ++i) {
          ++counts[static_cast<std::size_t>(
              activity::ClassifyPattern(store.MatrixAt(i)))];
        }
      },
      [](PatternCounts& into, PatternCounts&& from) {
        for (std::size_t p = 0; p < into.size(); ++p) into[p] += from[p];
      },
      /*grain=*/64);
}

// The churn side of the aggregate sweep: per-block window counts for every
// window size with at least one window pair (1..days / 2), and for window
// 1 on any store, since its counts are the summary's per-day active
// counts. The days / w windows of size w take slots
// [first_slot[w], first_slot[w + 1]) of the sweep's count vectors.
class ChurnWindows {
 public:
  explicit ChurnWindows(int days)
      : days_(days),
        max_window_(std::max(1, days / 2)),
        levels_(std::bit_width(static_cast<unsigned>(max_window_))),
        first_slot_(static_cast<std::size_t>(max_window_) + 2, 0) {
    for (int w = 1; w <= max_window_; ++w) {
      const auto wi = static_cast<std::size_t>(w);
      first_slot_[wi + 1] =
          first_slot_[wi] + static_cast<std::size_t>(days / w);
    }
  }

  std::size_t slots() const { return first_slot_.back(); }

  // Adds |W_k| to window_active and |W_{k-1} & W_k| to shared_with_prev
  // (0 for each size's first window) for every window of block `m`,
  // counting bits with Count. `spans` is scratch: spans[j * days + d] is
  // the union of days [d, d + 2^j), so the window [a, a + w) with
  // 2^j <= w < 2^(j+1) is the union of the two overlapping spans at a and
  // a + w - 2^j. Always inlined, so that each popcount target's sweep
  // compiles it with that target's instructions.
  template <int (*Count)(const activity::DayBits&)>
  [[gnu::always_inline]] void AddBlock(
      const activity::ActivityMatrix& m,
      std::vector<activity::DayBits>& spans,
      std::vector<std::uint64_t>& window_active,
      std::vector<std::uint64_t>& shared_with_prev) const {
    spans.resize(static_cast<std::size_t>(levels_ * days_));
    for (int d = 0; d < days_; ++d) {
      spans[static_cast<std::size_t>(d)] = m.Row(d);
    }
    for (int j = 1; j < levels_; ++j) {
      const activity::DayBits* lower = Level(spans, j - 1);
      activity::DayBits* level = Level(spans, j);
      const int half = 1 << (j - 1);
      for (int d = 0; d + 2 * half <= days_; ++d) {
        level[d] = activity::OrBits(lower[d], lower[d + half]);
      }
    }
    for (int w = 1; w <= max_window_; ++w) {
      const int j = std::bit_width(static_cast<unsigned>(w)) - 1;
      const activity::DayBits* level = Level(spans, j);
      const int offset = w - (1 << j);
      std::size_t slot = first_slot_[static_cast<std::size_t>(w)];
      activity::DayBits prev{};
      for (int day = 0; day + w <= days_; day += w, ++slot) {
        const activity::DayBits u =
            activity::OrBits(level[day], level[day + offset]);
        window_active[slot] += static_cast<std::uint64_t>(Count(u));
        shared_with_prev[slot] += static_cast<std::uint64_t>(
            Count(activity::AndBits(prev, u)));
        prev = u;
      }
    }
  }

  // Active addresses per day: window 1's slot sums over all blocks.
  std::vector<std::int64_t> DayCounts(
      const std::vector<std::uint64_t>& window_active) const {
    return {window_active.begin(), window_active.begin() + days_};
  }

  // Window size w's pair totals from the slot sums over all blocks:
  // up = |W_{k+1}| - shared, down = |W_k| - shared.
  activity::WindowPairCounts PairCounts(
      int w, const std::vector<std::uint64_t>& window_active,
      const std::vector<std::uint64_t>& shared_with_prev) const {
    if (w > days_ / 2) return activity::WindowPairCounts{};
    const std::size_t base = first_slot_[static_cast<std::size_t>(w)];
    activity::WindowPairCounts counts{
        static_cast<std::size_t>(days_ / w - 1)};
    for (std::size_t p = 0; p < counts.up.size(); ++p) {
      const std::uint64_t prev = window_active[base + p];
      const std::uint64_t next = window_active[base + p + 1];
      const std::uint64_t shared = shared_with_prev[base + p + 1];
      counts.up[p] = next - shared;
      counts.down[p] = prev - shared;
      counts.size_prev[p] = prev;
      counts.size_next[p] = next;
    }
    return counts;
  }

 private:
  activity::DayBits* Level(std::vector<activity::DayBits>& spans,
                           int j) const {
    return spans.data() + static_cast<std::size_t>(j * days_);
  }

  int days_;
  int max_window_;
  int levels_;
  std::vector<std::size_t> first_slot_;
};

// Per-chunk sums of the aggregate sweep: integers only, merged in chunk
// order, so the result is the same for any thread count.
struct SweepAcc {
  std::uint64_t unique_addresses = 0;
  std::vector<std::uint64_t> window_active;     // per ChurnWindows slot
  std::vector<std::uint64_t> shared_with_prev;  // per ChurnWindows slot

  void Merge(SweepAcc&& other) {
    unique_addresses += other.unique_addresses;
    for (std::size_t s = 0; s < window_active.size(); ++s) {
      window_active[s] += other.window_active[s];
      shared_with_prev[s] += other.shared_with_prev[s];
    }
  }
};

// The sweep over store blocks [first, last): each block's pattern class
// and unique addresses from its features, and its window counts. Compiled
// once per popcount target below.
template <int (*Count)(const activity::DayBits&)>
[[gnu::always_inline]] inline void SweepChunk(
    const activity::ActivityStore& store, const ChurnWindows& windows,
    std::vector<activity::BlockPattern>& classes, SweepAcc& acc,
    std::size_t first, std::size_t last) {
  std::vector<activity::DayBits> spans;
  for (std::size_t i = first; i < last; ++i) {
    const activity::ActivityMatrix& m = store.MatrixAt(i);
    const activity::PatternFeatures features = activity::ComputeFeatures(m);
    classes[i] = activity::ClassifyPattern(features);
    acc.unique_addresses +=
        static_cast<std::uint64_t>(features.filling_degree);
    if (features.filling_degree == 0) continue;  // adds 0 to every count
    windows.AddBlock<Count>(m, spans, acc.window_active,
                            acc.shared_with_prev);
  }
}

using SweepChunkFn = void (*)(const activity::ActivityStore&,
                              const ChurnWindows&,
                              std::vector<activity::BlockPattern>&,
                              SweepAcc&, std::size_t, std::size_t);

void SweepChunkPortable(const activity::ActivityStore& store,
                        const ChurnWindows& windows,
                        std::vector<activity::BlockPattern>& classes,
                        SweepAcc& acc, std::size_t first, std::size_t last) {
  SweepChunk<activity::PopCount>(store, windows, classes, acc, first, last);
}

#if defined(__x86_64__)
// The baseline x86-64 target lacks popcnt, so the portable body counts
// with the SWAR fold; this clone counts with the instruction.
[[gnu::target("popcnt")]] void SweepChunkPopcnt(
    const activity::ActivityStore& store, const ChurnWindows& windows,
    std::vector<activity::BlockPattern>& classes, SweepAcc& acc,
    std::size_t first, std::size_t last) {
  SweepChunk<activity::PopCountHw>(store, windows, classes, acc, first,
                                   last);
}
#else
constexpr SweepChunkFn SweepChunkPopcnt = SweepChunkPortable;
#endif

// Read once during static initialization, like the other kernel targets.
const bool kPopcnt = activity::PopCountHwAvailable();

// Every whole-snapshot aggregate from one pass over the blocks: unique
// addresses and each block's pattern class from its features, and the
// churn window counts of every window size, whose window-1 counts are
// also the per-day active counts.
Aggregates Sweep(const activity::ActivityStore& store, SweepChunkFn chunk) {
  obs::Span span{"serve.snapshot.aggregates_seconds", "serve"};
  const int days = store.days();
  const ChurnWindows windows{days};
  std::vector<activity::BlockPattern> classes(store.BlockCount());
  SweepAcc sums = par::ParallelReduce(
      std::size_t{0}, store.BlockCount(),
      SweepAcc{0, std::vector<std::uint64_t>(windows.slots(), 0),
               std::vector<std::uint64_t>(windows.slots(), 0)},
      [&](SweepAcc& acc, std::size_t first, std::size_t last) {
        chunk(store, windows, classes, acc, first, last);
      },
      [](SweepAcc& into, SweepAcc&& from) { into.Merge(std::move(from)); },
      /*grain=*/64);

  Aggregates out;
  out.summary = RenderSummary(store, sums.unique_addresses,
                              windows.DayCounts(sums.window_active));
  out.churn.reserve(static_cast<std::size_t>(std::max(1, days)));
  for (int w = 1; w <= std::max(1, days); ++w) {
    out.churn.push_back(RenderChurn(activity::ChurnSeriesFromCounts(
        store, w,
        windows.PairCounts(w, sums.window_active, sums.shared_with_prev))));
  }
  out.patterns.resize(classes.size() + 1);
  for (std::size_t i = 0; i < classes.size(); ++i) {
    out.patterns[i + 1] = out.patterns[i];
    ++out.patterns[i + 1][static_cast<std::size_t>(classes[i])];
  }
  return out;
}

// The snapshot's aggregates, filled by the first request that needs any.
const Aggregates& AggregatesOf(const Snapshot& snapshot) {
  return snapshot.aggregates.Get(
      [&snapshot] { return ComputeAggregates(snapshot.store); });
}

void AnswerSummary(std::string& out, const activity::ActivityStore& store,
                   const Snapshot* memo) {
  if (memo != nullptr) {
    out += AggregatesOf(*memo).summary;
  } else {
    out += RenderSummary(store, store.CountActive(0, store.days()),
                         store.DailyActiveCounts());
  }
}

void AnswerChurn(std::string& out, const activity::ActivityStore& store,
                 const json::Value& req, const Snapshot* memo) {
  int window = static_cast<int>(
      IntField(req, "window", 7, 1, std::max(1, store.days())));
  if (memo != nullptr) {
    out += AggregatesOf(*memo).churn[static_cast<std::size_t>(window - 1)];
  } else {
    out += RenderChurn(activity::ChurnAnalyzer{store}.Churn(window));
  }
}

void AnswerPatterns(std::string& out, const activity::ActivityStore& store,
                    const json::Value& req, const Snapshot* memo) {
  std::size_t lo = 0;
  std::size_t hi = store.BlockCount();
  if (Find(req, "prefix") != nullptr) {
    std::tie(lo, hi) = BlockRange(store, PrefixField(req, "prefix", 24));
  }
  // A snapshot answers any prefix as the difference of two running counts;
  // the oracle classifies just the requested range.
  PatternCounts counts{};
  if (memo != nullptr) {
    const std::vector<PatternCounts>& cumulative =
        AggregatesOf(*memo).patterns;
    for (std::size_t p = 0; p < counts.size(); ++p) {
      counts[p] = cumulative[hi][p] - cumulative[lo][p];
    }
  } else {
    counts = ClassCounts(store, lo, hi);
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
// snapshot `store` belongs to when HandleRequest answers (its aggregates
// are read, and filled on first use), and null for the DirectAnswer
// oracle.
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
      AnswerSummary(out, store, memo);
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

Aggregates ComputeAggregates(const activity::ActivityStore& store) {
  return kPopcnt ? ComputeAggregatesPopcnt(store)
                 : ComputeAggregatesPortable(store);
}

Aggregates ComputeAggregatesPortable(const activity::ActivityStore& store) {
  return Sweep(store, SweepChunkPortable);
}

Aggregates ComputeAggregatesPopcnt(const activity::ActivityStore& store) {
  return Sweep(store, SweepChunkPopcnt);
}

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
