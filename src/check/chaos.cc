#include "check/chaos.h"

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "activity/change.h"
#include "activity/churn.h"
#include "cdn/observatory.h"
#include "cdn/rawlog.h"
#include "fault/injector.h"
#include "io/store_io.h"
#include "obs/registry.h"
#include "report/table.h"
#include "scan/icmp.h"

namespace ipscope::check {

namespace {

// What a salvage load of the damaged byte stream must recover, derived
// from the clean store and the injector's report. Salvage is sequential,
// so the expected outcome is the longest undamaged prefix of blocks; any
// damage in the header makes the stream unrecoverable.
struct SalvagePrediction {
  bool header_ok = true;
  std::uint64_t blocks = 0;
  bool complete = true;
};

SalvagePrediction PredictSalvage(const activity::ActivityStore& clean,
                                 std::uint64_t damaged_size,
                                 const std::vector<std::uint64_t>& flips,
                                 std::uint64_t original_size) {
  SalvagePrediction p;
  // IPSCOPE2 layout: magic(8) + days(4) + blocks(8) + coverage bitmap +
  // header CRC(4); per block key(4) + count(4) + 34 bytes/non-empty day +
  // block CRC(4); footer "END2"(4) + echo(8) + stream CRC(4).
  const std::uint64_t header =
      8 + 4 + 8 + (static_cast<std::uint64_t>(clean.days()) + 7) / 8 + 4;
  auto damaged_in = [&](std::uint64_t first, std::uint64_t last) {
    if (damaged_size < last) return true;  // truncation cut into [first,last)
    for (std::uint64_t f : flips) {
      if (f >= first && f < last) return true;
    }
    return false;
  };
  if (damaged_in(0, header)) {
    p.header_ok = false;
    p.complete = false;
    return p;
  }
  std::uint64_t pos = header;
  bool stopped = false;
  clean.ForEach([&](net::BlockKey, const activity::ActivityMatrix& m) {
    if (stopped) return;
    std::uint64_t nonzero = 0;
    for (int d = 0; d < m.days(); ++d) {
      const activity::DayBits& row = m.Row(d);
      if ((row[0] | row[1] | row[2] | row[3]) != 0) ++nonzero;
    }
    const std::uint64_t size = 4 + 4 + nonzero * 34 + 4;
    if (damaged_in(pos, pos + size)) {
      stopped = true;
      p.complete = false;
      return;
    }
    ++p.blocks;
    pos += size;
  });
  if (!stopped && damaged_in(pos, original_size)) p.complete = false;
  return p;
}

}  // namespace

bool RunChaos(const sim::WorldConfig& config, const fault::Schedule& schedule,
              int window, std::ostream& out) {
  fault::Injector injector{schedule};
  fault::Injector::Report report;

  out << "chaos: " << config.target_client_blocks
      << " client blocks, seed " << config.seed << ", fault seed "
      << schedule.seed << "\nchaos: schedule " << schedule.ToString()
      << "\n\n";

  report::Table card({"check", "status", "detail"});
  bool all_ok = true;
  auto check = [&](const char* name, bool ok, const std::string& detail) {
    card.AddRow({name, ok ? "PASS" : "FAIL", detail});
    if (!ok) all_ok = false;
  };
  auto info = [&](const char* name, const char* status,
                  const std::string& detail) {
    card.AddRow({name, status, detail});
  };

  // Stage 1: the clean pipeline — the ground truth every faulted result
  // is compared against.
  sim::World world{config};
  auto clean = cdn::Observatory::Daily(world).BuildStore();

  // Stage 2: serialize, damage the bytes, salvage-load.
  std::stringstream buffer;
  io::SaveStore(clean, buffer);
  const std::string original = buffer.str();
  std::string bytes = original;
  injector.ApplyToBytes(bytes, &report);
  auto predicted = PredictSalvage(clean, bytes.size(), report.flipped_offsets,
                                  original.size());
  std::istringstream damaged{bytes};
  auto load = io::TryLoadStore(damaged, io::LoadOptions{.salvage = true});

  bool store_usable = load.ok();
  if (!store_usable) {
    // Damage reached the header: nothing is recoverable, but the failure
    // must be a typed error, not a crash — that is itself the contract.
    check("store salvage", !predicted.header_ok,
          "unrecoverable: " + load.error().ToString());
    info("salvaged blocks intact", "SKIP", "no store recovered");
    info("missing days accounted", "SKIP", "no store recovered");
    info("churn matches clean data", "SKIP", "no store recovered");
    info("change detection matches", "SKIP", "no store recovered");
    info("active-address drift", "SKIP", "no store recovered");
  }

  activity::ActivityStore faulted{clean.days()};
  std::vector<int> dropped;
  if (store_usable) {
    const io::LoadStats& stats = load.value().stats;
    faulted = std::move(load.value().store);

    {
      std::string detail =
          std::to_string(stats.blocks_loaded) + "/" +
          std::to_string(stats.blocks_expected) + " blocks" +
          (stats.complete ? " (complete)" : " (salvaged)");
      check("store salvage",
            stats.blocks_loaded == predicted.blocks &&
                stats.complete == predicted.complete,
            detail + ", expected " + std::to_string(predicted.blocks));
    }

    // Salvaged blocks must be bit-identical to the clean store's —
    // checked before day drops mutate the rows.
    bool intact = true;
    faulted.ForEach([&](net::BlockKey key, const activity::ActivityMatrix& m) {
      const activity::ActivityMatrix* cm = clean.Find(key);
      if (cm == nullptr) {
        intact = false;
        return;
      }
      for (int d = 0; d < clean.days(); ++d) {
        if (m.Row(d) != cm->Row(d)) intact = false;
      }
    });
    check("salvaged blocks intact", intact,
          std::to_string(faulted.BlockCount()) + " blocks bit-compared");

    // Stage 3: collector outages — dropped days become coverage gaps.
    dropped = injector.ApplyToStore(faulted, &report);
    double gauge =
        obs::GlobalRegistry().GetGauge("activity.days_missing").value();
    check("missing days accounted",
          faulted.MissingDays() == static_cast<int>(dropped.size()) &&
              gauge == static_cast<double>(faulted.MissingDays()),
          std::to_string(faulted.MissingDays()) + " uncovered of " +
              std::to_string(faulted.days()) + " days");

    // Stage 4: analyses on the faulted store must match the clean data
    // restricted to the same blocks and coverage — exactly, not loosely.
    activity::ActivityStore reference{clean.days()};
    faulted.ForEach([&](net::BlockKey key, const activity::ActivityMatrix&) {
      const activity::ActivityMatrix* cm = clean.Find(key);
      activity::ActivityMatrix& dst = reference.GetOrCreate(key);
      for (int d = 0; d < clean.days(); ++d) dst.Row(d) = cm->Row(d);
    });
    for (int d : dropped) reference.SetDayCovered(d, false);

    if (faulted.BlockCount() == 0) {
      info("churn matches clean data", "SKIP", "no blocks salvaged");
      info("change detection matches", "SKIP", "no blocks salvaged");
    } else {
      auto fs = activity::ChurnAnalyzer{faulted}.Churn(window);
      auto rs = activity::ChurnAnalyzer{reference}.Churn(window);
      int num_windows = faulted.days() / window;
      check("churn matches clean data",
            fs.pairs == rs.pairs && fs.up_pct == rs.up_pct &&
                fs.down_pct == rs.down_pct,
            std::to_string(fs.pairs.size()) + "/" +
                std::to_string(num_windows > 1 ? num_windows - 1 : 0) +
                " window pairs valid, all exact");

      auto fc = activity::MaxMonthlyStuChange(faulted);
      auto rc = activity::MaxMonthlyStuChange(reference);
      bool change_ok = fc.size() == rc.size();
      if (change_ok) {
        for (std::size_t i = 0; i < fc.size(); ++i) {
          if (fc[i].key != rc[i].key || fc[i].max_delta != rc[i].max_delta) {
            change_ok = false;
          }
        }
      }
      check("change detection matches", change_ok,
            std::to_string(fc.size()) + " per-block STU deltas, all exact");
    }

    // Drift vs the truly clean run is bounded by what the faults removed:
    // the faulted totals must equal the reference totals exactly.
    std::uint64_t clean_total = clean.CountActive(0, clean.days());
    std::uint64_t faulted_total = faulted.CountActive(0, faulted.days());
    std::uint64_t reference_total = reference.CountActive(0, reference.days());
    double drift =
        clean_total == 0
            ? 0.0
            : 100.0 * (static_cast<double>(clean_total) -
                       static_cast<double>(faulted_total)) /
                  static_cast<double>(clean_total);
    check("active-address drift", faulted_total == reference_total,
          report::FormatDouble(drift) +
              "% below clean run, all attributable to injected faults");
  }

  // Stage 5: the scan campaign loses snapshots but the month union still
  // computes from the survivors.
  {
    constexpr int kNumScans = 8;
    constexpr std::int32_t kMonthStart = 273;  // October, like the paper
    constexpr int kMonthDays = 28;
    auto killed = injector.PickSnapshotsToDrop(kNumScans, &report);
    scan::IcmpScanner scanner{world};
    net::Ipv4Set month;
    int used = 0;
    for (int s = 0; s < kNumScans; ++s) {
      if (std::find(killed.begin(), killed.end(), s) != killed.end()) continue;
      month = month.Union(
          scanner.Scan(kMonthStart + s * kMonthDays / kNumScans));
      ++used;
    }
    check("scan campaign degraded",
          used == kNumScans - static_cast<int>(killed.size()) &&
              !month.Empty(),
          std::to_string(used) + "/" + std::to_string(kNumScans) +
              " snapshots, " + report::FormatCount(month.Count()) +
              " responsive addresses");
  }

  // Stage 6: duplicated raw log rows must not change the active set —
  // aggregation is idempotent w.r.t. activity (bitmaps OR, counts add).
  if (schedule.Has(fault::FaultKind::kDupRows)) {
    auto observatory = cdn::Observatory::Daily(world);
    const sim::BlockPlan* plan = nullptr;
    if (clean.BlockCount() > 0) {
      net::BlockKey first_key = clean.keys()[0];
      for (const sim::BlockPlan& p : world.blocks()) {
        if (net::BlockKeyOf(p.block) == first_key) {
          plan = &p;
          break;
        }
      }
    }
    if (plan == nullptr) {
      info("log aggregation idempotent", "SKIP", "no CDN-active block");
    } else {
      cdn::RawLogGenerator gen{world, observatory.spec()};
      std::vector<cdn::LogRecord> rows;
      gen.ForBlockSteps(*plan, 0, 1,
                        [&](const cdn::LogRecord& r) { rows.push_back(r); },
                        /*per_address_cap=*/4);
      cdn::LogAggregator base;
      for (const auto& r : rows) base.Consume(r);
      std::uint64_t duplicated = injector.DuplicateRows(rows, &report);
      cdn::LogAggregator dup;
      for (const auto& r : rows) dup.Consume(r);
      bool same_actives = base.hits_per_ip().size() == dup.hits_per_ip().size();
      if (same_actives) {
        for (const auto& [ip, hits] : base.hits_per_ip()) {
          if (dup.hits_per_ip().count(ip) == 0) same_actives = false;
        }
      }
      check("log aggregation idempotent", same_actives,
            std::to_string(duplicated) + " duplicate rows, active set " +
                (same_actives ? "unchanged" : "CHANGED"));
    }
  }

  card.Print(out);

  auto& registry = obs::GlobalRegistry();
  report::Table metrics({"data-quality metric", "value"});
  for (const char* name :
       {"fault.injected_total", "io.store.blocks_salvaged",
        "io.store.salvaged_loads", "io.store.load_errors"}) {
    metrics.AddRow({name,
                    report::FormatCount(registry.GetCounter(name).value())});
  }
  metrics.AddRow(
      {"activity.days_missing",
       report::FormatCount(static_cast<std::uint64_t>(
           registry.GetGauge("activity.days_missing").value()))});
  out << "\n";
  metrics.Print(out);

  out << "\nchaos: " << (all_ok ? "PASS" : "FAIL") << " ("
      << report.faults_injected << " faults injected)\n";
  return all_ok;
}

}  // namespace ipscope::check
