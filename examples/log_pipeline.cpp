// The raw log pipeline, end to end (paper §3.2's collection framework at
// simulation scale):
//
//   edge servers emit request records  ->  log lines  ->  parsed back  ->
//   aggregated into per-IP hit counts  ->  the observatory's dataset
//
// This example streams one day of raw records for a handful of blocks,
// prints a few formatted log lines, shows the diurnal request histogram,
// and verifies the aggregation matches the activity kernel exactly.
//
// Build & run:  ./build/examples/log_pipeline
#include <iostream>
#include <vector>

#include "cdn/observatory.h"
#include "cdn/rawlog.h"
#include "report/textplot.h"
#include "sim/world.h"

int main() {
  using namespace ipscope;

  sim::WorldConfig config;
  config.seed = 8;
  config.target_client_blocks = 300;
  sim::World world{config};

  cdn::Observatory daily = cdn::Observatory::Daily(world);
  cdn::RawLogGenerator raw{world, daily.spec()};

  // Pick a few client blocks of different kinds.
  std::vector<const sim::BlockPlan*> picks;
  bool have_dense = false, have_static = false, have_bot = false;
  for (const sim::BlockPlan& plan : world.blocks()) {
    if (!have_dense && plan.base.kind == sim::PolicyKind::kDynamicShort) {
      picks.push_back(&plan);
      have_dense = true;
    } else if (!have_static && plan.base.kind == sim::PolicyKind::kStatic) {
      picks.push_back(&plan);
      have_static = true;
    } else if (!have_bot &&
               plan.base.kind == sim::PolicyKind::kCrawlerBots) {
      picks.push_back(&plan);
      have_bot = true;
    }
  }

  std::cout << "=== sample log lines (day 0) ===\n";
  int shown = 0;
  raw.ForBlockSteps(*picks.front(), 0, 1, [&](const cdn::LogRecord& r) {
    if (shown++ < 5) {
      std::cout << "  " << cdn::FormatLogLine(r) << "\n";
      std::cout << "    UA: " << cdn::UaString(r.ua_id) << "\n";
    }
  }, /*per_address_cap=*/2);

  std::cout << "\n=== round trip: format -> parse ===\n";
  cdn::LogRecord sample;
  raw.ForBlockSteps(*picks.front(), 0, 1,
                    [&](const cdn::LogRecord& r) { sample = r; },
                    /*per_address_cap=*/1);
  std::string line = cdn::FormatLogLine(sample);
  cdn::LogRecord parsed;
  bool ok = cdn::ParseLogLine(line, parsed);
  std::cout << "  " << line << "\n  parse ok: " << std::boolalpha << ok
            << ", client matches: " << (parsed.client == sample.client)
            << "\n";

  std::cout << "\n=== diurnal request histogram (one block, one week) ===\n";
  std::vector<double> per_hour(24, 0.0);
  raw.ForBlockSteps(*picks.front(), 0, 7, [&](const cdn::LogRecord& r) {
    per_hour[(r.unix_time / 3600) % 24] += 1.0;
  });
  std::vector<std::string> labels;
  for (int h = 0; h < 24; ++h) {
    labels.push_back((h < 10 ? "0" : "") + std::to_string(h) + ":00");
  }
  for (const auto& bar : report::RenderBars(labels, per_hour, 40)) {
    std::cout << "  " << bar << "\n";
  }

  std::cout << "\n=== aggregation check: records -> per-IP counts ===\n";
  for (const sim::BlockPlan* plan : picks) {
    cdn::LogAggregator aggregator;
    raw.ForBlockSteps(*plan, 10, 11, [&](const cdn::LogRecord& r) {
      aggregator.Consume(r);
    });
    // The kernel's hit counts for step 10, from steps [0, 11) of the spec.
    sim::StepSpec spec = daily.spec();
    spec.steps = 11;
    std::vector<activity::DayBits> rows(11);
    std::vector<std::uint32_t> hits(11 * 256);
    sim::GenerateBlock(*plan, spec, rows.data(), hits.data());
    std::uint64_t kernel_total = 0;
    for (int host = 0; host < 256; ++host) {
      kernel_total += hits[10 * 256 + host];
    }
    std::cout << "  " << plan->block << " ("
              << sim::PolicyKindName(plan->base.kind)
              << "): " << aggregator.total_records() << " records, kernel "
              << kernel_total << " hits -> "
              << (aggregator.total_records() == kernel_total ? "MATCH"
                                                             : "MISMATCH")
              << "\n";
  }
  return 0;
}
