// Reputation TTLs from address churn: the paper's "implications to network
// security" (§8). A host's IP-based reputation should expire before the
// address is likely to have changed hands. This example derives a
// per-block reputation time-to-live from observed activity dynamics:
//   * fully-utilized gateway blocks aggregate thousands of users -> IP
//     reputation is nearly meaningless (TTL ~ hours),
//   * high-turnover dynamic pools -> TTL of a day,
//   * long-lease pools -> TTL of a week or two,
//   * stable static blocks -> TTL of a month,
// and flags blocks whose assignment practice *changed* mid-period (the
// paper's §5.2 change detector) for immediate reputation reset.
//
// Build & run:  ./build/examples/reputation_churn
#include <iostream>
#include <map>
#include <string>

#include "activity/change.h"
#include "activity/pattern.h"
#include "cdn/observatory.h"
#include "report/table.h"
#include "sim/world.h"

namespace {

// Recommended reputation TTL in days for a block's activity pattern.
double RecommendedTtlDays(ipscope::activity::BlockPattern pattern) {
  using ipscope::activity::BlockPattern;
  switch (pattern) {
    case BlockPattern::kFullyUtilized:
      return 0.1;  // gateway: reputation shared by thousands of users
    case BlockPattern::kDynamicShortLease:
      return 1.0;  // 24h-style reassignment
    case BlockPattern::kDynamicLongLease:
      return 14.0;
    case BlockPattern::kStaticSparse:
      return 30.0;  // stable set
    default:
      return 7.0;
  }
}

}  // namespace

int main() {
  using namespace ipscope;

  sim::WorldConfig config;
  config.seed = 99;
  config.target_client_blocks = 1500;
  sim::World world{config};
  activity::ActivityStore store =
      cdn::Observatory::Daily(world).BuildStore();

  std::map<std::string, int> ttl_histogram;
  std::uint64_t blocks = 0;

  store.ForEach([&](net::BlockKey, const activity::ActivityMatrix& m) {
    auto features = activity::ComputeFeatures(m);
    if (features.filling_degree == 0) return;
    auto pattern = activity::ClassifyPattern(features);
    double ttl = RecommendedTtlDays(pattern);
    ++blocks;
    if (ttl < 1.0) {
      ++ttl_histogram["<1 day (shared gateways)"];
    } else if (ttl <= 1.0) {
      ++ttl_histogram["1 day (short leases)"];
    } else if (ttl <= 14.0) {
      ++ttl_histogram["<=14 days (long leases / mixed)"];
    } else {
      ++ttl_histogram[">=30 days (static)"];
    }
  });

  std::cout << "recommended reputation TTLs across " << blocks
            << " active /24 blocks:\n";
  report::Table t({"TTL class", "blocks", "share"});
  for (const auto& [label, count] : ttl_histogram) {
    t.AddRow({label, std::to_string(count),
              report::FormatPercent(static_cast<double>(count) /
                                    static_cast<double>(blocks))});
  }
  t.Print(std::cout);

  // Blocks whose assignment practice changed: reset reputations now.
  auto changes = activity::MaxMonthlyStuChange(store);
  std::uint64_t resets = 0;
  for (const auto& c : changes) {
    if (c.IsMajor()) ++resets;
  }
  std::cout << "\nblocks with a major assignment change (immediate "
               "reputation reset): "
            << resets << " ("
            << report::FormatPercent(static_cast<double>(resets) /
                                     static_cast<double>(changes.size()))
            << ")\n";
  std::cout << "[paper §8: 'our change detection method could be used to "
               "trigger expiration of host reputation, avoiding security "
               "vulnerabilities when networks are renumbered or "
               "repurposed']\n";
  return 0;
}
