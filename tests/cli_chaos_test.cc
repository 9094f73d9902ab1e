// End-to-end tests of `ipscope_cli chaos` — the pipeline run under an
// injected fault schedule — and of the CLI's degraded-data reporting.
#include "cli/commands.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "cdn/observatory.h"
#include "fault/injector.h"
#include "fault/schedule.h"
#include "io/store_io.h"
#include "sim/world.h"

namespace ipscope::cli {
namespace {

// Small worlds keep each chaos run to a fraction of a second.
constexpr const char* kBlocks = "120";

TEST(CliChaos, DefaultScheduleScorecardPasses) {
  std::ostringstream out, err;
  int rc = Main({"chaos", "--blocks", kBlocks, "--seed", "7"}, out, err);
  EXPECT_EQ(rc, 0) << out.str() << err.str();
  const std::string text = out.str();
  EXPECT_NE(text.find("store salvage"), std::string::npos);
  EXPECT_NE(text.find("churn matches clean data"), std::string::npos);
  EXPECT_NE(text.find("change detection matches"), std::string::npos);
  EXPECT_NE(text.find("fault.injected_total"), std::string::npos);
  EXPECT_NE(text.find("activity.days_missing"), std::string::npos);
  EXPECT_NE(text.find("chaos: PASS"), std::string::npos);
  EXPECT_EQ(text.find("FAIL"), std::string::npos);
}

TEST(CliChaos, NoFaultScheduleIsCleanRun) {
  std::ostringstream out, err;
  int rc = Main({"chaos", "--blocks", kBlocks, "--seed", "7", "--schedule",
                 ""},
                out, err);
  EXPECT_EQ(rc, 0) << out.str() << err.str();
  EXPECT_NE(out.str().find("(complete)"), std::string::npos);
  EXPECT_NE(out.str().find("chaos: PASS (0 faults injected)"),
            std::string::npos);
}

TEST(CliChaos, EveryFaultKindAtOncePasses) {
  std::ostringstream out, err;
  int rc = Main({"chaos", "--blocks", kBlocks, "--seed", "3", "--schedule",
                 "drop-days=2,drop-day=5,drop-snapshots=2,truncate-store=0.7,"
                 "flip-bytes=2,dup-rows=0.2"},
                out, err);
  EXPECT_EQ(rc, 0) << out.str() << err.str();
  EXPECT_NE(out.str().find("log aggregation idempotent"), std::string::npos);
  EXPECT_NE(out.str().find("chaos: PASS"), std::string::npos);
}

TEST(CliChaos, BadScheduleIsUsageError) {
  std::ostringstream out, err;
  int rc = Main({"chaos", "--blocks", kBlocks, "--schedule", "explode=1"},
                out, err);
  EXPECT_EQ(rc, 2);
  EXPECT_NE(err.str().find("unknown fault"), std::string::npos);
}

TEST(CliChaos, ScorecardIsDeterministicPerSeed) {
  auto scorecard = [](const char* seed) {
    std::ostringstream out, err;
    int rc = Main({"chaos", "--blocks", kBlocks, "--seed", seed}, out, err);
    EXPECT_EQ(rc, 0) << err.str();
    // Compare only the scorecard: the data-quality metrics table reads
    // process-global counters that accumulate across runs in one process.
    std::string text = out.str();
    return text.substr(0, text.find("data-quality"));
  };
  EXPECT_EQ(scorecard("11"), scorecard("11"));
  EXPECT_NE(scorecard("11"), scorecard("12"));
}

TEST(CliChaos, SummaryReportsCoverageGapsOfSalvagedDataset) {
  // Build a dataset, drop days via the injector, save it (IPSCOPE2 carries
  // the coverage mask), and check `summary` surfaces the gap instead of
  // presenting missing days as mass deactivation.
  sim::WorldConfig config;
  config.target_client_blocks = 80;
  config.seed = 13;
  sim::World world{config};
  auto store = cdn::Observatory::Daily(world).BuildStore();

  fault::Schedule schedule;
  schedule.seed = 13;
  std::string parse_error;
  ASSERT_TRUE(fault::ParseSchedule("drop-days=3", &schedule, &parse_error));
  fault::Injector injector{schedule};
  auto dropped = injector.ApplyToStore(store);
  ASSERT_EQ(dropped.size(), 3u);

  std::string path = ::testing::TempDir() + "/ipscope_chaos_summary." +
                     std::to_string(getpid()) + ".bin";
  io::SaveStoreFile(store, path);

  std::ostringstream out, err;
  EXPECT_EQ(Main({"summary", path}, out, err), 0) << err.str();
  EXPECT_NE(out.str().find("coverage:"), std::string::npos);
  EXPECT_NE(out.str().find("3 missing"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CliChaos, UsageMentionsChaos) {
  std::ostringstream out, err;
  EXPECT_EQ(Main({"help"}, out, err), 0);
  EXPECT_NE(out.str().find("chaos"), std::string::npos);
  EXPECT_NE(out.str().find("chaos-crash"), std::string::npos);
}

TEST(CliChaosCrash, EveryPointRecoversBitExactAtSmallScale) {
  std::string dir = ::testing::TempDir() + "ipscope_cli_chaos_crash_" +
                    std::to_string(getpid());
  std::ostringstream out, err;
  int rc = Main({"chaos-crash", "--blocks", "40", "--seeds", "1", "--dir",
                 dir},
                out, err);
  EXPECT_EQ(rc, 0) << out.str() << err.str();
  const std::string text = out.str();
  EXPECT_NE(text.find("pre-temp-write"), std::string::npos);
  EXPECT_NE(text.find("post-commit"), std::string::npos);
  EXPECT_NE(text.find("ingest.quarantined_files"), std::string::npos);
  EXPECT_NE(text.find("chaos-crash: PASS"), std::string::npos);
  EXPECT_EQ(text.find("FAIL"), std::string::npos) << text;
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ipscope::cli
