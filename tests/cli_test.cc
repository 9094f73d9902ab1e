#include "cli/commands.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <sstream>

#include "netbase/ipv4.h"

namespace ipscope::cli {
namespace {

std::string DatasetPath() {
  // Generate a small shared dataset once per process. ctest runs each test
  // in its own (possibly concurrent) process, so the path must be unique
  // per pid to avoid read/write races on the file.
  static const std::string path = [] {
    std::string p = ::testing::TempDir() + "/ipscope_cli_test." +
                    std::to_string(getpid()) + ".bin";
    std::ostringstream out, err;
    int rc = Main({"generate", "--blocks", "200", "--seed", "5", "--out", p},
                  out, err);
    EXPECT_EQ(rc, 0) << err.str();
    return p;
  }();
  return path;
}

TEST(CliParse, FlagsAndPositional) {
  std::ostringstream err;
  auto cmd = Parse({"blocks", "data.bin", "--top", "5", "--sort=fd",
                    "--verbose"},
                   err);
  ASSERT_TRUE(cmd.has_value());
  EXPECT_EQ(cmd->command, "blocks");
  ASSERT_EQ(cmd->positional.size(), 1u);
  EXPECT_EQ(cmd->positional[0], "data.bin");
  EXPECT_EQ(cmd->Flag("top"), "5");
  EXPECT_EQ(cmd->Flag("sort"), "fd");
  EXPECT_EQ(cmd->Flag("verbose"), "");
  EXPECT_EQ(cmd->Flag("missing"), std::nullopt);
  EXPECT_EQ(cmd->IntFlag("top", 0), 5);
  EXPECT_EQ(cmd->IntFlag("missing", 7), 7);
}

TEST(CliParse, EmptyArgsShowUsage) {
  std::ostringstream err;
  EXPECT_FALSE(Parse({}, err).has_value());
  EXPECT_NE(err.str().find("usage"), std::string::npos);
}

TEST(Cli, HelpCommand) {
  std::ostringstream out, err;
  EXPECT_EQ(Main({"help"}, out, err), 0);
  EXPECT_NE(out.str().find("generate"), std::string::npos);
}

TEST(Cli, UnknownCommandFails) {
  std::ostringstream out, err;
  EXPECT_EQ(Main({"frobnicate"}, out, err), 2);
  EXPECT_NE(err.str().find("unknown command"), std::string::npos);
}

TEST(Cli, GenerateRequiresOut) {
  std::ostringstream out, err;
  EXPECT_EQ(Main({"generate", "--blocks", "10"}, out, err), 2);
  EXPECT_NE(err.str().find("--out"), std::string::npos);
}

TEST(Cli, SummaryPrintsDatasetStats) {
  std::ostringstream out, err;
  EXPECT_EQ(Main({"summary", DatasetPath()}, out, err), 0) << err.str();
  EXPECT_NE(out.str().find("112 snapshots"), std::string::npos);
  EXPECT_NE(out.str().find("unique addresses"), std::string::npos);
}

TEST(Cli, SummaryMissingFileFails) {
  std::ostringstream out, err;
  EXPECT_EQ(Main({"summary", "/no/such/file"}, out, err), 1);
  EXPECT_NE(err.str().find("error"), std::string::npos);
}

TEST(Cli, ChurnTable) {
  std::ostringstream out, err;
  EXPECT_EQ(Main({"churn", DatasetPath(), "--window", "28"}, out, err), 0)
      << err.str();
  EXPECT_NE(out.str().find("up %"), std::string::npos);
  EXPECT_NE(out.str().find("median"), std::string::npos);
}

TEST(Cli, ChurnWindowTooLarge) {
  std::ostringstream out, err;
  EXPECT_EQ(Main({"churn", DatasetPath(), "--window", "100"}, out, err), 2);
}

TEST(Cli, BlocksTopList) {
  std::ostringstream out, err;
  EXPECT_EQ(Main({"blocks", DatasetPath(), "--top", "3", "--sort", "fd"},
                 out, err),
            0)
      << err.str();
  EXPECT_NE(out.str().find("/24"), std::string::npos);
  EXPECT_NE(out.str().find("STU"), std::string::npos);
}

TEST(Cli, BlocksRejectsBadSortKey) {
  std::ostringstream out, err;
  EXPECT_EQ(Main({"blocks", DatasetPath(), "--sort", "alphabetical"}, out,
                 err),
            2);
}

TEST(Cli, RenderValidatesPrefix) {
  std::ostringstream out, err;
  EXPECT_EQ(Main({"render", DatasetPath(), "--block", "1.2.3.4"}, out, err),
            2);
  EXPECT_EQ(Main({"render", DatasetPath(), "--block", "10.0.0.0/16"}, out,
                 err),
            2);
}

TEST(Cli, RenderUnknownBlockFails) {
  std::ostringstream out, err;
  EXPECT_EQ(
      Main({"render", DatasetPath(), "--block", "203.0.113.0/24"}, out, err),
      1);
  EXPECT_NE(err.str().find("no activity"), std::string::npos);
}

TEST(Cli, RenderKnownBlock) {
  // Find a block via the blocks listing, then render it.
  std::ostringstream listing, err;
  ASSERT_EQ(Main({"blocks", DatasetPath(), "--top", "1"}, listing, err), 0);
  std::string text = listing.str();
  auto pos = text.find("| ", text.find("pattern")) ;
  pos = text.find("\n| ", text.find("---"));
  ASSERT_NE(pos, std::string::npos);
  auto end = text.find(' ', pos + 3);
  std::string block = text.substr(pos + 3, end - pos - 3);

  std::ostringstream out;
  EXPECT_EQ(Main({"render", DatasetPath(), "--block", block}, out, err), 0)
      << "block=" << block << " err=" << err.str();
  EXPECT_NE(out.str().find("FD="), std::string::npos);
}

TEST(Cli, EventsHistogram) {
  std::ostringstream out, err;
  EXPECT_EQ(Main({"events", DatasetPath(), "--window", "28"}, out, err), 0)
      << err.str();
  EXPECT_NE(out.str().find("/29-/32"), std::string::npos);
  EXPECT_NE(out.str().find("total up events"), std::string::npos);
}

TEST(Cli, HitlistEmitsOneAddressPerBlock) {
  std::ostringstream out, err;
  EXPECT_EQ(Main({"hitlist", DatasetPath()}, out, err), 0) << err.str();
  // Every output line parses as an IPv4 address.
  std::istringstream lines{out.str()};
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) {
    EXPECT_TRUE(ipscope::net::IPv4Addr::Parse(line).has_value()) << line;
    ++count;
  }
  EXPECT_GT(count, 50);
  EXPECT_NE(err.str().find("most-active"), std::string::npos);
}

TEST(Cli, HitlistRejectsUnknownStrategy) {
  std::ostringstream out, err;
  EXPECT_EQ(Main({"hitlist", DatasetPath(), "--strategy", "psychic"}, out,
                 err),
            2);
}

TEST(Cli, ExportWritesCsvFiles) {
  std::string dir = ::testing::TempDir();
  std::ostringstream out, err;
  EXPECT_EQ(Main({"export", DatasetPath(), "--outdir", dir}, out, err), 0)
      << err.str();
  for (const char* name :
       {"daily_counts.csv", "block_metrics.csv", "churn.csv"}) {
    std::ifstream is{dir + "/" + name};
    EXPECT_TRUE(is.good()) << name;
    std::string header;
    std::getline(is, header);
    EXPECT_FALSE(header.empty()) << name;
    EXPECT_NE(header.find(','), std::string::npos) << name;
  }
}

TEST(Cli, ExportRequiresOutdir) {
  std::ostringstream out, err;
  EXPECT_EQ(Main({"export", DatasetPath()}, out, err), 2);
}

TEST(Cli, DescribePrintsWorldInventory) {
  std::ostringstream out, err;
  EXPECT_EQ(Main({"describe", "--blocks", "200", "--seed", "3"}, out, err),
            0)
      << err.str();
  std::string text = out.str();
  EXPECT_NE(text.find("seed 3"), std::string::npos);
  EXPECT_NE(text.find("residential-isp"), std::string::npos);
  EXPECT_NE(text.find("assignment policy"), std::string::npos);
  EXPECT_NE(text.find("reconfigurations"), std::string::npos);
}

TEST(Cli, GenerateRejectsNonNumericSeed) {
  std::ostringstream out, err;
  EXPECT_EQ(Main({"generate", "--blocks", "10", "--seed", "banana", "--out",
                  "/tmp/never_written.bin"},
                 out, err),
            2);
  EXPECT_NE(err.str().find("--seed"), std::string::npos);
}

// Command -> the --flags its usage section documents (the heading and
// description lines up to the next command), from `ipscope_cli help`.
std::map<std::string, std::set<std::string>> DocumentedFlags() {
  std::ostringstream out, err;
  EXPECT_EQ(Main({"help"}, out, err), 0);
  std::map<std::string, std::set<std::string>> documented;
  auto is_lower = [](char c) { return c >= 'a' && c <= 'z'; };
  std::istringstream usage{out.str()};
  std::string line, command;
  while (std::getline(usage, line)) {
    if (line.rfind("global flags", 0) == 0) break;
    // A heading is indented two spaces: "  <command> [args]".
    if (line.size() > 2 && line.rfind("  ", 0) == 0 && is_lower(line[2])) {
      command = line.substr(2, line.find(' ', 2) - 2);
      documented[command];
    }
    if (command.empty()) continue;
    for (auto at = line.find("--"); at != std::string::npos;
         at = line.find("--", at + 2)) {
      auto end = at + 2;
      while (end < line.size() && (is_lower(line[end]) || line[end] == '-')) {
        ++end;
      }
      if (end > at + 2) {
        documented[command].insert(line.substr(at + 2, end - at - 2));
      }
    }
  }
  return documented;
}

TEST(CliFlags, EveryDocumentedFlagIsAccepted) {
  auto documented = DocumentedFlags();
  ASSERT_GE(documented.size(), 15u);
  ASSERT_TRUE(documented.count("reproduce"));
  EXPECT_EQ(documented["reproduce"],
            (std::set<std::string>{"blocks", "seed", "only", "out"}));
  for (const auto& [command, flags] : documented) {
    for (const char* name :
         {"threads", "metrics-out", "metrics-format", "trace-out"}) {
      CommandLine cmd{command, {}, {{name, "1"}}};
      EXPECT_NO_THROW(ValidateFlags(cmd)) << command << " --" << name;
    }
    for (const std::string& name : flags) {
      CommandLine cmd{command, {}, {{name, "1"}}};
      EXPECT_NO_THROW(ValidateFlags(cmd)) << command << " --" << name;
    }
  }
}

TEST(CliFlags, MisspelledFlagExitsTwoForEveryCommand) {
  for (const auto& [command, flags] : DocumentedFlags()) {
    std::ostringstream out, err;
    EXPECT_EQ(Main({command, "--blokcs", "50"}, out, err), 2) << command;
    EXPECT_NE(err.str().find("--blokcs"), std::string::npos)
        << command << ": " << err.str();
    EXPECT_TRUE(out.str().empty()) << command << " ran: " << out.str();
  }
}

TEST(CliFlags, MisspelledSeedDoesNotRunReproduce) {
  std::ostringstream out, err;
  EXPECT_EQ(Main({"reproduce", "--sead", "3", "--only", "fig1_growth"}, out,
                 err),
            2);
  EXPECT_NE(err.str().find("--sead"), std::string::npos) << err.str();
  EXPECT_TRUE(out.str().empty());
}

TEST(CliFlags, ServeAndServeSmokeRejectEachOthersFlags) {
  // The daemon and the smoke client are separate commands with separate
  // flag lists: neither silently ignores a flag only the other reads.
  struct Case {
    std::vector<std::string> args;
    const char* flag;
  };
  for (const Case& c :
       {Case{{"serve", "x.store", "--clients", "4"}, "--clients"},
        Case{{"serve-smoke", "--session", "d"}, "--session"}}) {
    std::ostringstream out, err;
    EXPECT_EQ(Main(c.args, out, err), 2) << c.args[0];
    EXPECT_NE(err.str().find(c.flag), std::string::npos)
        << c.args[0] << ": " << err.str();
    EXPECT_TRUE(out.str().empty()) << c.args[0] << " ran: " << out.str();
  }
}

TEST(Cli, MalformedIntFlagFails) {
  std::ostringstream out, err;
  EXPECT_EQ(Main({"churn", DatasetPath(), "--window", "soon"}, out, err), 2);
  EXPECT_NE(err.str().find("--window"), std::string::npos);
  std::ostringstream out2, err2;
  EXPECT_EQ(Main({"describe", "--blocks", "12x"}, out2, err2), 2);
  EXPECT_NE(err2.str().find("--blocks"), std::string::npos);
}

TEST(Cli, GlobalFlagsWriteMetricsAndTrace) {
  const std::string base = ::testing::TempDir() + "/ipscope_cli_obs." +
                           std::to_string(getpid());
  const std::string metrics = base + ".metrics.json";
  const std::string trace = base + ".trace.json";
  std::ostringstream out, err;
  ASSERT_EQ(Main({"generate", "--blocks", "150", "--out", base + ".bin",
                  "--metrics-out", metrics, "--trace-out", trace},
                 out, err),
            0)
      << err.str();
  std::ifstream mis{metrics};
  ASSERT_TRUE(mis.good());
  std::string mjson{std::istreambuf_iterator<char>(mis),
                    std::istreambuf_iterator<char>()};
  EXPECT_NE(mjson.find("\"histograms\""), std::string::npos);
  EXPECT_NE(mjson.find("\"p99\""), std::string::npos);
  // The histograms of every layer `generate` passes through: world build,
  // store build and save.
  for (const char* histogram :
       {"sim.world.build_seconds", "cdn.observatory.build_seconds",
        "io.store.save_seconds"}) {
    EXPECT_NE(mjson.find(std::string("\"") + histogram + "\": {\"count\": "),
              std::string::npos)
        << histogram;
  }
  std::ifstream tis{trace};
  ASSERT_TRUE(tis.good());
  std::string tjson{std::istreambuf_iterator<char>(tis),
                    std::istreambuf_iterator<char>()};
  EXPECT_NE(tjson.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(tjson.find("\"ph\": \"X\""), std::string::npos);
}

TEST(Cli, WeeklyGeneration) {
  std::string path = ::testing::TempDir() + "/ipscope_cli_weekly." +
                     std::to_string(getpid()) + ".bin";
  std::ostringstream out, err;
  ASSERT_EQ(Main({"generate", "--blocks", "100", "--weekly", "--out", path},
                 out, err),
            0)
      << err.str();
  std::ostringstream summary;
  ASSERT_EQ(Main({"summary", path}, summary, err), 0);
  EXPECT_NE(summary.str().find("52 snapshots"), std::string::npos);
}

}  // namespace
}  // namespace ipscope::cli
