// End-to-end tests of `ipscope_cli check` — the differential oracle sweep
// plus golden-snapshot verification — and of `ipscope_cli reproduce`
// against the committed experiment goldens.
#include "cli/commands.h"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "analysis/experiments.h"
#include "check/golden.h"
#include "par/pool.h"


namespace ipscope::cli {
namespace {

namespace fs = std::filesystem;

// Small worlds keep the sweep to a couple of seconds across all cases.
constexpr const char* kBlocks = "60";

std::string ReadFile(const fs::path& path) {
  std::ifstream is{path, std::ios::binary};
  std::ostringstream buf;
  buf << is.rdbuf();
  return buf.str();
}

std::set<std::string> FileNames(const fs::path& dir) {
  std::set<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir)) {
    names.insert(entry.path().filename().string());
  }
  return names;
}

// Every file under `dir`, by path relative to it.
std::set<std::string> TreeFiles(const fs::path& dir) {
  std::set<std::string> names;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      names.insert(fs::relative(entry.path(), dir).generic_string());
    }
  }
  return names;
}

// Each test works on its own copy of the committed goldens.
class CliCheck : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("ipscope_cli_check_" + std::string(::testing::UnitTest::
                                                   GetInstance()
                                                       ->current_test_info()
                                                       ->name()));
    fs::remove_all(dir_);
    fs::copy(IPSCOPE_GOLDEN_DIR, dir_, fs::copy_options::recursive);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(CliCheck, CleanTreePassesSweepAndGoldens) {
  std::ostringstream out, err;
  int rc = Main({"check", "--blocks", kBlocks, "--threads-max", "2",
                 "--goldens", dir_.string()},
                out, err);
  EXPECT_EQ(rc, 0) << out.str() << err.str();
  const std::string text = out.str();
  EXPECT_NE(text.find("fault=none"), std::string::npos);
  EXPECT_NE(text.find("fault=drop-days=2"), std::string::npos);
  EXPECT_NE(text.find("threads=1"), std::string::npos);
  EXPECT_NE(text.find("threads=2"), std::string::npos);
  EXPECT_NE(text.find("golden snapshots"), std::string::npos);
  EXPECT_NE(text.find("check: PASS"), std::string::npos);
  EXPECT_EQ(text.find("FAIL"), std::string::npos);
}

TEST_F(CliCheck, SeededMutationExitsNonZeroWithCoordinates) {
  std::ostringstream out, err;
  int rc = Main({"check", "--blocks", kBlocks, "--threads-max", "1",
                 "--goldens", dir_.string(), "--perturb", "flip-bit"},
                out, err);
  EXPECT_EQ(rc, 1) << out.str();
  const std::string text = out.str();
  EXPECT_NE(text.find("perturb=flip-bit"), std::string::npos);
  EXPECT_NE(text.find("reference="), std::string::npos);
  EXPECT_NE(text.find("optimized="), std::string::npos);
  EXPECT_NE(text.find("check: FAIL"), std::string::npos);
}

TEST_F(CliCheck, CorruptedGoldenExitsNonZero) {
  // Perturb one digit of a committed churn value; the CRC manifest must
  // flag the file as stale and the command must fail.
  fs::path churn = dir_ / "churn.csv";
  std::string contents;
  {
    std::ifstream is{churn, std::ios::binary};
    std::ostringstream buf;
    buf << is.rdbuf();
    contents = buf.str();
  }
  auto digit = contents.find_first_of("0123456789", contents.find('\n'));
  ASSERT_NE(digit, std::string::npos);
  contents[digit] = contents[digit] == '9' ? '8' : contents[digit] + 1;
  {
    std::ofstream os{churn, std::ios::binary};
    os << contents;
  }
  std::ostringstream out, err;
  int rc = Main({"check", "--blocks", kBlocks, "--threads-max", "1",
                 "--goldens", dir_.string()},
                out, err);
  EXPECT_EQ(rc, 1) << out.str();
  EXPECT_NE(out.str().find("stale-golden"), std::string::npos);
  EXPECT_NE(out.str().find("churn.csv"), std::string::npos);
}

// --update-goldens re-renders exactly the committed set: every series CSV,
// every experiment's text and the manifest, byte for byte.
TEST_F(CliCheck, UpdateGoldensRewritesTheCommittedSet) {
  fs::remove_all(dir_);
  std::ostringstream out, err;
  ASSERT_EQ(Main({"check", "--update-goldens", "--goldens", dir_.string()},
                 out, err),
            0)
      << err.str();
  const fs::path committed = IPSCOPE_GOLDEN_DIR;
  ASSERT_EQ(TreeFiles(dir_), TreeFiles(committed));
  for (const std::string& name : TreeFiles(committed)) {
    EXPECT_EQ(ReadFile(dir_ / name), ReadFile(committed / name)) << name;
  }
}

TEST_F(CliCheck, UnknownPerturbModeIsFlagError) {
  std::ostringstream out, err;
  int rc = Main({"check", "--perturb", "banana"}, out, err);
  EXPECT_EQ(rc, 2);
  EXPECT_NE(err.str().find("unknown --perturb"), std::string::npos);
}

TEST_F(CliCheck, UsageMentionsCheck) {
  std::ostringstream out, err;
  EXPECT_EQ(Main({"help"}, out, err), 0);
  EXPECT_NE(out.str().find("check ["), std::string::npos);
}

class Reproduce : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("ipscope_reproduce_" + std::string(::testing::UnitTest::
                                                   GetInstance()
                                                       ->current_test_info()
                                                       ->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

// The whole reproduction through the CLI — one shared Inputs, every
// experiment in registry order — at the canonical golden world equals the
// committed goldens file for file; a failure names the experiment.
TEST_F(Reproduce, GoldenWorldMatchesCommittedExperimentGoldens) {
  check::GoldenConfig golden;
  std::ostringstream out, err;
  ASSERT_EQ(Main({"reproduce", "--blocks", std::to_string(golden.blocks),
                  "--seed", std::to_string(golden.seed), "--out",
                  dir_.string()},
                 out, err),
            0)
      << err.str();
  EXPECT_TRUE(out.str().empty());  // --out sends every experiment to DIR

  const fs::path committed = fs::path(IPSCOPE_GOLDEN_DIR) / "experiments";
  EXPECT_EQ(FileNames(dir_), FileNames(committed));
  for (const analysis::Experiment& e : analysis::Experiments()) {
    const std::string name = std::string(e.id) + ".txt";
    EXPECT_EQ(ReadFile(dir_ / name), ReadFile(committed / name))
        << "experiment " << e.id << " differs from its golden";
  }
  // One timing row per experiment, between the inputs and total rows.
  const std::string rows = err.str();
  for (const analysis::Experiment& e : analysis::Experiments()) {
    EXPECT_NE(rows.find("\n" + std::string(e.id) + " "), std::string::npos)
        << e.id;
  }
  EXPECT_EQ(rows.rfind("inputs ", 0), 0u) << rows;
  EXPECT_NE(rows.find("\ntotal "), std::string::npos) << rows;
}

// Thread-count independence (the ordered-merge contract of DESIGN §4.8):
// the reproduction renders the committed goldens at pool sizes 1, 2 and an
// oversubscribed 7.
TEST_F(Reproduce, EveryPoolSizeMatchesCommittedExperimentGoldens) {
  check::GoldenConfig golden;
  const fs::path committed = fs::path(IPSCOPE_GOLDEN_DIR) / "experiments";
  const int pool_threads = par::GlobalPool().threads();
  for (int threads : {1, 2, 7}) {
    const fs::path out_dir = dir_ / std::to_string(threads);
    std::ostringstream out, err;
    EXPECT_EQ(Main({"reproduce", "--threads", std::to_string(threads),
                    "--blocks", std::to_string(golden.blocks), "--seed",
                    std::to_string(golden.seed), "--out", out_dir.string()},
                   out, err),
              0)
        << err.str();
    for (const analysis::Experiment& e : analysis::Experiments()) {
      const std::string name = std::string(e.id) + ".txt";
      EXPECT_EQ(ReadFile(out_dir / name), ReadFile(committed / name))
          << "experiment " << e.id << " differs from its golden at pool size "
          << threads;
    }
  }
  par::GlobalPool().Resize(pool_threads);
}

TEST_F(Reproduce, OnlyWritesExactlyTheSelectedExperiments) {
  std::ostringstream out, err;
  ASSERT_EQ(Main({"reproduce", "--blocks", kBlocks, "--only",
                  "ipv6_note,fig1_growth", "--out", dir_.string()},
                 out, err),
            0)
      << err.str();
  EXPECT_EQ(FileNames(dir_),
            (std::set<std::string>{"fig1_growth.txt", "ipv6_note.txt"}));
  EXPECT_EQ(err.str().find("fig4_churn"), std::string::npos) << err.str();
}

TEST_F(Reproduce, WithoutOutPrintsToStdout) {
  std::ostringstream out, err;
  ASSERT_EQ(Main({"reproduce", "--blocks", kBlocks, "--only", "fig1_growth"},
                 out, err),
            0)
      << err.str();
  EXPECT_NE(out.str().find("Fig 1"), std::string::npos) << out.str();
  EXPECT_FALSE(fs::exists(dir_));
}

TEST_F(Reproduce, UnknownIdExitsTwoAndListsKnownIds) {
  std::ostringstream out, err;
  EXPECT_EQ(Main({"reproduce", "--blocks", kBlocks, "--only",
                  "fig4_churn,fig99_nope", "--out", dir_.string()},
                 out, err),
            2);
  EXPECT_NE(err.str().find("fig99_nope"), std::string::npos) << err.str();
  for (const analysis::Experiment& e : analysis::Experiments()) {
    EXPECT_NE(err.str().find(std::string(e.id)), std::string::npos) << e.id;
  }
  EXPECT_FALSE(fs::exists(dir_ / "fig4_churn.txt"));
}

TEST_F(Reproduce, NonPositiveOrMalformedBlocksExitTwo) {
  for (const char* blocks : {"0", "-5", "x"}) {
    std::ostringstream out, err;
    EXPECT_EQ(Main({"reproduce", "--blocks", blocks, "--out", dir_.string()},
                   out, err),
              2)
        << blocks;
    EXPECT_NE(err.str().find("--blocks"), std::string::npos) << err.str();
  }
  EXPECT_FALSE(fs::exists(dir_));
}

}  // namespace
}  // namespace ipscope::cli
