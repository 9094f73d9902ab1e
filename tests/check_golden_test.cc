// Golden-snapshot store tests: write/verify round trip, and the three
// failure modes (missing, stale/corrupt, code regression). They use the
// figure-series set only; the experiment set is checked against the
// committed goldens in cli_check_test.cc.
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/experiments.h"
#include "check/golden.h"

namespace ipscope {
namespace {

namespace fs = std::filesystem;

// Small canonical world so each render stays fast.
check::GoldenConfig TestConfig() {
  check::GoldenConfig config;
  config.seed = 9;
  config.blocks = 80;
  return config;
}

// The series set of `config`'s world.
std::vector<check::GoldenFile> Render(const check::GoldenConfig& config) {
  sim::WorldConfig world;
  world.target_client_blocks = config.blocks;
  world.seed = config.seed;
  return check::RenderGoldens(config, analysis::Inputs{world});
}

class GoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("ipscope_golden_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string ReadFile(const std::string& name) {
    std::ifstream is{dir_ / name, std::ios::binary};
    std::ostringstream buf;
    buf << is.rdbuf();
    return buf.str();
  }

  // The series set written from / verified against `config`'s world.
  void Write(const check::GoldenConfig& config) {
    check::WriteGoldens(dir_.string(), Render(config));
  }
  std::vector<check::GoldenIssue> Verify(const check::GoldenConfig& config) {
    return check::VerifyGoldens(dir_.string(), Render(config));
  }

  void WriteFile(const std::string& name, const std::string& contents) {
    std::ofstream os{dir_ / name, std::ios::binary};
    os << contents;
  }

  fs::path dir_;
};

TEST_F(GoldenTest, RenderIsDeterministic) {
  auto a = Render(TestConfig());
  auto b = Render(TestConfig());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].contents, b[i].contents) << a[i].name;
  }
  EXPECT_EQ(check::RenderManifest(a), check::RenderManifest(b));
}

TEST_F(GoldenTest, WriteThenVerifyIsClean) {
  Write(TestConfig());
  EXPECT_TRUE(fs::exists(dir_ / "MANIFEST.csv"));
  EXPECT_TRUE(fs::exists(dir_ / "churn.csv"));
  auto issues = Verify(TestConfig());
  EXPECT_TRUE(issues.empty());
}

TEST_F(GoldenTest, CorruptSnapshotReportsStale) {
  Write(TestConfig());
  std::string churn = ReadFile("churn.csv");
  churn[churn.size() / 2] ^= 1;  // one flipped bit in the committed file
  WriteFile("churn.csv", churn);
  auto issues = Verify(TestConfig());
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].kind, check::GoldenIssue::Kind::kStale);
  EXPECT_EQ(issues[0].file, "churn.csv");
}

TEST_F(GoldenTest, MissingSnapshotReported) {
  Write(TestConfig());
  fs::remove(dir_ / "summary.csv");
  auto issues = Verify(TestConfig());
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].kind, check::GoldenIssue::Kind::kMissing);
  EXPECT_EQ(issues[0].file, "summary.csv");
}

TEST_F(GoldenTest, MissingManifestReported) {
  Write(TestConfig());
  fs::remove(dir_ / "MANIFEST.csv");
  auto issues = Verify(TestConfig());
  ASSERT_FALSE(issues.empty());
  EXPECT_EQ(issues[0].kind, check::GoldenIssue::Kind::kMissing);
  EXPECT_EQ(issues[0].file, "MANIFEST.csv");
}

TEST_F(GoldenTest, BehaviorChangeReportsRegressionNotStale) {
  // Goldens committed from one world; the code now renders another
  // (simulated by verifying with a different seed). The disk still matches
  // its manifest, so this must classify as a code regression with a line
  // coordinate, not as a stale checkout.
  Write(TestConfig());
  check::GoldenConfig changed = TestConfig();
  changed.seed = 10;
  auto issues = Verify(changed);
  ASSERT_FALSE(issues.empty());
  for (const auto& issue : issues) {
    EXPECT_EQ(issue.kind, check::GoldenIssue::Kind::kRegression) << issue.file;
    EXPECT_NE(issue.detail.find("line "), std::string::npos) << issue.detail;
  }
}

TEST_F(GoldenTest, ManifestOrphanReported) {
  Write(TestConfig());
  std::string manifest = ReadFile("MANIFEST.csv");
  manifest += "retired_series.csv,00000000\n";
  WriteFile("MANIFEST.csv", manifest);
  auto issues = Verify(TestConfig());
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].kind, check::GoldenIssue::Kind::kUnexpected);
  EXPECT_EQ(issues[0].file, "retired_series.csv");
}

}  // namespace
}  // namespace ipscope
