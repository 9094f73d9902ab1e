// Crash-safety tests for the sharded ingest store (src/ingest): the
// commit protocol's crash-point sweep (ingest/crash_sweep.h) with the
// production recovery and with one that adopts orphans, idempotent
// replay, manifest tamper detection, and quarantine of torn or orphaned
// files. Lives in the `chaos` ctest label with the other
// corruption-recovery suites.
#include "ingest/session.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fault/crash.h"
#include "ingest/crash_sweep.h"
#include "ingest/manifest.h"
#include "io/atomic_file.h"
#include "io/crc32c.h"
#include "par/pool.h"

namespace ipscope::ingest {
namespace {

namespace fs = std::filesystem;

constexpr int kDays = 12;

// A small deterministic store built by hand — no pool, no simulator — so
// the fork-based tests never race a worker thread.
activity::ActivityStore BuildStore(int days, std::uint64_t salt) {
  activity::ActivityStore store{days};
  for (std::uint32_t b = 0; b < 4; ++b) {
    auto& m = store.GetOrCreate(net::BlockKey{0x0A0000u + b * 7});
    for (int d = 0; d < days; ++d) {
      m.Row(d)[b % 4] = (salt + 1) * 0x9E3779B97F4A7C15ULL ^
                        (static_cast<std::uint64_t>(d) << b);
    }
  }
  return store;
}

std::string FreshDir(const std::string& tag) {
  std::string dir = ::testing::TempDir() + "ipscope_ingest_" + tag + "_" +
                    std::to_string(::getpid());
  fs::remove_all(dir);
  return dir;
}

// The sweep's cases: one hand-built store split in half, under three
// crash seeds (the seed moves the mid-shard-write split).
std::vector<CrashCase> SweepCases() {
  auto full = BuildStore(kDays, 1);
  std::vector<CrashCase> cases;
  for (std::uint64_t seed : {11ull, 23ull, 47ull}) {
    CrashCase c{seed, SliceDays(full, 0, kDays / 2 - 1),
                SliceDays(full, kDays / 2, kDays - 1), "", StoreBytes(full)};
    c.prefix_bytes = StoreBytes(c.delta0);
    cases.push_back(std::move(c));
  }
  return cases;
}

// Runs the sweep with the pool down to its inline strategy (fork safety:
// no worker threads alive) and removes its directories afterwards.
std::vector<CrashCell> Sweep(const std::string& tag,
                             const RecoveryOpener& recover) {
  const std::string root = FreshDir(tag);
  int pool_threads = par::GlobalPool().threads();
  par::GlobalPool().Resize(1);
  auto cells = SweepCrashPoints(SweepCases(), root, recover);
  par::GlobalPool().Resize(pool_threads);
  fs::remove_all(root);
  return cells;
}

// A broken recovery: instead of quarantining orphaned shards (a crash
// between the shard rename and the manifest commit), it names each one in
// a new MANIFEST as if it had been committed, then opens the store.
Result<Session, io::StoreError> AdoptOrphansThenOpen(const std::string& dir,
                                                     int days) {
  std::ifstream is{fs::path(dir) / "MANIFEST", std::ios::binary};
  std::ostringstream text;
  text << is.rdbuf();
  auto parsed = ParseManifest(text.str());
  if (!parsed.ok()) return parsed.error();
  Manifest manifest = std::move(parsed).value();
  std::vector<std::string> names;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    std::string name = entry.path().filename().string();
    if (name.ends_with(".ips2") && !manifest.HasShardFile(name)) {
      names.push_back(name);
    }
  }
  std::sort(names.begin(), names.end());
  for (const std::string& name : names) {
    std::ifstream shard{fs::path(dir) / name, std::ios::binary};
    std::ostringstream bytes;
    bytes << shard.rdbuf();
    const std::string b = bytes.str();
    // Shard names read shard-<first>-<last>-<delta id>.ips2.
    int first = 0;
    int last = 0;
    std::from_chars(name.data() + 6, name.data() + 9, first);
    std::from_chars(name.data() + 10, name.data() + 13, last);
    manifest.shards.push_back(ShardEntry{name, first, last, "adopted-" + name,
                                         b.size(),
                                         io::Crc32c(b.data(), b.size())});
  }
  if (auto error = io::WriteFileAtomic(
          (fs::path(dir) / "MANIFEST").string(), manifest.Serialize())) {
    return io::StoreError{io::StoreErrorKind::kWriteFailed, 0, *error};
  }
  return Session::Open(dir, days);
}

TEST(IngestCrash, SweepEveryPointRecoversCommittedPrefix) {
  auto cells = Sweep("sweep", Session::Open);
  EXPECT_EQ(cells.size(), fault::CrashPoints().size() * 3);
  for (const CrashCell& cell : cells) {
    EXPECT_TRUE(cell.ok()) << cell.point << " seed " << cell.seed << ": "
                           << cell.failure;
  }
}

TEST(IngestCrash, SweepFailsARecoveryThatAdoptsOrphans) {
  // Only a crash after the shard rename and before the manifest rename
  // leaves an orphan to adopt; every such cell must fail, every other
  // cell must still pass.
  auto cells = Sweep("teeth", AdoptOrphansThenOpen);
  ASSERT_EQ(cells.size(), fault::CrashPoints().size() * 3);
  for (const CrashCell& cell : cells) {
    const bool leaves_orphan = cell.point == "pre-manifest-append" ||
                               cell.point == "pre-manifest-fsync" ||
                               cell.point == "pre-manifest-rename";
    EXPECT_EQ(cell.ok(), !leaves_orphan)
        << cell.point << " seed " << cell.seed << ": " << cell.failure;
  }
}

TEST(IngestCrash, ReplayingTheSameDeltaChangesNothing) {
  auto full = BuildStore(kDays, 2);
  auto delta = SliceDays(full, 0, 3);
  std::string dir = FreshDir("replay");

  auto opened = Session::Open(dir, kDays);
  ASSERT_TRUE(opened.ok());
  Session session = std::move(opened).value();
  auto first = session.Append(delta, "day-0-3");
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first.value().applied);
  const std::string after_first = StoreBytes(session.Load().value());
  const auto manifest_after_first = session.manifest().Serialize();

  auto second = session.Append(delta, "day-0-3");
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second.value().applied);
  EXPECT_EQ(second.value().shard_file, first.value().shard_file);
  EXPECT_EQ(session.manifest().Serialize(), manifest_after_first);
  EXPECT_EQ(StoreBytes(session.Load().value()), after_first);

  // The on-disk manifest is unchanged too, not just the in-memory copy.
  auto reopened = Session::Open(dir, kDays);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value().manifest().Serialize(), manifest_after_first);
  fs::remove_all(dir);
}

TEST(IngestCrash, DeltaIngestMatchesBatchBuildBitExactly) {
  auto full = BuildStore(kDays, 3);
  std::string dir = FreshDir("compose");

  auto opened = Session::Open(dir, kDays);
  ASSERT_TRUE(opened.ok());
  Session session = std::move(opened).value();
  ASSERT_TRUE(session.Append(SliceDays(full, 0, 4), "a").ok());
  ASSERT_TRUE(session.Append(SliceDays(full, 5, 8), "b").ok());
  ASSERT_TRUE(session.Append(SliceDays(full, 9, kDays - 1), "c").ok());

  auto loaded = session.Load();
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(StoreBytes(loaded.value()), StoreBytes(full));
  fs::remove_all(dir);
}

TEST(IngestCrash, TamperedManifestIsAChecksumError) {
  std::string dir = FreshDir("tamper");
  {
    auto opened = Session::Open(dir, kDays);
    ASSERT_TRUE(opened.ok());
    auto delta = SliceDays(BuildStore(kDays, 4), 0, 5);
    ASSERT_TRUE(opened.value().Append(delta, "d").ok());
  }
  // Flip one byte that keeps the line grammatical — the delta id 'd'
  // becomes 'e' — so only the commit CRC can catch the tamper.
  fs::path manifest_path = fs::path(dir) / "MANIFEST";
  std::string text;
  {
    std::ifstream is{manifest_path, std::ios::binary};
    std::ostringstream buf;
    buf << is.rdbuf();
    text = std::move(buf).str();
  }
  std::size_t at = text.find(" d ");
  ASSERT_NE(at, std::string::npos);
  text[at + 1] = 'e';
  {
    std::ofstream os{manifest_path, std::ios::binary | std::ios::trunc};
    os << text;
  }
  auto reopened = Session::Open(dir, kDays);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.error().kind, io::StoreErrorKind::kChecksumMismatch)
      << reopened.error().ToString();
  fs::remove_all(dir);
}

TEST(IngestCrash, TamperedShardIsAChecksumError) {
  std::string dir = FreshDir("shard_tamper");
  std::string shard_file;
  {
    auto opened = Session::Open(dir, kDays);
    ASSERT_TRUE(opened.ok());
    auto delta = SliceDays(BuildStore(kDays, 5), 0, 5);
    auto r = opened.value().Append(delta, "d");
    ASSERT_TRUE(r.ok());
    shard_file = r.value().shard_file;
  }
  fs::path shard_path = fs::path(dir) / shard_file;
  std::fstream f{shard_path, std::ios::in | std::ios::out | std::ios::binary};
  f.seekp(40);
  f.put('\x5a');
  f.close();
  auto reopened = Session::Open(dir, kDays);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.error().kind, io::StoreErrorKind::kChecksumMismatch);
  fs::remove_all(dir);
}

TEST(IngestCrash, TornTempAndOrphanShardAreQuarantined) {
  std::string dir = FreshDir("quarantine");
  auto delta = SliceDays(BuildStore(kDays, 6), 0, 5);
  {
    auto opened = Session::Open(dir, kDays);
    ASSERT_TRUE(opened.ok());
    ASSERT_TRUE(opened.value().Append(delta, "committed").ok());
  }
  // A torn temp write and an orphan shard the manifest does not name.
  std::ofstream{fs::path(dir) / "shard-junk.ips2.tmp"} << "torn";
  std::ofstream{fs::path(dir) / "shard-006-009-orphan.ips2"} << "not committed";

  auto reopened = Session::Open(dir, kDays);
  ASSERT_TRUE(reopened.ok()) << reopened.error().ToString();
  const auto& quarantined = reopened.value().recovery().quarantined;
  ASSERT_EQ(quarantined.size(), 2u);
  EXPECT_FALSE(fs::exists(fs::path(dir) / "shard-junk.ips2.tmp"));
  EXPECT_FALSE(fs::exists(fs::path(dir) / "shard-006-009-orphan.ips2"));
  EXPECT_TRUE(fs::exists(fs::path(dir) / "quarantine"));
  // The committed shard still loads; the junk never reaches the store.
  auto loaded = reopened.value().Load();
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(StoreBytes(loaded.value()), StoreBytes(delta));
  fs::remove_all(dir);
}

TEST(IngestCrash, OpenErrorsAreTyped) {
  // No manifest and no day count: nothing to create a store from.
  std::string dir = FreshDir("typed");
  auto no_days = Session::Open(dir, 0);
  ASSERT_FALSE(no_days.ok());
  EXPECT_EQ(no_days.error().kind, io::StoreErrorKind::kOpenFailed);

  // Day-count mismatch against an existing manifest.
  {
    auto opened = Session::Open(dir, kDays);
    ASSERT_TRUE(opened.ok());
    ASSERT_TRUE(opened.value()
                    .Append(SliceDays(BuildStore(kDays, 8), 0, 2), "d")
                    .ok());
  }
  auto mismatch = Session::Open(dir, kDays + 5);
  ASSERT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.error().kind, io::StoreErrorKind::kMalformed);

  // Adopting the manifest's day count with days <= 0 works.
  auto adopted = Session::Open(dir, 0);
  ASSERT_TRUE(adopted.ok());
  EXPECT_EQ(adopted.value().days(), kDays);
  fs::remove_all(dir);
}

TEST(IngestCrash, AppendValidatesItsInputs) {
  std::string dir = FreshDir("validate");
  auto opened = Session::Open(dir, kDays);
  ASSERT_TRUE(opened.ok());
  Session session = std::move(opened).value();

  auto bad_id = session.Append(SliceDays(BuildStore(kDays, 9), 0, 2),
                               "has spaces");
  ASSERT_FALSE(bad_id.ok());
  EXPECT_EQ(bad_id.error().kind, io::StoreErrorKind::kMalformed);

  activity::ActivityStore wrong_days{kDays + 1};
  auto mismatch = session.Append(wrong_days, "d");
  ASSERT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.error().kind, io::StoreErrorKind::kMalformed);

  activity::ActivityStore empty{kDays};
  for (int d = 0; d < kDays; ++d) empty.SetDayCovered(d, false);
  auto no_days = session.Append(empty, "d");
  ASSERT_FALSE(no_days.ok());
  EXPECT_EQ(no_days.error().kind, io::StoreErrorKind::kMalformed);
  fs::remove_all(dir);
}

// --- manifest grammar ------------------------------------------------------

TEST(IngestManifest, RoundTripsThroughSerializeAndParse) {
  Manifest m;
  m.days = 42;
  m.shards.push_back(ShardEntry{"shard-000-006-a.ips2", 0, 6, "a", 123,
                                0xDEADBEEF});
  m.shards.push_back(ShardEntry{"shard-007-041-b.ips2", 7, 41, "b", 456,
                                0x12345678});
  auto parsed = ParseManifest(m.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.error().ToString();
  EXPECT_EQ(parsed.value().Serialize(), m.Serialize());
  EXPECT_TRUE(parsed.value().HasDelta("a"));
  EXPECT_TRUE(parsed.value().HasShardFile("shard-007-041-b.ips2"));
}

TEST(IngestManifest, RejectsMalformedInputsWithTypedErrors) {
  using Kind = io::StoreErrorKind;
  EXPECT_EQ(ParseManifest("").error().kind, Kind::kTruncated);
  EXPECT_EQ(ParseManifest("not a manifest\n").error().kind, Kind::kBadMagic);

  Manifest m;
  m.days = 10;
  m.shards.push_back(ShardEntry{"s.ips2", 0, 5, "a", 9, 0x1});
  std::string good = m.Serialize();

  // Truncation: chop the commit line off.
  std::string no_commit = good.substr(0, good.find("commit"));
  EXPECT_EQ(ParseManifest(no_commit).error().kind, Kind::kTruncated);
  // Any flipped payload byte breaks the commit CRC.
  std::string flipped = good;
  flipped[good.find("s.ips2")] = 'z';
  EXPECT_EQ(ParseManifest(flipped).error().kind, Kind::kChecksumMismatch);
  // Content after the commit line is never legal.
  EXPECT_EQ(ParseManifest(good + "trailing\n").error().kind,
            Kind::kMalformed);
  // Duplicate delta ids cannot round-trip.
  Manifest dup = m;
  dup.shards.push_back(ShardEntry{"t.ips2", 6, 8, "a", 9, 0x2});
  EXPECT_EQ(ParseManifest(dup.Serialize()).error().kind, Kind::kMalformed);
  // Day range outside the store's period.
  Manifest range = m;
  range.shards[0].day_last = 10;
  EXPECT_EQ(ParseManifest(range.Serialize()).error().kind, Kind::kMalformed);
}

}  // namespace
}  // namespace ipscope::ingest
