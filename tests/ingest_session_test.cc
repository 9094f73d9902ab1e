// Session::Load composition and Append input checks (src/ingest).
//
// Load decodes every shard straight into one combined store. The oracle
// here is the composition it replaced: load each shard into a store of
// its own with io::TryLoadStoreFile, union the coverage and OR the rows.
// Both must give the same image on shard sets built to stress the merge
// walk — keys that appear only early or only late, records with no
// non-empty day, two deltas on one day, coverage with holes.
#include "ingest/session.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "io/store_io.h"
#include "rng/rng.h"

namespace ipscope::ingest {
namespace {

namespace fs = std::filesystem;

constexpr int kDays = 12;

std::string FreshDir(const std::string& tag) {
  std::string dir = ::testing::TempDir() + "ipscope_session_" + tag + "_" +
                    std::to_string(::getpid());
  fs::remove_all(dir);
  return dir;
}

// A delta covering exactly `days`.
activity::ActivityStore Delta(const std::vector<int>& days) {
  activity::ActivityStore delta{kDays};
  for (int d = 0; d < kDays; ++d) delta.SetDayCovered(d, false);
  for (int d : days) delta.SetDayCovered(d, true);
  return delta;
}

// The per-shard composition: a full store per shard, then a coverage
// union and a row OR over the shard's covered days.
activity::ActivityStore ReferenceLoad(const Session& session) {
  activity::ActivityStore combined{session.days()};
  for (int d = 0; d < session.days(); ++d) combined.SetDayCovered(d, false);
  for (const ShardEntry& entry : session.manifest().shards) {
    auto loaded =
        io::TryLoadStoreFile((fs::path(session.dir()) / entry.file).string());
    EXPECT_TRUE(loaded.ok()) << loaded.error().ToString();
    if (!loaded.ok()) break;
    const activity::ActivityStore& shard = loaded.value().store;
    for (int d = 0; d < shard.days(); ++d) {
      if (shard.DayCovered(d)) combined.SetDayCovered(d, true);
    }
    shard.ForEach([&](net::BlockKey key, const activity::ActivityMatrix& m) {
      activity::ActivityMatrix& target = combined.GetOrCreate(key);
      for (int d = 0; d < shard.days(); ++d) {
        if (!shard.DayCovered(d)) continue;
        target.Row(d) = activity::OrBits(target.Row(d), m.Row(d));
      }
    });
  }
  return combined;
}

void ExpectLoadMatchesReference(const Session& session) {
  auto loaded = session.Load();
  ASSERT_TRUE(loaded.ok()) << loaded.error().ToString();
  const activity::ActivityStore reference = ReferenceLoad(session);
  EXPECT_EQ(loaded.value().MissingDayList(), reference.MissingDayList());
  EXPECT_EQ(StoreBytes(loaded.value()), StoreBytes(reference));
}

TEST(IngestSession, LoadMatchesPerShardCompositionOnAdversarialShards) {
  const std::string dir = FreshDir("adversarial");
  auto opened = Session::Open(dir, kDays);
  ASSERT_TRUE(opened.ok()) << opened.error().ToString();
  Session session = std::move(opened).value();

  // Key 15 appears only in the first shard and has no non-empty day.
  auto first = Delta({0, 1});
  first.GetOrCreate(10).Set(0, 1);
  first.GetOrCreate(20).Set(1, 2);
  first.GetOrCreate(15);
  ASSERT_TRUE(session.Append(first, "first").ok());

  // Keys 30 and 40 appear only in a later shard; 40 has no non-empty day.
  auto later = Delta({5});
  later.GetOrCreate(20).Set(5, 3);
  later.GetOrCreate(30).Set(5, 200);
  later.GetOrCreate(40);
  ASSERT_TRUE(session.Append(later, "later").ok());

  // A second delta on day 5: its rows OR with the first one's, and key 25
  // lands between keys already present.
  auto again = Delta({5});
  again.GetOrCreate(20).Set(5, 77);
  again.GetOrCreate(25).Set(5, 255);
  ASSERT_TRUE(session.Append(again, "again").ok());

  // Non-contiguous coverage inside one shard.
  auto gaps = Delta({8, 10});
  gaps.GetOrCreate(10).Set(8, 9);
  gaps.GetOrCreate(50).Set(10, 0);
  ASSERT_TRUE(session.Append(gaps, "gaps").ok());

  ExpectLoadMatchesReference(session);

  auto loaded = session.Load();
  ASSERT_TRUE(loaded.ok());
  const activity::ActivityStore& store = loaded.value();
  EXPECT_EQ(std::vector<net::BlockKey>(store.keys().begin(),
                                       store.keys().end()),
            (std::vector<net::BlockKey>{10, 15, 20, 25, 30, 40, 50}));
  EXPECT_EQ(store.MissingDays(), kDays - 5);
  EXPECT_TRUE(store.Find(15)->Empty());
  EXPECT_TRUE(store.Find(40)->Empty());
  EXPECT_TRUE(store.Find(20)->Get(5, 3));
  EXPECT_TRUE(store.Find(20)->Get(5, 77));
  EXPECT_TRUE(store.Find(10)->Get(0, 1));
  EXPECT_TRUE(store.Find(10)->Get(8, 9));
  fs::remove_all(dir);
}

TEST(IngestSession, LoadMatchesPerShardCompositionOnRandomShards) {
  rng::Xoshiro256 g{4242};
  for (int trial = 0; trial < 25; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const std::string dir = FreshDir("random");
    auto opened = Session::Open(dir, kDays);
    ASSERT_TRUE(opened.ok()) << opened.error().ToString();
    Session session = std::move(opened).value();
    const int shards = 1 + static_cast<int>(g.NextBounded(6));
    for (int s = 0; s < shards; ++s) {
      std::vector<int> days;
      for (int d = 0; d < kDays; ++d) {
        if (g.NextBool(0.25)) days.push_back(d);
      }
      if (days.empty()) days.push_back(static_cast<int>(g.NextBounded(kDays)));
      auto delta = Delta(days);
      const int keys = static_cast<int>(g.NextBounded(12));
      for (int k = 0; k < keys; ++k) {
        activity::ActivityMatrix& m = delta.GetOrCreate(g.NextBounded(40));
        for (int d : days) {
          if (g.NextBool(0.3)) continue;  // leave some records day-less
          m.Set(d, static_cast<int>(g.NextBounded(256)));
        }
      }
      auto appended = session.Append(delta, "s" + std::to_string(s));
      ASSERT_TRUE(appended.ok()) << appended.error().ToString();
    }
    ExpectLoadMatchesReference(session);
    fs::remove_all(dir);
  }
}

std::vector<std::string> Listing(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    names.push_back(fs::relative(entry.path(), dir).string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::string FileBytes(const fs::path& path) {
  std::ifstream is{path, std::ios::binary};
  std::ostringstream os;
  os << is.rdbuf();
  return std::move(os).str();
}

TEST(IngestSession, AppendRejectsActivityOnAnUncoveredDayBeforeWriting) {
  const std::string dir = FreshDir("uncovered");
  auto opened = Session::Open(dir, 4);
  ASSERT_TRUE(opened.ok()) << opened.error().ToString();
  Session session = std::move(opened).value();
  activity::ActivityStore good{4};
  for (int d = 1; d < 4; ++d) good.SetDayCovered(d, false);
  good.GetOrCreate(7).Set(0, 1);
  ASSERT_TRUE(session.Append(good, "good").ok());

  const std::vector<std::string> listing = Listing(dir);
  const std::string manifest = FileBytes(fs::path(dir) / "MANIFEST");

  // Day 0 covered, but a row set on day 2 after day 2 was marked
  // uncovered: no load could ever accept the shard this would write.
  activity::ActivityStore bad{4};
  for (int d = 1; d < 4; ++d) bad.SetDayCovered(d, false);
  bad.GetOrCreate(100).Set(0, 3);
  bad.GetOrCreate(100).Set(2, 5);
  auto appended = session.Append(bad, "bad");
  ASSERT_FALSE(appended.ok()) << "a shard Load rejects was committed";
  EXPECT_EQ(appended.error().kind, io::StoreErrorKind::kMalformed);
  EXPECT_NE(appended.error().message.find("uncovered day 2"),
            std::string::npos)
      << appended.error().message;

  // SaveStore throws the same error.
  try {
    std::ostringstream os;
    io::SaveStore(bad, os);
    ADD_FAILURE() << "SaveStore accepted a row on an uncovered day";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), appended.error().ToString());
  }

  // Nothing changed on disk or in the session, and the store still loads.
  EXPECT_EQ(Listing(dir), listing);
  EXPECT_EQ(FileBytes(fs::path(dir) / "MANIFEST"), manifest);
  EXPECT_FALSE(session.manifest().HasDelta("bad"));
  auto loaded = session.Load();
  ASSERT_TRUE(loaded.ok()) << loaded.error().ToString();
  EXPECT_EQ(StoreBytes(loaded.value()), StoreBytes(good));
  auto reopened = Session::Open(dir, 0);
  ASSERT_TRUE(reopened.ok()) << reopened.error().ToString();
  EXPECT_TRUE(reopened.value().recovery().quarantined.empty());
  auto reloaded = reopened.value().Load();
  ASSERT_TRUE(reloaded.ok()) << reloaded.error().ToString();
  EXPECT_EQ(StoreBytes(reloaded.value()), StoreBytes(good));
  fs::remove_all(dir);
}

// Load checks each shard against its manifest CRC by extending the
// decoder's stream CRC over the shard's last 4 bytes. A shard changed
// after Open must fail Load with the manifest mismatch a whole-file check
// reports, whichever check of the decoder's would also reject it: a
// flipped payload byte (the block CRC) or a flipped stream-CRC byte (the
// stream CRC).
TEST(IngestSession, LoadReportsAShardChangedAfterOpenAsAManifestMismatch) {
  const std::string dir = FreshDir("changed");
  {
    auto opened = Session::Open(dir, kDays);
    ASSERT_TRUE(opened.ok()) << opened.error().ToString();
    auto first = Delta({0, 1});
    first.GetOrCreate(10).Set(0, 1);
    first.GetOrCreate(20).Set(1, 2);
    ASSERT_TRUE(opened.value().Append(first, "first").ok());
    auto second = Delta({3});
    second.GetOrCreate(30).Set(3, 4);
    ASSERT_TRUE(opened.value().Append(second, "second").ok());
  }
  auto opened = Session::Open(dir, 0);
  ASSERT_TRUE(opened.ok()) << opened.error().ToString();
  const Session& session = opened.value();
  const ShardEntry& entry = session.manifest().shards.back();
  const fs::path shard = fs::path(dir) / entry.file;
  const std::string original = FileBytes(shard);

  // The last shard holds one block record: a 26-byte header (magic, day
  // count, block count, 2 coverage bytes, CRC), then the record's key and
  // day count, one day index and the day's 32-byte row.
  const std::size_t payload_byte = 26 + 8 + 2 + 5;
  ASSERT_LT(payload_byte, original.size() - 24);
  auto flipped = [&](std::size_t at) {
    std::string bytes = original;
    bytes[at] = static_cast<char>(bytes[at] ^ 0x10);
    return bytes;
  };
  for (const std::string& changed :
       {flipped(payload_byte), flipped(original.size() - 1)}) {
    std::ofstream{shard, std::ios::binary | std::ios::trunc} << changed;
    auto loaded = session.Load();
    ASSERT_FALSE(loaded.ok()) << "Load accepted a shard changed after Open";
    EXPECT_EQ(loaded.error().kind, io::StoreErrorKind::kChecksumMismatch);
    EXPECT_EQ(loaded.error().message,
              "shard " + entry.file + " does not match its manifest checksum");
  }
  std::ofstream{shard, std::ios::binary | std::ios::trunc} << original;
  auto loaded = session.Load();
  ASSERT_TRUE(loaded.ok()) << loaded.error().ToString();
  fs::remove_all(dir);
}

}  // namespace
}  // namespace ipscope::ingest
