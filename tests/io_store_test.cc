#include "io/store_io.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <sstream>

#include "cdn/observatory.h"
#include "io/crc32c.h"
#include "rng/rng.h"
#include "sim/world.h"

namespace ipscope::io {
namespace {

activity::ActivityStore RandomStore(std::uint64_t seed, int days,
                                    int blocks) {
  activity::ActivityStore store{days};
  rng::Xoshiro256 g{seed};
  for (int b = 0; b < blocks; ++b) {
    net::BlockKey key = g.NextBounded(1u << 24);
    activity::ActivityMatrix& m = store.GetOrCreate(key);
    for (int d = 0; d < days; ++d) {
      if (g.NextBool(0.5)) continue;  // leave many empty days
      for (int h = 0; h < 256; h += 1 + static_cast<int>(g.NextBounded(16))) {
        m.Set(d, h);
      }
    }
  }
  return store;
}

bool StoresEqual(const activity::ActivityStore& a,
                 const activity::ActivityStore& b) {
  if (a.days() != b.days() || a.BlockCount() != b.BlockCount()) return false;
  bool equal = true;
  a.ForEach([&](net::BlockKey key, const activity::ActivityMatrix& m) {
    const activity::ActivityMatrix* other = b.Find(key);
    if (other == nullptr) {
      equal = false;
      return;
    }
    for (int d = 0; d < a.days(); ++d) {
      if (m.Row(d) != other->Row(d)) equal = false;
    }
  });
  return equal;
}

TEST(StoreIo, RoundTripRandomStore) {
  auto store = RandomStore(42, 30, 50);
  std::stringstream buffer;
  SaveStore(store, buffer);
  auto loaded = LoadStore(buffer);
  EXPECT_TRUE(StoresEqual(store, loaded));
}

TEST(StoreIo, RoundTripEmptyStore) {
  activity::ActivityStore store{7};
  std::stringstream buffer;
  SaveStore(store, buffer);
  auto loaded = LoadStore(buffer);
  EXPECT_EQ(loaded.days(), 7);
  EXPECT_EQ(loaded.BlockCount(), 0u);
}

TEST(StoreIo, RoundTripObservatoryDataset) {
  sim::WorldConfig config;
  config.target_client_blocks = 200;
  sim::World world{config};
  auto store = cdn::Observatory::Daily(world).BuildStore();
  std::stringstream buffer;
  SaveStore(store, buffer);
  auto loaded = LoadStore(buffer);
  EXPECT_TRUE(StoresEqual(store, loaded));
  EXPECT_EQ(store.CountActive(0, store.days()),
            loaded.CountActive(0, loaded.days()));
}

TEST(StoreIo, RejectsBadMagic) {
  std::stringstream buffer{"NOTASTORExxxxxxxxxxxxxxxx"};
  EXPECT_THROW(LoadStore(buffer), std::runtime_error);
}

TEST(StoreIo, RejectsTruncation) {
  auto store = RandomStore(7, 20, 10);
  std::stringstream buffer;
  SaveStore(store, buffer);
  std::string bytes = buffer.str();
  for (std::size_t cut : {bytes.size() - 1, bytes.size() / 2, std::size_t{9}}) {
    std::stringstream truncated{bytes.substr(0, cut)};
    EXPECT_THROW(LoadStore(truncated), std::runtime_error) << cut;
  }
}

TEST(StoreIo, RejectsCorruptedDayIndex) {
  activity::ActivityStore store{5};
  store.GetOrCreate(100).Set(2, 7);
  std::stringstream buffer;
  SaveStore(store, buffer);
  std::string bytes = buffer.str();
  // Layout: magic(8) + days(4) + count(8) + coverage(1) + header crc(4)
  // = 25; the block record (key 4, nonzero 4, day u16 + 4 words = 42
  // bytes) follows with its crc at 67, then the footer (71..83) and the
  // stream crc. Corrupt the day index (offset 33) beyond the day range and
  // re-seal both checksums, so only the semantic validation can catch it.
  bytes[33] = 99;
  auto seal = [&bytes](std::size_t at, std::size_t from) {
    std::uint32_t crc = Crc32c(bytes.data() + from, at - from);
    for (int i = 0; i < 4; ++i) {
      bytes[at + static_cast<std::size_t>(i)] =
          static_cast<char>((crc >> (8 * i)) & 0xFF);
    }
  };
  ASSERT_EQ(bytes.size(), 87u);
  seal(67, 25);
  seal(83, 0);
  std::stringstream corrupted{bytes};
  auto result = TryLoadStore(corrupted);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().kind, StoreErrorKind::kMalformed);
  EXPECT_EQ(result.error().offset, 33u);
}

TEST(StoreIo, FileRoundTrip) {
  auto store = RandomStore(11, 14, 20);
  std::string path = ::testing::TempDir() + "/ipscope_store_test." +
                     std::to_string(getpid()) + ".bin";
  SaveStoreFile(store, path);
  auto loaded = LoadStoreFile(path);
  EXPECT_TRUE(StoresEqual(store, loaded));
}

TEST(StoreIo, MissingFileThrows) {
  EXPECT_THROW(LoadStoreFile("/nonexistent/path/store.bin"),
               std::runtime_error);
}

TEST(StoreIo, CompressionSkipsEmptyDays) {
  // A store with one active day out of 1000 must serialize far smaller
  // than the dense equivalent (~32KB); the coverage bitmap (one bit per
  // day), the per-block checksum and the footer are the fixed overhead.
  activity::ActivityStore store{1000};
  store.GetOrCreate(5).Set(500, 1);
  std::stringstream buffer;
  SaveStore(store, buffer);
  EXPECT_LT(buffer.str().size(), 250u);
}

}  // namespace
}  // namespace ipscope::io
