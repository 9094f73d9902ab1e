// Corruption property sweeps for the IPSCOPE2 store format.
//
// The acceptance bar for the checksummed format: a round-tripped store,
// re-loaded after *any* single-byte corruption or *any* truncation, must
// yield a typed StoreError (strict mode) or an intact salvaged prefix
// (salvage mode) — never a crash, never silently wrong data.
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "io/store_io.h"
#include "rng/rng.h"

namespace ipscope::io {
namespace {

// Small but structurally complete store: several blocks, mixed empty and
// non-empty days, so every format region (header, multiple block records,
// footer) is present while full byte sweeps stay cheap.
activity::ActivityStore SweepStore() {
  activity::ActivityStore store{10};
  rng::Xoshiro256 g{2024};
  for (std::uint32_t key : {7u, 300u, 5000u, 70000u, 900000u, 16000000u}) {
    activity::ActivityMatrix& m = store.GetOrCreate(key);
    for (int d = 0; d < 10; ++d) {
      if (g.NextBool(0.4)) continue;
      for (int h = 0; h < 256; h += 1 + static_cast<int>(g.NextBounded(24))) {
        m.Set(d, h);
      }
    }
  }
  return store;
}

std::string SerializeV2(const activity::ActivityStore& store) {
  std::stringstream buffer;
  SaveStore(store, buffer);
  return buffer.str();
}

bool RowsEqual(const activity::ActivityMatrix& a,
               const activity::ActivityMatrix& b, int days) {
  for (int d = 0; d < days; ++d) {
    if (a.Row(d) != b.Row(d)) return false;
  }
  return true;
}

// Byte layout of the serialized store, mirroring the format spec in
// io/store_io.h — re-derived here so the loader is checked against an
// independent computation, not against itself.
struct Layout {
  std::uint64_t header_end = 0;
  std::vector<std::uint64_t> block_ends;  // absolute end offset per block
};

Layout LayoutOf(const activity::ActivityStore& store) {
  Layout layout;
  layout.header_end =
      8 + 4 + 8 + (static_cast<std::uint64_t>(store.days()) + 7) / 8 + 4;
  std::uint64_t pos = layout.header_end;
  store.ForEach([&](net::BlockKey, const activity::ActivityMatrix& m) {
    std::uint64_t nonzero = 0;
    for (int d = 0; d < m.days(); ++d) {
      const activity::DayBits& row = m.Row(d);
      if ((row[0] | row[1] | row[2] | row[3]) != 0) ++nonzero;
    }
    pos += 4 + 4 + nonzero * 34 + 4;
    layout.block_ends.push_back(pos);
  });
  return layout;
}

// How many leading blocks survive when every byte at offset >= `damage`
// is untrustworthy (salvage stops at the first damaged record).
std::uint64_t IntactPrefixBlocks(const Layout& layout, std::uint64_t damage) {
  std::uint64_t n = 0;
  for (std::uint64_t end : layout.block_ends) {
    if (end > damage) break;
    ++n;
  }
  return n;
}

// The salvaged store must be a bit-identical prefix of the original.
void ExpectIntactPrefix(const activity::ActivityStore& original,
                        const activity::ActivityStore& salvaged,
                        std::uint64_t expected_blocks) {
  ASSERT_EQ(salvaged.BlockCount(), expected_blocks);
  for (std::size_t i = 0; i < salvaged.BlockCount(); ++i) {
    net::BlockKey key = salvaged.keys()[i];
    ASSERT_EQ(key, original.keys()[i]);
    EXPECT_TRUE(RowsEqual(*salvaged.Find(key), *original.Find(key),
                          original.days()))
        << "block " << key << " not bit-identical";
  }
}

TEST(IoFault, RoundTripV2PreservesCoverage) {
  auto store = SweepStore();
  store.SetDayCovered(2, false);
  store.SetDayCovered(7, false);
  std::stringstream buffer{SerializeV2(store)};
  auto result = TryLoadStore(buffer);
  ASSERT_TRUE(result.ok()) << result.error().ToString();
  const auto& loaded = result.value();
  EXPECT_TRUE(loaded.stats.complete);
  EXPECT_EQ(loaded.stats.blocks_loaded, store.BlockCount());
  EXPECT_FALSE(loaded.store.DayCovered(2));
  EXPECT_FALSE(loaded.store.DayCovered(7));
  EXPECT_EQ(loaded.store.MissingDays(), 2);
  ExpectIntactPrefix(store, loaded.store, store.BlockCount());
}

TEST(IoFault, TruncationSweepStrictAlwaysTypedError) {
  auto store = SweepStore();
  const std::string bytes = SerializeV2(store);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::stringstream truncated{bytes.substr(0, cut)};
    auto result = TryLoadStore(truncated);
    ASSERT_FALSE(result.ok()) << "cut at " << cut << " loaded cleanly";
    EXPECT_LE(result.error().offset, cut) << "cut at " << cut;
  }
}

TEST(IoFault, TruncationSweepSalvageRecoversIntactPrefix) {
  auto store = SweepStore();
  const std::string bytes = SerializeV2(store);
  const Layout layout = LayoutOf(store);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::stringstream truncated{bytes.substr(0, cut)};
    auto result = TryLoadStore(truncated, LoadOptions{.salvage = true});
    if (cut < layout.header_end) {
      // Without a verified header nothing can be decoded — salvage must
      // refuse rather than fabricate a store from unvalidated dimensions.
      EXPECT_FALSE(result.ok()) << "cut at " << cut;
      continue;
    }
    ASSERT_TRUE(result.ok())
        << "cut at " << cut << ": " << result.error().ToString();
    const auto& loaded = result.value();
    EXPECT_FALSE(loaded.stats.complete) << "cut at " << cut;
    ASSERT_TRUE(loaded.stats.error.has_value()) << "cut at " << cut;
    ExpectIntactPrefix(store, loaded.store,
                       IntactPrefixBlocks(layout, cut));
  }
}

TEST(IoFault, FlipSweepDetectsEverySingleByteCorruption) {
  auto store = SweepStore();
  const std::string bytes = SerializeV2(store);
  // 0xFF inverts the whole byte; 0x01/0x80 are the lowest- and highest-bit
  // single-bit flips. A flipped magic is an unknown format, never another
  // readable one.
  for (char mask : {'\x01', '\x80', '\xFF'}) {
    for (std::size_t off = 0; off < bytes.size(); ++off) {
      std::string flipped = bytes;
      flipped[off] ^= mask;
      std::stringstream is{flipped};
      auto result = TryLoadStore(is);
      EXPECT_FALSE(result.ok())
          << "flip mask " << static_cast<int>(mask) << " at byte " << off
          << " went undetected";
    }
  }
}

TEST(IoFault, FlipSweepSalvageNeverCrashesAndKeepsIntactBlocksOnly) {
  auto store = SweepStore();
  const std::string bytes = SerializeV2(store);
  const Layout layout = LayoutOf(store);
  for (std::size_t off = 0; off < bytes.size(); ++off) {
    std::string flipped = bytes;
    flipped[off] ^= '\xFF';
    std::stringstream is{flipped};
    auto result = TryLoadStore(is, LoadOptions{.salvage = true});
    if (off < layout.header_end) {
      EXPECT_FALSE(result.ok()) << "header flip at " << off;
      continue;
    }
    ASSERT_TRUE(result.ok())
        << "flip at " << off << ": " << result.error().ToString();
    const auto& loaded = result.value();
    EXPECT_FALSE(loaded.stats.complete) << "flip at " << off;
    ExpectIntactPrefix(store, loaded.store, IntactPrefixBlocks(layout, off));
  }
}

TEST(IoFault, RetiredV1StreamIsBadMagic) {
  // The unchecksummed v1 layout is no longer read: a well-formed v1 stream
  // (one block, key 100, day 2, host 7) is an unknown format.
  std::string v1 = {'I', 'P', 'S', 'C', 'O', 'P', 'E', '1'};
  auto put = [&](std::uint64_t v, int n) {
    for (int i = 0; i < n; ++i) {
      v1.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
  };
  put(5, 4);        // days
  put(1, 8);        // block count
  put(100, 4);      // key
  put(1, 4);        // non-empty days
  put(2, 2);        // day index
  put(1u << 7, 8);  // bitmap word 0: host 7
  put(0, 8);
  put(0, 8);
  put(0, 8);
  std::stringstream is{v1};
  auto result = TryLoadStore(is);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().kind, StoreErrorKind::kBadMagic);
  EXPECT_EQ(result.error().offset, 0u);
}

TEST(IoFault, TypedErrorKindsAndOffsets) {
  std::stringstream bad_magic{"NOTASTORExxxxxxxxxxxxxxxxxxxxxxx"};
  auto r1 = TryLoadStore(bad_magic);
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.error().kind, StoreErrorKind::kBadMagic);
  EXPECT_EQ(r1.error().offset, 0u);

  auto store = SweepStore();
  const std::string bytes = SerializeV2(store);
  const Layout layout = LayoutOf(store);
  // Cut inside the second block: the error position must sit past the
  // first block's record, i.e. the offset pinpoints where data ran out.
  std::size_t cut = static_cast<std::size_t>(layout.block_ends[0]) + 5;
  std::stringstream truncated{bytes.substr(0, cut)};
  auto r2 = TryLoadStore(truncated);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.error().kind, StoreErrorKind::kTruncated);
  EXPECT_GE(r2.error().offset, layout.block_ends[0]);
  EXPECT_LE(r2.error().offset, cut);
  // The rendered message carries both kind and offset for operators.
  EXPECT_NE(r2.error().ToString().find("truncated"), std::string::npos);
  EXPECT_NE(r2.error().ToString().find("byte"), std::string::npos);
}

TEST(IoFault, OpenFailureCarriesErrnoDetail) {
  auto result = TryLoadStoreFile("/nonexistent/dir/store.bin");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().kind, StoreErrorKind::kOpenFailed);
  EXPECT_NE(result.error().message.find("No such file"), std::string::npos)
      << result.error().message;
}

}  // namespace
}  // namespace ipscope::io
