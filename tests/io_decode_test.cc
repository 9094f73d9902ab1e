// Hardening tests for the IPSCOPE2 decoder beyond what checksums catch.
//
// The corruption sweeps in io_fault_test.cc flip bytes and let the CRCs
// find them. Here every mutation re-seals the block and stream CRCs, so
// only the decoder's structural checks (key range and order, day range,
// order and coverage, footer echo) stand between a forged stream and a
// silently wrong store. The decoder reads from an istream (TryLoadStore)
// or from bytes in memory (TryMergeStore); every truncation, byte flip
// and sealed mutation here must get the same verdict from both. Run
// under the ASan+UBSan pass these also prove the hand-written parser
// never reads or allocates out of bounds.
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "io/crc32c.h"
#include "io/store_io.h"
#include "rng/rng.h"

namespace ipscope::io {
namespace {

void PutLE(std::string& bytes, std::size_t at, std::uint64_t value,
           int width) {
  for (int i = 0; i < width; ++i) {
    bytes[at + static_cast<std::size_t>(i)] =
        static_cast<char>((value >> (8 * i)) & 0xFF);
  }
}

std::uint64_t GetLE(const std::string& bytes, std::size_t at, int width) {
  std::uint64_t value = 0;
  for (int i = 0; i < width; ++i) {
    value |= static_cast<std::uint64_t>(static_cast<unsigned char>(
                 bytes[at + static_cast<std::size_t>(i)]))
             << (8 * i);
  }
  return value;
}

std::string Image(const activity::ActivityStore& store) {
  std::ostringstream os;
  SaveStore(store, os);
  return std::move(os).str();
}

TEST(IoDecode, ForgedHugeHeaderFailsTypedWithoutAllocating) {
  // A header claiming 4096 days and 2^24 blocks with a valid header CRC,
  // then nothing: sizing anything from those counts would ask for
  // 2^24 x 4096 x 32 B = 2 TiB. The decoder must fail at the first
  // missing block byte instead.
  std::string bytes = "IPSCOPE2";
  bytes.resize(8 + 4 + 8 + 4096 / 8 + 4, '\0');
  PutLE(bytes, 8, 4096, 4);
  PutLE(bytes, 12, std::uint64_t{1} << 24, 8);
  for (std::size_t i = 20; i < 20 + 4096 / 8; ++i) bytes[i] = '\xFF';
  const std::size_t crc_at = 20 + 4096 / 8;
  PutLE(bytes, crc_at, Crc32c(bytes.data(), crc_at), 4);

  for (bool salvage : {false, true}) {
    std::stringstream is{bytes};
    auto result = TryLoadStore(is, LoadOptions{.salvage = salvage});
    if (salvage) {
      // The header verified, so salvage returns the (empty) prefix.
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(result.value().store.BlockCount(), 0u);
      EXPECT_EQ(result.value().stats.blocks_expected, std::uint64_t{1} << 24);
      ASSERT_TRUE(result.value().stats.error.has_value());
      EXPECT_EQ(result.value().stats.error->kind, StoreErrorKind::kTruncated);
      continue;
    }
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().kind, StoreErrorKind::kTruncated);
    EXPECT_EQ(result.error().offset, bytes.size());
  }

  activity::ActivityStore target{4096};
  auto merged = TryMergeStore(bytes, target);
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.error().kind, StoreErrorKind::kTruncated);
  EXPECT_EQ(merged.error().offset, bytes.size());
}

TEST(IoDecode, MergeRejectsADifferentDayCount) {
  activity::ActivityStore shard{6};
  shard.GetOrCreate(3).Set(1, 1);
  const std::string bytes = Image(shard);
  activity::ActivityStore target{7};
  auto merged = TryMergeStore(bytes, target);
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.error().kind, StoreErrorKind::kMalformed);
  EXPECT_EQ(merged.error().offset, 8u);
  EXPECT_EQ(target.BlockCount(), 0u);
}

// Where the mutable fields of a serialized store sit.
struct Fields {
  std::vector<std::size_t> block_starts;  // key at +0, count at +4
  std::vector<std::size_t> block_ends;    // one past the block CRC
  std::vector<std::size_t> day_indices;   // u16 day index offsets
  std::size_t footer = 0;                 // "END2" + u64 echo
};

Fields FieldsOf(const activity::ActivityStore& store) {
  Fields f;
  std::size_t pos =
      8 + 4 + 8 + (static_cast<std::size_t>(store.days()) + 7) / 8 + 4;
  store.ForEach([&](net::BlockKey, const activity::ActivityMatrix& m) {
    f.block_starts.push_back(pos);
    pos += 8;
    for (int d = 0; d < m.days(); ++d) {
      const activity::DayBits& row = m.Row(d);
      if ((row[0] | row[1] | row[2] | row[3]) == 0) continue;
      f.day_indices.push_back(pos);
      pos += 34;
    }
    pos += 4;
    f.block_ends.push_back(pos);
  });
  f.footer = pos;
  return f;
}

// Re-seals every block CRC and the stream CRC at their unmutated
// positions, so only structural checks remain.
void Reseal(std::string& bytes, const Fields& f) {
  for (std::size_t b = 0; b < f.block_starts.size(); ++b) {
    const std::size_t crc_at = f.block_ends[b] - 4;
    PutLE(bytes, crc_at,
          Crc32c(bytes.data() + f.block_starts[b], crc_at - f.block_starts[b]),
          4);
  }
  const std::size_t stream_at = f.footer + 12;
  PutLE(bytes, stream_at, Crc32c(bytes.data(), stream_at), 4);
}

// 12 days, two of them uncovered, and eight blocks across the keyspace:
// one with no non-empty day, the rest with a random half of the covered
// days set.
activity::ActivityStore MixedStore() {
  activity::ActivityStore store{12};
  rng::Xoshiro256 g{77};
  for (std::uint32_t key : {5u, 6u, 900u, 4096u, 70000u, 1u << 20,
                            (1u << 24) - 1}) {
    activity::ActivityMatrix& m = store.GetOrCreate(key);
    for (int d = 0; d < 12; ++d) {
      if (g.NextBool(0.5)) continue;
      m.Set(d, static_cast<int>(g.NextBounded(256)));
    }
  }
  store.GetOrCreate(3000);  // a record with no non-empty day
  store.SetDayCovered(4, false);
  store.SetDayCovered(9, false);
  return store;
}

// The span source (TryMergeStore into an empty store) and the stream
// source (strict TryLoadStore) decode `bytes` alike: the same error kind,
// offset and message, or the same store.
void ExpectSameDecode(const std::string& bytes, int days,
                      const std::string& what) {
  std::stringstream is{bytes};
  auto loaded = TryLoadStore(is);
  activity::ActivityStore target{days};
  for (int d = 0; d < days; ++d) target.SetDayCovered(d, false);
  auto merged = TryMergeStore(bytes, target);
  ASSERT_EQ(merged.ok(), loaded.ok()) << what;
  if (!loaded.ok()) {
    EXPECT_EQ(merged.error().kind, loaded.error().kind) << what;
    EXPECT_EQ(merged.error().offset, loaded.error().offset) << what;
    EXPECT_EQ(merged.error().message, loaded.error().message) << what;
    return;
  }
  EXPECT_EQ(merged.value().blocks_loaded, loaded.value().stats.blocks_loaded)
      << what;
  EXPECT_EQ(Image(target), Image(loaded.value().store)) << what;
}

TEST(IoDecode, SpanAndStreamSourcesAgreeOnEveryTruncationAndFlip) {
  const activity::ActivityStore store = MixedStore();
  const std::string original = Image(store);
  ExpectSameDecode(original, store.days(), "intact");
  for (std::size_t len = 0; len < original.size(); ++len) {
    ExpectSameDecode(original.substr(0, len), store.days(),
                     "truncated to " + std::to_string(len));
  }
  for (std::size_t at = 0; at < original.size(); ++at) {
    for (unsigned char mask : {0x01, 0x80, 0xFF}) {
      std::string bytes = original;
      bytes[at] = static_cast<char>(bytes[at] ^ static_cast<char>(mask));
      ExpectSameDecode(bytes, store.days(),
                       "byte " + std::to_string(at) + " ^ " +
                           std::to_string(mask));
    }
  }
}

TEST(IoDecode, CrcSealedStructuralMutationsAreRejectedOrFaithful) {
  const activity::ActivityStore store = MixedStore();
  const std::string original = Image(store);
  const Fields fields = FieldsOf(store);
  ASSERT_EQ(fields.footer + 16, original.size());
  {
    // Re-sealing an unmutated image is the identity.
    std::string resealed = original;
    Reseal(resealed, fields);
    ASSERT_EQ(resealed, original);
  }

  rng::Xoshiro256 r{2026};
  auto pick = [&r](std::size_t n) {
    return static_cast<std::size_t>(
        r.NextBounded(static_cast<std::uint32_t>(n)));
  };
  // A new value for a field: just above or below, small, or anything.
  auto mutate = [&](std::uint64_t old, int width) -> std::uint64_t {
    const std::uint64_t mask =
        width == 8 ? ~std::uint64_t{0} : (std::uint64_t{1} << (8 * width)) - 1;
    switch (r.NextBounded(4)) {
      case 0:
        return (old + 1 + r.NextBounded(3)) & mask;
      case 1:
        return (old - 1 - r.NextBounded(3)) & mask;
      case 2:
        return r.NextBounded(16);
      default:
        return r() & mask;
    }
  };

  int rejected = 0;
  int accepted = 0;
  for (int i = 0; i < 2000; ++i) {
    std::string bytes = original;
    std::size_t at = 0;
    int width = 0;
    switch (i % 4) {
      case 0:  // a block key
        at = fields.block_starts[pick(fields.block_starts.size())];
        width = 4;
        break;
      case 1:  // a non-empty-day count
        at = fields.block_starts[pick(fields.block_starts.size())] + 4;
        width = 4;
        break;
      case 2:  // a day index
        at = fields.day_indices[pick(fields.day_indices.size())];
        width = 2;
        break;
      default:  // the footer's block-count echo
        at = fields.footer + 4;
        width = 8;
        break;
    }
    PutLE(bytes, at, mutate(GetLE(bytes, at, width), width), width);
    Reseal(bytes, fields);
    if (bytes == original) continue;

    ExpectSameDecode(bytes, store.days(), "case " + std::to_string(i));
    std::stringstream is{bytes};
    auto result = TryLoadStore(is);
    if (!result.ok()) {
      ++rejected;
      EXPECT_LE(result.error().offset, bytes.size()) << "case " << i;
      continue;
    }
    ++accepted;
    // An accepted stream must decode to a well-formed store (keys strictly
    // ascending inside the /24 keyspace, each findable) that writes the
    // same bytes back.
    const activity::ActivityStore& loaded = result.value().store;
    for (std::size_t k = 0; k < loaded.BlockCount(); ++k) {
      EXPECT_LT(loaded.KeyAt(k), 1u << 24) << "case " << i;
      if (k > 0) {
        EXPECT_LT(loaded.KeyAt(k - 1), loaded.KeyAt(k)) << "case " << i;
      }
      EXPECT_EQ(loaded.Find(loaded.KeyAt(k)), &loaded.MatrixAt(k))
          << "case " << i;
    }
    EXPECT_EQ(Image(loaded), bytes)
        << "case " << i << ": accepted a stream it does not reproduce";
  }
  // Both outcomes occur: the loop exercises the checks and the
  // still-valid rewrites (e.g. a key moved within its neighbours' gap).
  EXPECT_GT(rejected, 1000);
  EXPECT_GT(accepted, 20);
}

}  // namespace
}  // namespace ipscope::io
