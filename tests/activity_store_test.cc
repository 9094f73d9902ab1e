#include "activity/store.h"

#include <gtest/gtest.h>

#include <vector>

namespace ipscope::activity {
namespace {

TEST(ActivityStore, GetOrCreateKeepsSortedOrder) {
  ActivityStore store{5};
  store.GetOrCreate(300);
  store.GetOrCreate(100);
  store.GetOrCreate(200);
  store.GetOrCreate(100);  // existing
  EXPECT_EQ(store.BlockCount(), 3u);
  std::vector<net::BlockKey> keys;
  store.ForEach([&](net::BlockKey k, const ActivityMatrix&) {
    keys.push_back(k);
  });
  EXPECT_EQ(keys, (std::vector<net::BlockKey>{100, 200, 300}));
}

TEST(ActivityStore, GetOrCreateFromSweepsLikeGetOrCreate) {
  // Two ascending sweeps over an existing store: hits, misses before,
  // between and after the stored keys, each returning the same matrix a
  // plain GetOrCreate would.
  ActivityStore swept{3};
  ActivityStore plain{3};
  for (ActivityStore* store : {&swept, &plain}) {
    store->GetOrCreate(10).Set(0, 1);
    store->GetOrCreate(20).Set(1, 2);
    store->GetOrCreate(30).Set(2, 3);
  }
  for (const std::vector<net::BlockKey>& sweep :
       {std::vector<net::BlockKey>{5, 10, 25, 30, 40},
        std::vector<net::BlockKey>{0, 20, 26, 41}}) {
    std::size_t cursor = 0;
    for (net::BlockKey key : sweep) {
      swept.GetOrCreateFrom(&cursor, key).Set(0, static_cast<int>(key));
      plain.GetOrCreate(key).Set(0, static_cast<int>(key));
    }
  }
  ASSERT_EQ(swept.BlockCount(), plain.BlockCount());
  for (std::size_t i = 0; i < plain.BlockCount(); ++i) {
    ASSERT_EQ(swept.KeyAt(i), plain.KeyAt(i));
    for (int d = 0; d < 3; ++d) {
      EXPECT_EQ(swept.MatrixAt(i).Row(d), plain.MatrixAt(i).Row(d));
    }
  }
  EXPECT_EQ(plain.BlockCount(), 9u);
}

TEST(ActivityStore, FindMissingReturnsNull) {
  ActivityStore store{5};
  store.GetOrCreate(100);
  EXPECT_NE(store.Find(100), nullptr);
  EXPECT_EQ(store.Find(101), nullptr);
}

TEST(ActivityStore, DailyActiveCounts) {
  ActivityStore store{3};
  ActivityMatrix& a = store.GetOrCreate(1);
  a.Set(0, 0);
  a.Set(0, 1);
  a.Set(2, 0);
  ActivityMatrix& b = store.GetOrCreate(2);
  b.Set(0, 5);
  auto counts = store.DailyActiveCounts();
  EXPECT_EQ(counts, (std::vector<std::int64_t>{3, 0, 1}));
}

TEST(ActivityStore, ActiveSetAndCounts) {
  ActivityStore store{2};
  ActivityMatrix& a = store.GetOrCreate(0x0A0000);  // 10.0.0.0/24
  a.Set(0, 1);
  a.Set(1, 7);
  ActivityMatrix& b = store.GetOrCreate(0x0A0001);
  b.Set(1, 255);

  net::Ipv4Set set = store.ActiveSet(0, 2);
  EXPECT_EQ(set.Count(), 3u);
  EXPECT_TRUE(set.Contains(net::IPv4Addr{10, 0, 0, 1}));
  EXPECT_TRUE(set.Contains(net::IPv4Addr{10, 0, 0, 7}));
  EXPECT_TRUE(set.Contains(net::IPv4Addr{10, 0, 1, 255}));

  EXPECT_EQ(store.CountActive(0, 2), 3u);
  EXPECT_EQ(store.CountActive(0, 1), 1u);
  EXPECT_EQ(store.CountActiveBlocks(0, 2), 2u);
  EXPECT_EQ(store.CountActiveBlocks(0, 1), 1u);
}

TEST(ActivityStore, ActiveSetWindowRestriction) {
  ActivityStore store{4};
  ActivityMatrix& m = store.GetOrCreate(5);
  m.Set(0, 10);
  m.Set(3, 20);
  EXPECT_EQ(store.ActiveSet(1, 3).Count(), 0u);
  EXPECT_EQ(store.ActiveSet(0, 4).Count(), 2u);
}

TEST(ActivityStore, CountMatchesSetCount) {
  // CountActive must agree with ActiveSet().Count() by construction.
  ActivityStore store{3};
  for (net::BlockKey k : {7u, 9u, 1000u}) {
    ActivityMatrix& m = store.GetOrCreate(k);
    for (int d = 0; d < 3; ++d) {
      for (int h = 0; h < 256; h += 3) m.Set(d, (h + static_cast<int>(k)) % 256);
    }
  }
  EXPECT_EQ(store.CountActive(0, 3), store.ActiveSet(0, 3).Count());
}

}  // namespace
}  // namespace ipscope::activity
