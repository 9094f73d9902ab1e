#include "activity/matrix.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "rng/rng.h"

namespace ipscope::activity {
namespace {

constexpr std::uint64_t kOnes = ~std::uint64_t{0};

// PopCount stays usable in constant expressions on both of its paths.
static_assert(PopCount(DayBits{}) == 0);
static_assert(PopCount(DayBits{kOnes, kOnes, kOnes, kOnes}) == 256);
static_assert(PopCount(DayBits{1, 0, 0, std::uint64_t{1} << 63}) == 2);
static_assert(PopCount(DayBits{0x5555555555555555, 0, kOnes, 0}) == 96);

// The per-bit definition PopCount must agree with.
int PopCountPerBit(const DayBits& bits) {
  int n = 0;
  for (int host = 0; host < 256; ++host) n += TestBit(bits, host) ? 1 : 0;
  return n;
}

TEST(ActivityPopCount, ZeroAndAllOnes) {
  EXPECT_EQ(PopCount(DayBits{}), 0);
  EXPECT_EQ(PopCount(DayBits{kOnes, kOnes, kOnes, kOnes}), 256);
  for (std::size_t w = 0; w < 4; ++w) {
    DayBits one_word{};
    one_word[w] = kOnes;
    EXPECT_EQ(PopCount(one_word), 64) << "word " << w;
  }
}

TEST(ActivityPopCount, OneSetBitPerWord) {
  for (int bit = 0; bit < 64; ++bit) {
    DayBits each{};
    for (std::size_t w = 0; w < 4; ++w) {
      DayBits single{};
      single[w] = std::uint64_t{1} << bit;
      EXPECT_EQ(PopCount(single), 1) << "word " << w << " bit " << bit;
      each[w] = std::uint64_t{1} << bit;
    }
    EXPECT_EQ(PopCount(each), 4) << "bit " << bit;
  }
  // The top host: bit 63 of word 3.
  DayBits top{};
  SetBit(top, 255);
  EXPECT_EQ(top[3], std::uint64_t{1} << 63);
  EXPECT_EQ(PopCount(top), 1);
}

TEST(ActivityPopCount, AlternatingPatterns) {
  for (std::uint64_t pattern :
       {0x5555555555555555ull, 0xAAAAAAAAAAAAAAAAull, 0x3333333333333333ull,
        0x0F0F0F0F0F0F0F0Full, 0x00FF00FF00FF00FFull,
        0xFFFFFFFF00000000ull}) {
    EXPECT_EQ(PopCount(DayBits{pattern, pattern, pattern, pattern}), 128)
        << std::hex << pattern;
    EXPECT_EQ(PopCount(DayBits{pattern, ~pattern, pattern, ~pattern}), 128)
        << std::hex << pattern;
    EXPECT_EQ(PopCount(DayBits{pattern, kOnes, 0, pattern}), 128)
        << std::hex << pattern;
  }
}

TEST(ActivityPopCount, RandomRowsMatchPerBitLoop) {
  rng::Xoshiro256 gen{20161114};
  for (int i = 0; i < 10000; ++i) {
    DayBits row{};
    for (std::uint64_t& word : row) {
      // Vary the density: ~1/2, ~1/4, ~1/8 and ~3/4 of the bits set.
      switch (i % 4) {
        case 0: word = gen(); break;
        case 1: word = gen() & gen(); break;
        case 2: word = gen() & gen() & gen(); break;
        case 3: word = gen() | gen(); break;
      }
    }
    ASSERT_EQ(PopCount(row), PopCountPerBit(row)) << "row " << i;
  }
}

TEST(DayBits, SetTestPopCount) {
  DayBits bits{};
  EXPECT_EQ(PopCount(bits), 0);
  SetBit(bits, 0);
  SetBit(bits, 63);
  SetBit(bits, 64);
  SetBit(bits, 255);
  EXPECT_TRUE(TestBit(bits, 0));
  EXPECT_TRUE(TestBit(bits, 63));
  EXPECT_TRUE(TestBit(bits, 64));
  EXPECT_TRUE(TestBit(bits, 255));
  EXPECT_FALSE(TestBit(bits, 1));
  EXPECT_FALSE(TestBit(bits, 128));
  EXPECT_EQ(PopCount(bits), 4);
}

TEST(DayBits, OrAndNot) {
  DayBits a{}, b{};
  SetBit(a, 3);
  SetBit(a, 200);
  SetBit(b, 200);
  SetBit(b, 100);
  DayBits o = OrBits(a, b);
  EXPECT_EQ(PopCount(o), 3);
  DayBits d = AndNotBits(a, b);
  EXPECT_EQ(PopCount(d), 1);
  EXPECT_TRUE(TestBit(d, 3));
  EXPECT_FALSE(TestBit(d, 200));
}

TEST(ActivityMatrix, EmptyMatrix) {
  ActivityMatrix m{10};
  EXPECT_EQ(m.days(), 10);
  EXPECT_TRUE(m.Empty());
  EXPECT_EQ(m.FillingDegree(), 0);
  EXPECT_EQ(m.Stu(), 0.0);
  EXPECT_EQ(m.ActiveOnDay(5), 0);
}

TEST(ActivityMatrix, SetGet) {
  ActivityMatrix m{7};
  m.Set(3, 200);
  EXPECT_TRUE(m.Get(3, 200));
  EXPECT_FALSE(m.Get(2, 200));
  EXPECT_FALSE(m.Get(3, 201));
  EXPECT_FALSE(m.Empty());
}

TEST(ActivityMatrix, FillingDegreeCountsDistinctAddresses) {
  ActivityMatrix m{5};
  // Same host active on many days counts once.
  for (int d = 0; d < 5; ++d) m.Set(d, 42);
  EXPECT_EQ(m.FillingDegree(), 1);
  m.Set(0, 7);
  EXPECT_EQ(m.FillingDegree(), 2);
  // Window restriction.
  EXPECT_EQ(m.FillingDegree(1, 5), 1);
}

TEST(ActivityMatrix, StuBounds) {
  ActivityMatrix m{4};
  // One address one day out of 256*4 slots.
  m.Set(0, 0);
  EXPECT_DOUBLE_EQ(m.Stu(), 1.0 / (256.0 * 4.0));
  // Full utilization.
  ActivityMatrix full{2};
  for (int d = 0; d < 2; ++d) {
    for (int h = 0; h < 256; ++h) full.Set(d, h);
  }
  EXPECT_DOUBLE_EQ(full.Stu(), 1.0);
  EXPECT_EQ(full.SpatioTemporalActivity(0, 2), 512);
}

TEST(ActivityMatrix, StuWindowed) {
  ActivityMatrix m{4};
  for (int h = 0; h < 256; ++h) m.Set(0, h);
  EXPECT_DOUBLE_EQ(m.Stu(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(m.Stu(1, 4), 0.0);
  EXPECT_DOUBLE_EQ(m.Stu(0, 4), 0.25);
  EXPECT_EQ(m.Stu(2, 2), 0.0);  // empty window
}

TEST(ActivityMatrix, HostActiveDays) {
  ActivityMatrix m{10};
  m.Set(1, 5);
  m.Set(3, 5);
  m.Set(9, 5);
  EXPECT_EQ(m.HostActiveDays(5), 3);
  EXPECT_EQ(m.HostActiveDays(6), 0);
}

TEST(ActivityMatrix, HostActiveDayCountsMatchPerHostWalk) {
  // Lengths on both sides of the 255-day spill of the bit-sliced counters,
  // densities from sparse to full.
  rng::Xoshiro256 gen{7};
  for (int days : {1, 112, 254, 255, 256, 600}) {
    for (int density = 0; density < 4; ++density) {
      ActivityMatrix m{days};
      for (int d = 0; d < days; ++d) {
        for (std::uint64_t& word : m.Row(d)) {
          if (density == 3) {
            word = kOnes;
            continue;
          }
          word = gen();
          for (int k = 0; k < density; ++k) word &= gen();
        }
      }
      const std::array<std::uint16_t, 256> counts = m.HostActiveDayCounts();
      for (int host = 0; host < 256; ++host) {
        ASSERT_EQ(counts[static_cast<std::size_t>(host)],
                  m.HostActiveDays(host))
            << days << " days, density " << density << ", host " << host;
      }
    }
  }
}

TEST(ActivityMatrix, UnionOver) {
  ActivityMatrix m{3};
  m.Set(0, 1);
  m.Set(1, 2);
  m.Set(2, 3);
  DayBits u = m.UnionOver(0, 2);
  EXPECT_EQ(PopCount(u), 2);
  EXPECT_TRUE(TestBit(u, 1));
  EXPECT_TRUE(TestBit(u, 2));
  EXPECT_FALSE(TestBit(u, 3));
}

TEST(ActivityMatrix, PaperMaximumActivity) {
  // The paper: 112 x 256 = 28672 is the max spatio-temporal activity.
  ActivityMatrix m{112};
  for (int d = 0; d < 112; ++d) {
    for (int h = 0; h < 256; ++h) m.Set(d, h);
  }
  EXPECT_EQ(m.SpatioTemporalActivity(0, 112), 28672);
  EXPECT_DOUBLE_EQ(m.Stu(), 1.0);
}

}  // namespace
}  // namespace ipscope::activity
