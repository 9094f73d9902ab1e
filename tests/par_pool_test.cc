#include "par/pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/registry.h"

namespace ipscope::par {
namespace {

TEST(ParChunkLayout, EmptyRangeHasNoChunks) {
  ChunkLayout layout = ChunkLayout::Of(5, 5, 1);
  EXPECT_EQ(layout.chunks, 0u);
}

TEST(ParChunkLayout, ChunksCoverRangeExactlyOnce) {
  for (std::size_t n : {1u, 2u, 7u, 100u, 1000u}) {
    for (std::size_t grain : {1u, 4u, 16u}) {
      ChunkLayout layout = ChunkLayout::Of(10, 10 + n, grain);
      ASSERT_GT(layout.chunks, 0u);
      EXPECT_EQ(layout.ChunkFirst(0), 10u);
      EXPECT_EQ(layout.ChunkLast(layout.chunks - 1), 10 + n);
      for (std::size_t c = 0; c + 1 < layout.chunks; ++c) {
        EXPECT_EQ(layout.ChunkLast(c), layout.ChunkFirst(c + 1));
        EXPECT_LT(layout.ChunkFirst(c), layout.ChunkLast(c));
      }
    }
  }
}

TEST(ParChunkLayout, RespectsGrainAndCap) {
  // grain floors the per-chunk size.
  ChunkLayout small = ChunkLayout::Of(0, 64, 16);
  EXPECT_LE(small.chunks, 4u);
  // The cap bounds scheduling overhead for huge ranges.
  ChunkLayout big = ChunkLayout::Of(0, 10'000'000, 1);
  EXPECT_LE(big.chunks, ChunkLayout::kMaxChunks);
}

TEST(ParChunkLayout, BalancedWithinOneElement) {
  ChunkLayout layout = ChunkLayout::Of(0, 103, 1);
  std::size_t min_size = 103, max_size = 0;
  for (std::size_t c = 0; c < layout.chunks; ++c) {
    std::size_t size = layout.ChunkLast(c) - layout.ChunkFirst(c);
    min_size = std::min(min_size, size);
    max_size = std::max(max_size, size);
  }
  EXPECT_LE(max_size - min_size, 1u);
}

TEST(ParPool, ParallelForVisitsEveryIndexOnce) {
  Pool pool{4};
  std::vector<std::atomic<int>> visits(1000);
  ParallelFor(pool, 0, visits.size(), [&](std::size_t first,
                                          std::size_t last) {
    for (std::size_t i = first; i < last; ++i) {
      visits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (std::size_t i = 0; i < visits.size(); ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ParPool, EmptyRangeRunsNothing) {
  Pool pool{4};
  std::atomic<int> calls{0};
  ParallelFor(pool, 7, 7, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParPool, SizeOneRunsInline) {
  Pool pool{1};
  std::thread::id caller = std::this_thread::get_id();
  ParallelFor(pool, 0, 100, [&](std::size_t first, std::size_t last) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    (void)first;
    (void)last;
  });
}

TEST(ParPool, NestedSubmissionRunsInlineWithoutDeadlock) {
  Pool pool{4};
  std::atomic<std::uint64_t> total{0};
  ParallelFor(pool, 0, 8, [&](std::size_t first, std::size_t last) {
    for (std::size_t i = first; i < last; ++i) {
      // A nested region from inside a chunk body must not deadlock on the
      // single-region pool; it runs inline on this thread.
      ParallelFor(pool, 0, 10, [&](std::size_t nf, std::size_t nl) {
        total.fetch_add(nl - nf, std::memory_order_relaxed);
      });
    }
  });
  EXPECT_EQ(total.load(), 8u * 10u);
}

TEST(ParPool, ExceptionPropagatesAndPoolSurvives) {
  Pool pool{4};
  auto boom = [&] {
    ParallelFor(pool, 0, 100, [&](std::size_t first, std::size_t) {
      if (first >= 40) throw std::runtime_error("chunk failed");
    });
  };
  EXPECT_THROW(boom(), std::runtime_error);
  // The pool must remain usable after a failed region.
  std::atomic<int> ok{0};
  ParallelFor(pool, 0, 50, [&](std::size_t first, std::size_t last) {
    ok.fetch_add(static_cast<int>(last - first));
  });
  EXPECT_EQ(ok.load(), 50);
}

TEST(ParPool, ResizeChangesThreadCount) {
  Pool pool{2};
  EXPECT_EQ(pool.threads(), 2);
  pool.Resize(5);
  EXPECT_EQ(pool.threads(), 5);
  std::atomic<int> sum{0};
  ParallelFor(pool, 0, 64, [&](std::size_t first, std::size_t last) {
    sum.fetch_add(static_cast<int>(last - first));
  });
  EXPECT_EQ(sum.load(), 64);
  pool.Resize(1);
  EXPECT_EQ(pool.threads(), 1);
}

TEST(ParPool, MaxThreadsCapsButNeverRaises) {
  Pool pool{4};
  std::atomic<int> sum{0};
  ParallelFor(
      pool, 0, 64,
      [&](std::size_t first, std::size_t last) {
        sum.fetch_add(static_cast<int>(last - first));
      },
      /*grain=*/1, /*max_threads=*/2);
  EXPECT_EQ(sum.load(), 64);
}

TEST(ParPool, RegionMetricsAdvance)
{
  auto& registry = obs::GlobalRegistry();
  std::uint64_t regions_before =
      registry.GetCounter("par.pool.regions").value();
  std::uint64_t tasks_before =
      registry.GetCounter("par.pool.tasks_executed").value();
  Pool pool{4};
  ParallelFor(pool, 0, 256, [](std::size_t, std::size_t) {});
  EXPECT_GT(registry.GetCounter("par.pool.regions").value(), regions_before);
  EXPECT_GT(registry.GetCounter("par.pool.tasks_executed").value(),
            tasks_before);
}

TEST(ParReduce, SumMatchesSerialForAnyPoolSize) {
  std::vector<std::uint64_t> data(10'000);
  std::iota(data.begin(), data.end(), 1);
  std::uint64_t expected =
      std::accumulate(data.begin(), data.end(), std::uint64_t{0});
  for (int threads : {1, 2, 3, 8}) {
    Pool pool{threads};
    std::uint64_t got = ParallelReduce(
        pool, std::size_t{0}, data.size(), std::uint64_t{0},
        [&](std::uint64_t& acc, std::size_t first, std::size_t last) {
          for (std::size_t i = first; i < last; ++i) acc += data[i];
        },
        [](std::uint64_t& acc, std::uint64_t part) { acc += part; });
    EXPECT_EQ(got, expected) << "threads=" << threads;
  }
}

TEST(ParReduce, OrderedMergePreservesSequence) {
  // Concatenation is non-commutative: only an in-order merge reproduces
  // the serial result. This is the determinism contract in miniature.
  for (int threads : {1, 2, 8}) {
    Pool pool{threads};
    std::vector<std::size_t> order = ParallelReduce(
        pool, std::size_t{0}, std::size_t{500}, std::vector<std::size_t>{},
        [](std::vector<std::size_t>& acc, std::size_t first,
           std::size_t last) {
          for (std::size_t i = first; i < last; ++i) acc.push_back(i);
        },
        [](std::vector<std::size_t>& acc, std::vector<std::size_t>&& part) {
          acc.insert(acc.end(), part.begin(), part.end());
        });
    ASSERT_EQ(order.size(), 500u) << "threads=" << threads;
    for (std::size_t i = 0; i < order.size(); ++i) {
      ASSERT_EQ(order[i], i) << "threads=" << threads;
    }
  }
}

TEST(ParReduce, EmptyRangeReturnsInit) {
  Pool pool{4};
  int result = ParallelReduce(
      pool, std::size_t{3}, std::size_t{3}, 42,
      [](int&, std::size_t, std::size_t) { FAIL() << "must not run"; },
      [](int&, int) { FAIL() << "must not merge"; });
  EXPECT_EQ(result, 42);
}

TEST(ParReduce, FloatingPointBitIdenticalAcrossThreadCounts) {
  // An FP sum whose value depends on association order: identical chunking
  // + ordered merge must give the same bits for every pool size.
  std::vector<double> data(4096);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = 1.0 / static_cast<double>(i + 1);
  }
  auto run = [&](Pool& pool) {
    return ParallelReduce(
        pool, std::size_t{0}, data.size(), 0.0,
        [&](double& acc, std::size_t first, std::size_t last) {
          for (std::size_t i = first; i < last; ++i) acc += data[i];
        },
        [](double& acc, double part) { acc += part; });
  };
  Pool serial{1};
  double reference = run(serial);
  for (int threads : {2, 3, 8}) {
    Pool pool{threads};
    for (int repeat = 0; repeat < 3; ++repeat) {
      double got = run(pool);
      EXPECT_EQ(got, reference) << "threads=" << threads;
    }
  }
}

TEST(ParSort, MatchesStdSortForAnySizeGrainAndPoolSize) {
  // Sizes around the chunk edges, including an odd chunk count whose last
  // run merges in a later round; many duplicates.
  std::uint64_t state = 12345;
  for (std::size_t n : {0, 1, 2, 7, 100, 1000, 4097}) {
    std::vector<double> values(n);
    for (double& v : values) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      v = static_cast<double>(state >> 54);
    }
    std::vector<double> expected = values;
    std::sort(expected.begin(), expected.end());
    for (std::size_t grain : {1, 3, 64, 5000}) {
      for (int threads : {1, 4}) {
        Pool pool{threads};
        std::vector<double> sorted = values;
        ParallelSort(pool, std::span<double>{sorted}, grain);
        EXPECT_EQ(sorted, expected)
            << n << " values, grain " << grain << ", " << threads
            << " threads";
      }
    }
  }
}

TEST(ParseThreadsEnv, AcceptsWholeNumbersInRange) {
  std::string error;
  EXPECT_EQ(ParseThreadsEnv("1", &error), 1);
  EXPECT_EQ(ParseThreadsEnv("8", &error), 8);
  EXPECT_EQ(ParseThreadsEnv("4096", &error), kMaxThreadsEnv);
}

TEST(ParseThreadsEnv, RejectsNonNumbers) {
  for (const char* text :
       {"", "banana", "3x", "x3", " 3", "3 ", "1.5", "0x4", "++2"}) {
    std::string error;
    EXPECT_FALSE(ParseThreadsEnv(text, &error).has_value()) << text;
    EXPECT_NE(error.find("not a number"), std::string::npos) << text;
  }
}

TEST(ParseThreadsEnv, RejectsOutOfRange) {
  for (const char* text :
       {"0", "-3", "4097", "99999999999999999999999999"}) {
    std::string error;
    EXPECT_FALSE(ParseThreadsEnv(text, &error).has_value()) << text;
    EXPECT_NE(error.find("out of range"), std::string::npos) << text;
  }
}

TEST(ParseThreadsEnv, ErrorPointerIsOptional) {
  EXPECT_FALSE(ParseThreadsEnv("banana").has_value());
  EXPECT_EQ(ParseThreadsEnv("2"), 2);
}

}  // namespace
}  // namespace ipscope::par
