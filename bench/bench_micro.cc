// Microbenchmarks of the core data structures and kernels (google-benchmark).
#include <benchmark/benchmark.h>

#include <sstream>
#include <vector>

#include "activity/churn.h"
#include "activity/eventsize.h"
#include "activity/matrix.h"
#include "bgp/table.h"
#include "cdn/observatory.h"
#include "io/store_io.h"
#include "netbase/ip_set.h"
#include "scan/zmap_order.h"
#include "netbase/prefix_trie.h"
#include "rng/flip_words.h"
#include "rng/lognormal_batch.h"
#include "rng/rng.h"
#include "sim/world.h"

namespace {

using namespace ipscope;

const sim::World& SharedWorld() {
  static sim::World world{[] {
    sim::WorldConfig config;
    config.target_client_blocks = 500;
    return config;
  }()};
  return world;
}

void BM_TrieInsert(benchmark::State& state) {
  rng::Xoshiro256 g{42};
  std::vector<net::Prefix> prefixes;
  for (int i = 0; i < 10000; ++i) {
    prefixes.emplace_back(net::IPv4Addr{static_cast<std::uint32_t>(g())},
                          8 + static_cast<int>(g.NextBounded(17)));
  }
  for (auto _ : state) {
    net::PrefixTrie<std::uint32_t> trie;
    for (const auto& p : prefixes) trie.Insert(p, 1);
    benchmark::DoNotOptimize(trie.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(prefixes.size()));
}
BENCHMARK(BM_TrieInsert);

void BM_TrieLongestMatch(benchmark::State& state) {
  rng::Xoshiro256 g{42};
  net::PrefixTrie<std::uint32_t> trie;
  for (int i = 0; i < 10000; ++i) {
    trie.Insert(net::Prefix{net::IPv4Addr{static_cast<std::uint32_t>(g())},
                            8 + static_cast<int>(g.NextBounded(17))},
                static_cast<std::uint32_t>(i));
  }
  std::uint64_t found = 0;
  for (auto _ : state) {
    auto match = trie.LongestMatch(net::IPv4Addr{
        static_cast<std::uint32_t>(g())});
    found += match.has_value();
  }
  benchmark::DoNotOptimize(found);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TrieLongestMatch);

void BM_Ipv4SetUnion(benchmark::State& state) {
  rng::Xoshiro256 g{7};
  std::vector<std::uint32_t> a, b;
  for (int i = 0; i < 100000; ++i) {
    a.push_back(static_cast<std::uint32_t>(g()));
    b.push_back(static_cast<std::uint32_t>(g()));
  }
  net::Ipv4Set sa = net::Ipv4Set::FromValues(a);
  net::Ipv4Set sb = net::Ipv4Set::FromValues(b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sa.Union(sb).Count());
  }
}
BENCHMARK(BM_Ipv4SetUnion);

void BM_MatrixStu(benchmark::State& state) {
  activity::ActivityMatrix m{112};
  rng::Xoshiro256 g{3};
  for (int d = 0; d < 112; ++d) {
    for (int h = 0; h < 256; ++h) {
      if (g.NextBool(0.5)) m.Set(d, h);
    }
  }
  for (auto _ : state) benchmark::DoNotOptimize(m.Stu(0, 112));
}
BENCHMARK(BM_MatrixStu);

void BM_GenerateStepDay(benchmark::State& state) {
  const sim::World& world = SharedWorld();
  sim::StepSpec spec;
  spec.start_day = 228;
  spec.step_days = 1;
  spec.steps = 112;
  spec.world_seed = world.config().seed;
  activity::DayBits bits;
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& plan = world.blocks()[i++ % world.blocks().size()];
    sim::GenerateStep(plan, spec, static_cast<int>(i % 112), bits, nullptr);
    benchmark::DoNotOptimize(bits);
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_GenerateStepDay);

// One block's whole 112-day window with hit counts per iteration: the
// ForEachBlockHits kernel. Items are host-steps, comparable with
// BM_GenerateStepDay's (which skips the hits).
void BM_GenerateBlockHits(benchmark::State& state) {
  const sim::World& world = SharedWorld();
  sim::StepSpec spec;
  spec.start_day = 228;
  spec.step_days = 1;
  spec.steps = 112;
  spec.world_seed = world.config().seed;
  spec.gateway_growth = world.config().gateway_traffic_growth;
  std::vector<activity::DayBits> rows(112);
  std::vector<std::uint32_t> hits(112 * 256);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& plan = world.blocks()[i++ % world.blocks().size()];
    sim::GenerateBlock(plan, spec, rows.data(), hits.data());
    benchmark::DoNotOptimize(hits.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 112 * 256);
}
BENCHMARK(BM_GenerateBlockHits);

// One block's whole 112-day window, bits only, over the world's blocks
// whose base policy is the arg's kind (labelled): the store-build kernel
// per policy. Time per iteration is per block; items are host-steps.
void BM_GenerateBlockBits(benchmark::State& state) {
  const sim::World& world = SharedWorld();
  const auto kind = static_cast<sim::PolicyKind>(state.range(0));
  std::vector<const sim::BlockPlan*> plans;
  for (const sim::BlockPlan& plan : world.blocks()) {
    if (plan.base.kind == kind) plans.push_back(&plan);
  }
  state.SetLabel(sim::PolicyKindName(kind));
  if (plans.empty()) {
    state.SkipWithError("no block of this kind in the world");
    return;
  }
  sim::StepSpec spec;
  spec.start_day = 228;
  spec.step_days = 1;
  spec.steps = 112;
  spec.world_seed = world.config().seed;
  spec.gateway_growth = world.config().gateway_traffic_growth;
  std::vector<activity::DayBits> rows(112);
  std::size_t i = 0;
  for (auto _ : state) {
    sim::GenerateBlock(*plans[i++ % plans.size()], spec, rows.data());
    benchmark::DoNotOptimize(rows.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 112 * 256);
}
BENCHMARK(BM_GenerateBlockBits)
    ->DenseRange(static_cast<int>(sim::PolicyKind::kStatic),
                 static_cast<int>(sim::PolicyKind::kServerFarm));

// One step's worth of hit draws (256 subscriber-like lanes: mu 2..10.2,
// sigma 0.5..1.3, daily cap), evaluated by the scalar libm formula
// (arg 0) or by one target of the certified kernel (args 1..3, labelled).
// Items are draws, so the reported time per item is ns per lane.
void BM_HitDraws(benchmark::State& state) {
  constexpr std::size_t kLanes = 256;
  rng::Xoshiro256 g{9};
  std::vector<double> u1(kLanes), u2(kLanes), mu(kLanes), sigma(kLanes);
  std::vector<double> scale(kLanes, 1.0), cap(kLanes, 5.0e7);
  for (std::size_t i = 0; i < kLanes; ++i) {
    u1[i] = g.NextDouble();
    u2[i] = g.NextDouble();
    mu[i] = 2.0 + 8.2 * g.NextDouble();
    sigma[i] = 0.5 + 0.8 * g.NextDouble();
  }
  const rng::FlooredLogNormalLanes lanes{u1.data(),    u2.data(),
                                         mu.data(),    sigma.data(),
                                         scale.data(), cap.data()};
  std::vector<std::uint32_t> out(kLanes);
  // Arg 0: the scalar libm formula; 1..3: the certified kernel's portable,
  // AVX2 and AVX-512 targets (a target the CPU lacks is skipped).
  using Kernel = std::size_t (*)(std::size_t, const rng::FlooredLogNormalLanes&,
                                 std::uint32_t*);
  constexpr Kernel kKernels[] = {nullptr,
                                 rng::FlooredLogNormalCertifiedPortable,
                                 rng::FlooredLogNormalCertifiedAvx2,
                                 rng::FlooredLogNormalCertifiedAvx512};
  constexpr const char* kLabels[] = {"scalar", "portable", "avx2", "avx512"};
  const auto target = static_cast<std::size_t>(state.range(0));
  if ((target == 2 && !rng::FlooredLogNormalAvx2Available()) ||
      (target == 3 && !rng::FlooredLogNormalAvx512Available())) {
    state.SkipWithError("target not supported by this CPU");
    return;
  }
  const Kernel kernel = kKernels[target];
  for (auto _ : state) {
    if (kernel != nullptr) {
      benchmark::DoNotOptimize(kernel(kLanes, lanes, out.data()));
    } else {
      for (std::size_t i = 0; i < kLanes; ++i) {
        out[i] = rng::FlooredLogNormal(u1[i], u2[i], mu[i], sigma[i],
                                       scale[i], cap[i]);
      }
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(kLabels[target]);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kLanes));
}
BENCHMARK(BM_HitDraws)->DenseRange(0, 3);

// One 112-step sweep of a 64-slot row word's coin flips (the store
// build's CoinFlipKernel loop, random per-step thresholds), evaluated by
// the scalar SubstreamTail::At compare (arg 0) or by one rng::FlipWord
// target (args 1..2, labelled). Items are flips, so the reported time per
// item is ns per flip.
void BM_FlipWords(benchmark::State& state) {
  constexpr int kSlots = 64;
  constexpr int kSteps = 112;
  rng::Xoshiro256 g{9};
  std::vector<rng::SubstreamTail> tails;
  std::vector<std::uint64_t> keys;
  for (int b = 0; b < kSlots; ++b) {
    tails.emplace_back(g(), 0x7e05, b);
    keys.push_back(tails.back().key());
  }
  std::vector<std::uint64_t> below(kSteps);
  for (std::uint64_t& t : below) t = g() >> 11;
  std::vector<std::uint64_t> words(kSteps);
  using Kernel = std::uint64_t (*)(const std::uint64_t*, int, std::uint64_t,
                                   std::uint64_t);
  constexpr Kernel kKernels[] = {nullptr, rng::FlipWordPortable,
                                 rng::FlipWordAvx512};
  constexpr const char* kLabels[] = {"scalar", "portable", "avx512"};
  const auto target = static_cast<std::size_t>(state.range(0));
  if (target == 2 && !rng::FlipWordAvx512Available()) {
    state.SkipWithError("target not supported by this CPU");
    return;
  }
  const Kernel kernel = kKernels[target];
  for (auto _ : state) {
    for (std::size_t s = 0; s < kSteps; ++s) {
      if (kernel != nullptr) {
        words[s] = kernel(keys.data(), kSlots, s, below[s]);
        continue;
      }
      std::uint64_t word = 0;
      for (int b = 0; b < kSlots; ++b) {
        const bool flip =
            (tails[static_cast<std::size_t>(b)].At(s) >> 11) < below[s];
        word |= std::uint64_t{flip} << b;
      }
      words[s] = word;
    }
    benchmark::DoNotOptimize(words.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(kLabels[target]);
  state.SetItemsProcessed(state.iterations() * kSlots * kSteps);
}
BENCHMARK(BM_FlipWords)->DenseRange(0, 2);

void BM_IsolatingMask(benchmark::State& state) {
  rng::Xoshiro256 g{11};
  std::vector<std::uint32_t> members;
  for (int i = 0; i < 200000; ++i) {
    members.push_back(static_cast<std::uint32_t>(g()));
  }
  net::Ipv4Set set = net::Ipv4Set::FromValues(members);
  std::uint64_t acc = 0;
  for (auto _ : state) {
    net::IPv4Addr addr{static_cast<std::uint32_t>(g())};
    if (!set.Contains(addr)) {
      acc += static_cast<std::uint64_t>(
          activity::SmallestIsolatingMask(set, addr));
    }
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_IsolatingMask);

void BM_DailyStoreBuild(benchmark::State& state) {
  const sim::World& world = SharedWorld();
  for (auto _ : state) {
    auto store = cdn::Observatory::Daily(world).BuildStore();
    benchmark::DoNotOptimize(store.BlockCount());
  }
}
BENCHMARK(BM_DailyStoreBuild)->Unit(benchmark::kMillisecond);

void BM_StoreSerializeRoundTrip(benchmark::State& state) {
  const sim::World& world = SharedWorld();
  auto store = cdn::Observatory::Daily(world).BuildStore();
  for (auto _ : state) {
    std::stringstream buffer;
    io::SaveStore(store, buffer);
    auto loaded = io::LoadStore(buffer);
    benchmark::DoNotOptimize(loaded.BlockCount());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(store.BlockCount()));
}
BENCHMARK(BM_StoreSerializeRoundTrip)->Unit(benchmark::kMillisecond);

void BM_ZmapPermutation(benchmark::State& state) {
  scan::AddressPermutation perm{42};
  std::uint32_t i = 0;
  std::uint64_t acc = 0;
  for (auto _ : state) {
    acc += perm.AddressAt(i++).value();
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZmapPermutation);

void BM_ChurnWindow7(benchmark::State& state) {
  const sim::World& world = SharedWorld();
  auto store = cdn::Observatory::Daily(world).BuildStore();
  activity::ChurnAnalyzer churn{store};
  for (auto _ : state) {
    benchmark::DoNotOptimize(churn.Churn(7).up.median);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(store.BlockCount()));
}
BENCHMARK(BM_ChurnWindow7)->Unit(benchmark::kMillisecond);

}  // namespace
