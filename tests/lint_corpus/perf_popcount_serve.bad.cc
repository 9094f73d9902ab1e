// lint-corpus-as: src/serve/corpus.cc
// Violation corpus: popcounts spelled out in a serve file, even inside a
// function compiled for popcnt: the builtin is a perf.popcount finding,
// the intrinsic a perf.isa-intrinsics one.
#include <nmmintrin.h>

#include <cstdint>

namespace corpus {

[[gnu::target("popcnt")]] int Shared(std::uint64_t prev, std::uint64_t next) {
  int both = __builtin_popcountll(prev & next);                   // finding
  int either = static_cast<int>(_mm_popcnt_u64(prev | next));     // finding
  return either - both;
}

}  // namespace corpus
