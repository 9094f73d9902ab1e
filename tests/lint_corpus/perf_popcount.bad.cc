// lint-corpus-as: src/activity/corpus.cc
// Violation corpus: direct popcounts outside activity::PopCount. The
// baseline x86-64 build has no popcnt instruction, so each one compiles
// to a call into libgcc's __popcountdi2.
#include <bit>
#include <cstdint>

namespace corpus {

int HalfCounts(const std::uint64_t* row) {
  int lower = std::popcount(row[0]);           // finding
  int upper = __builtin_popcountll(row[3]);    // finding
  return lower + upper;
}

}  // namespace corpus
