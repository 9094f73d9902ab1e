// lint-corpus-as: src/activity/matrix.h
// Clean twin: the one home of direct popcounts is activity/matrix.h, where
// PopCount picks std::popcount only when the target has popcnt. A plain
// identifier named popcount and the word in strings or comments are not
// calls to std::popcount.
#pragma once

#include <bit>
#include <cstdint>

namespace corpus {

constexpr int PopCount(const std::uint64_t* row) {
  return std::popcount(row[0]) + std::popcount(row[1]);
}

inline int Total(const std::uint64_t* row) {
  int popcount = PopCount(row);
  const char* label = "std::popcount";
  return popcount + (label != nullptr ? 0 : 1);
}

}  // namespace corpus
