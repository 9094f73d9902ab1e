// Test helper: the inverse of SplitMix64's output mix.
#pragma once

#include <cstdint>

namespace ipscope::testing_support {

// SplitMix64's output mix is a bijection of 64-bit words; this is its
// inverse, so a test can choose the first output of SplitMix64Next and
// solve for the state that produces it: SplitMix64Next(s) == z for
// s = UnmixSplitMix64(z) - 0x9e3779b97f4a7c15.
inline std::uint64_t UnmixSplitMix64(std::uint64_t z) {
  auto unshift = [](std::uint64_t y, int s) {
    std::uint64_t x = y;
    for (int k = s; k < 64; k += s) x ^= y >> k;
    return x;
  };
  auto inverse = [](std::uint64_t c) {  // c odd: Newton on 2^64
    std::uint64_t inv = c;
    for (int i = 0; i < 6; ++i) inv *= 2 - c * inv;
    return inv;
  };
  z = unshift(z, 31) * inverse(0x94d049bb133111ebULL);
  z = unshift(z, 27) * inverse(0xbf58476d1ce4e5b9ULL);
  return unshift(z, 30);
}

}  // namespace ipscope::testing_support
