#include "rng/flip_words.h"

#include "rng/lognormal_batch.h"
#include "rng/rng.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

// GCC 12 does not vectorize the SplitMix64 lane loop profitably under
// target("avx512f,avx512dq"), even at -O3, so the AVX-512 target is
// written with intrinsics. This file and io/crc32c.cc are the only homes
// of ISA intrinsics (lint rule perf.isa-intrinsics).

namespace ipscope::rng {

namespace {

constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ULL;

// Shifted in from the top key down, so a flip costs a shift-add and no
// variable shift.
std::uint64_t Word(const std::uint64_t* keys, int n, std::uint64_t step,
                   std::uint64_t below) {
  const std::uint64_t salt = step * kGamma;
  std::uint64_t word = 0;
  for (int b = n - 1; b >= 0; --b) {
    std::uint64_t state = keys[b] ^ salt;
    word = 2 * word + ((SplitMix64Next(state) >> 11) < below);
  }
  return word;
}

#if defined(__x86_64__)
// GCC 12's _mm512_srli_epi64 passes a self-initialized placeholder as the
// unused merge operand, which -Wmaybe-uninitialized reports at every call.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
// The features DetectKernelTarget requires for KernelTarget::kAvx512.
// Lane k of a group of eight is key i + k; a partial last group loads
// zeros past n and masks their flips off.
__attribute__((target("avx512f,avx512dq"))) std::uint64_t WordAvx512(
    const std::uint64_t* keys, int n, std::uint64_t step,
    std::uint64_t below) {
  const __m512i salt = _mm512_set1_epi64(static_cast<long long>(step * kGamma));
  const __m512i gamma = _mm512_set1_epi64(static_cast<long long>(kGamma));
  const __m512i mul1 = _mm512_set1_epi64(0xbf58476d1ce4e5b9LL);
  const __m512i mul2 = _mm512_set1_epi64(0x94d049bb133111ebLL);
  const __m512i limit = _mm512_set1_epi64(static_cast<long long>(below));
  std::uint64_t word = 0;
  for (int i = 0; i < n; i += 8) {
    const auto live = static_cast<__mmask8>(
        n - i >= 8 ? 0xffu : (1u << (n - i)) - 1u);
    __m512i z = _mm512_maskz_loadu_epi64(live, keys + i);
    z = _mm512_add_epi64(_mm512_xor_si512(z, salt), gamma);
    z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64(z, 30)),
                           mul1);
    z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64(z, 27)),
                           mul2);
    z = _mm512_xor_si512(z, _mm512_srli_epi64(z, 31));
    const __mmask8 flips = _mm512_mask_cmplt_epu64_mask(
        live, _mm512_srli_epi64(z, 11), limit);
    word |= std::uint64_t{flips} << i;
  }
  return word;
}
#pragma GCC diagnostic pop
#endif

// Read once during static initialization, like the lognormal kernel's own
// target.
const KernelTarget kTarget = DetectKernelTarget();

}  // namespace

std::uint64_t FlipWordPortable(const std::uint64_t* keys, int n,
                               std::uint64_t step, std::uint64_t below) {
  return Word(keys, n, step, below);
}

std::uint64_t FlipWordAvx512(const std::uint64_t* keys, int n,
                             std::uint64_t step, std::uint64_t below) {
#if defined(__x86_64__)
  return WordAvx512(keys, n, step, below);
#else
  return Word(keys, n, step, below);
#endif
}

bool FlipWordAvx512Available() { return kTarget == KernelTarget::kAvx512; }

std::uint64_t FlipWord(const std::uint64_t* keys, int n, std::uint64_t step,
                       std::uint64_t below) {
  if (kTarget == KernelTarget::kAvx512) {
    return FlipWordAvx512(keys, n, step, below);
  }
  return Word(keys, n, step, below);
}

}  // namespace ipscope::rng
