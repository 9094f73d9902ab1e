// lint-corpus-as: src/sim/corpus.cc
// Violation corpus: an AVX-512 coin-flip lane spelled out in a sim file,
// even inside a function compiled for AVX-512. The word kernel and its
// dispatch live in rng/flip_words.cc; callers use rng::FlipWord.
#include <immintrin.h>

#include <cstdint>

namespace corpus {

[[gnu::target("avx512f,avx512dq")]] std::uint64_t Flips(__m512i z,
                                                        __m512i limit) {
  z = _mm512_mullo_epi64(z, limit);                                // finding
  __m256i half = __builtin_ia32_extracti64x4_mask(z, 1, {}, 0xff);  // finding
  (void)half;
  return _mm512_cmplt_epu64_mask(z, limit);                        // finding
}

}  // namespace corpus
