// lint-corpus-as: src/rng/flip_words.cc
// Clean twin: rng/flip_words.cc is the home of the AVX-512 coin-flip word
// kernel, behind the CPU dispatch. Vector types such as __m512i, a plain
// identifier named _mm, and an intrinsic's name in strings or comments
// (_mm512_mullo_epi64) are not calls.
#include <immintrin.h>

#include <cstdint>

namespace corpus {

[[gnu::target("avx512f,avx512dq")]] __mmask8 Flips(__m512i z,
                                                   __m512i limit) {
  return _mm512_cmplt_epu64_mask(_mm512_mullo_epi64(z, limit), limit);
}

inline const char* Label() {
  int _mm = 0;
  return _mm == 0 ? "_mm512_mullo_epi64" : "portable";
}

}  // namespace corpus
