// lint-corpus-as: src/io/crc32c.cc
// Clean twin (perf.isa-intrinsics): io/crc32c.cc is the home of the CRC32C
// instruction, behind the CPU dispatch. A plain identifier named crc32 and
// the intrinsic's name in strings or comments (_mm_crc32_u64) are not
// calls.
#include <nmmintrin.h>

#include <cstdint>

namespace corpus {

[[gnu::target("sse4.2")]] std::uint32_t Extend(std::uint32_t crc,
                                               std::uint64_t word) {
  std::uint64_t c = _mm_crc32_u64(~static_cast<std::uint64_t>(crc), word);
  return ~static_cast<std::uint32_t>(c);
}

inline const char* Label() {
  std::uint32_t crc32 = 0;
  return crc32 == 0 ? "_mm_crc32_u64" : "crc32";
}

}  // namespace corpus
