// lint-corpus-as: src/ingest/corpus.cc
// Violation corpus (perf.isa-intrinsics): CRC32C instructions spelled out
// beside the one dispatched kernel in io/crc32c.cc, even inside a function
// compiled for SSE4.2.
#include <nmmintrin.h>

#include <cstdint>

namespace corpus {

[[gnu::target("sse4.2")]] std::uint32_t Seal(std::uint32_t crc,
                                             std::uint64_t word) {
  auto c = static_cast<std::uint32_t>(_mm_crc32_u64(crc, word));  // finding
  return __builtin_ia32_crc32qi(c, 0);                             // finding
}

}  // namespace corpus
