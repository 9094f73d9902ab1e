#include "io/crc32c.h"

#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace ipscope::io {

namespace {

constexpr std::uint32_t kPoly = 0x82F63B78u;  // reflected Castagnoli

struct Tables {
  // table[k][b]: CRC of byte b followed by k zero bytes — the standard
  // slicing-by-4 layout.
  std::uint32_t t[4][256];
};

constexpr Tables BuildTables() {
  Tables tables{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    std::uint32_t crc = b;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
    }
    tables.t[0][b] = crc;
  }
  for (std::uint32_t b = 0; b < 256; ++b) {
    std::uint32_t crc = tables.t[0][b];
    for (int k = 1; k < 4; ++k) {
      crc = tables.t[0][crc & 0xFFu] ^ (crc >> 8);
      tables.t[k][b] = crc;
    }
  }
  return tables;
}

constexpr Tables kTables = BuildTables();

#if defined(__x86_64__)
// The `crc32` instruction implements exactly this polynomial, so the
// hardware path needs no tables: 8 bytes per instruction, then a byte
// tail. x86 is little-endian, so a memcpy'd word feeds the bytes in
// stream order.
__attribute__((target("sse4.2"))) std::uint32_t Sse42Extend(
    std::uint32_t crc, const unsigned char* p, std::size_t size) {
  std::uint64_t c = ~crc;
  for (; size >= 8; p += 8, size -= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    c = _mm_crc32_u64(c, word);
  }
  auto c32 = static_cast<std::uint32_t>(c);
  for (; size > 0; ++p, --size) c32 = _mm_crc32_u8(c32, *p);
  return ~c32;
}

bool DetectHardware() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
}
#else
bool DetectHardware() { return false; }
#endif

// Read once during static initialization and never written again, so
// dispatch needs no lock. Zero-initialized (portable) until then.
const bool kHardware = DetectHardware();

}  // namespace

std::uint32_t Crc32cExtendPortable(std::uint32_t crc, const void* data,
                                   std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  while (size >= 4) {
    crc ^= static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
    crc = kTables.t[3][crc & 0xFFu] ^ kTables.t[2][(crc >> 8) & 0xFFu] ^
          kTables.t[1][(crc >> 16) & 0xFFu] ^ kTables.t[0][crc >> 24];
    p += 4;
    size -= 4;
  }
  while (size-- > 0) {
    crc = kTables.t[0][(crc ^ *p++) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

std::uint32_t Crc32cExtendHardware(std::uint32_t crc, const void* data,
                                   std::size_t size) {
#if defined(__x86_64__)
  return Sse42Extend(crc, static_cast<const unsigned char*>(data), size);
#else
  return Crc32cExtendPortable(crc, data, size);
#endif
}

bool Crc32cHardwareAvailable() { return kHardware; }

std::uint32_t Crc32cExtend(std::uint32_t crc, const void* data,
                           std::size_t size) {
  return kHardware ? Crc32cExtendHardware(crc, data, size)
                   : Crc32cExtendPortable(crc, data, size);
}

}  // namespace ipscope::io
