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
// Zero-operator tables (Adler's method): t[k][b] is the register that
// appending `len` zero bytes makes of a register holding only byte b at
// byte position k, for a power-of-two `len`. Raw (uninverted) CRC
// registers are linear over GF(2), so the register after A followed by
// B, len(B) = len, is Shift(register after A) ^ (register after B from
// zero).
struct ShiftTables {
  std::uint32_t t[4][256];
};

// Multiplies the 32x32 GF(2) matrix `mat` (column i = image of bit i) by
// `vec`.
constexpr std::uint32_t MatrixTimes(const std::uint32_t* mat,
                                    std::uint32_t vec) {
  std::uint32_t sum = 0;
  for (int i = 0; vec != 0; ++i, vec >>= 1) {
    if (vec & 1u) sum ^= mat[i];
  }
  return sum;
}

constexpr ShiftTables BuildShiftTables(std::size_t len) {
  // Operator for one zero bit, then squared: 2 bits, 4 bits, 8 bits = one
  // byte, and on to `len` bytes.
  std::uint32_t op[32] = {};
  op[0] = kPoly;
  for (int i = 1; i < 32; ++i) op[i] = std::uint32_t{1} << (i - 1);
  auto square = [&op] {
    std::uint32_t sq[32] = {};
    for (int i = 0; i < 32; ++i) sq[i] = MatrixTimes(op, op[i]);
    for (int i = 0; i < 32; ++i) op[i] = sq[i];
  };
  for (std::size_t bits = 1; bits < 8 * len; bits *= 2) square();
  ShiftTables tables{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    for (int k = 0; k < 4; ++k) tables.t[k][b] = MatrixTimes(op, b << (8 * k));
  }
  return tables;
}

// The `crc32` instruction implements exactly this polynomial. It has a
// latency of three cycles but issues one per cycle, so a single chain
// runs at a third of its throughput: long buffers run three independent
// chains over adjacent strides and fold them with the shift tables.
// x86 is little-endian, so a memcpy'd word feeds the bytes in stream
// order.
constexpr std::size_t kLongStride = 8192;
constexpr std::size_t kShortStride = 256;
constexpr ShiftTables kShiftLong = BuildShiftTables(kLongStride);
constexpr ShiftTables kShiftShort = BuildShiftTables(kShortStride);

std::uint32_t Shift(const ShiftTables& z, std::uint32_t crc) {
  return z.t[0][crc & 0xFFu] ^ z.t[1][(crc >> 8) & 0xFFu] ^
         z.t[2][(crc >> 16) & 0xFFu] ^ z.t[3][crc >> 24];
}

__attribute__((target("sse4.2"))) std::uint64_t Crc32Word(
    std::uint64_t crc, const unsigned char* p) {
  std::uint64_t word;
  std::memcpy(&word, p, sizeof(word));
  return _mm_crc32_u64(crc, word);
}

// Consumes whole 3 x `stride` runs from `*p`, three chains at a time.
__attribute__((target("sse4.2"))) std::uint64_t ThreeWay(
    std::uint64_t c0, const unsigned char** p, std::size_t* size,
    std::size_t stride, const ShiftTables& shift) {
  while (*size >= 3 * stride) {
    const unsigned char* a = *p;
    std::uint64_t c1 = 0;
    std::uint64_t c2 = 0;
    for (std::size_t i = 0; i < stride; i += 8) {
      c0 = Crc32Word(c0, a + i);
      c1 = Crc32Word(c1, a + stride + i);
      c2 = Crc32Word(c2, a + 2 * stride + i);
    }
    c0 = Shift(shift, static_cast<std::uint32_t>(c0)) ^
         static_cast<std::uint32_t>(c1);
    c0 = Shift(shift, static_cast<std::uint32_t>(c0)) ^
         static_cast<std::uint32_t>(c2);
    *p += 3 * stride;
    *size -= 3 * stride;
  }
  return c0;
}

__attribute__((target("sse4.2"))) std::uint32_t Sse42Extend(
    std::uint32_t crc, const unsigned char* p, std::size_t size) {
  std::uint64_t c = ~crc;
  if (size >= 3 * kShortStride) {
    c = ThreeWay(c, &p, &size, kLongStride, kShiftLong);
    c = ThreeWay(c, &p, &size, kShortStride, kShiftShort);
  }
  for (; size >= 8; p += 8, size -= 8) c = Crc32Word(c, p);
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
