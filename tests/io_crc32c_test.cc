// CRC32C known answers and implementation equivalence.
//
// Crc32cExtend dispatches at run time between the SSE4.2 instruction and
// the portable slicing-by-4 tables. Both are called directly here, so the
// portable path is checked on every host and the hardware path wherever
// the CPU has it.
#include "io/crc32c.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace ipscope::io {
namespace {

using ExtendFn = std::uint32_t (*)(std::uint32_t, const void*, std::size_t);

struct Impl {
  const char* name;
  ExtendFn extend;
};

std::vector<Impl> Implementations() {
  std::vector<Impl> impls = {{"dispatch", &Crc32cExtend},
                             {"portable", &Crc32cExtendPortable}};
  if (Crc32cHardwareAvailable()) {
    impls.push_back({"hardware", &Crc32cExtendHardware});
  }
  return impls;
}

// RFC 3720 (iSCSI) §B.4 test vectors plus the classic check value.
TEST(Crc32c, KnownAnswers) {
  const std::string check = "123456789";
  std::vector<unsigned char> zeros(32, 0x00);
  std::vector<unsigned char> ones(32, 0xFF);
  std::vector<unsigned char> ascending(32);
  for (int i = 0; i < 32; ++i) ascending[i] = static_cast<unsigned char>(i);
  for (const Impl& impl : Implementations()) {
    SCOPED_TRACE(impl.name);
    EXPECT_EQ(impl.extend(kCrc32cInit, check.data(), check.size()),
              0xE3069283u);
    EXPECT_EQ(impl.extend(kCrc32cInit, zeros.data(), zeros.size()),
              0x8A9136AAu);
    EXPECT_EQ(impl.extend(kCrc32cInit, ones.data(), ones.size()),
              0x62A8AB43u);
    EXPECT_EQ(impl.extend(kCrc32cInit, ascending.data(), ascending.size()),
              0x46DD794Eu);
    EXPECT_EQ(impl.extend(kCrc32cInit, nullptr, 0), 0u);
  }
}

// Lengths at and around every boundary of the hardware kernel: the byte
// tail, the single-chain loop below 3 x 256 bytes, one and several
// 3 x 256 strides, one 3 x 8192 stride and two of them followed by short
// strides and a tail.
std::vector<std::size_t> BoundaryLengths() {
  std::vector<std::size_t> lengths;
  for (std::size_t len = 0; len <= 300; ++len) lengths.push_back(len);
  constexpr std::size_t kShort = 3 * 256;
  constexpr std::size_t kLong = 3 * 8192;
  for (std::size_t edge : {kShort, 2 * kShort, 5 * kShort, kLong,
                           kLong + kShort, 2 * kLong, 2 * kLong + kShort + 7}) {
    for (std::size_t len = edge - 1; len <= edge + 1; ++len) {
      lengths.push_back(len);
    }
  }
  return lengths;
}

std::vector<unsigned char> PseudoRandomBytes(std::size_t size) {
  std::vector<unsigned char> buffer(size);
  std::uint32_t x = 0x12345678u;
  for (unsigned char& b : buffer) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<unsigned char>(x >> 24);
  }
  return buffer;
}

TEST(Crc32c, HardwareMatchesPortableAtEveryLengthAndAlignment) {
  if (!Crc32cHardwareAvailable()) {
    GTEST_SKIP() << "CPU has no SSE4.2 crc32; portable path checked above";
  }
  const std::vector<std::size_t> lengths = BoundaryLengths();
  const std::vector<unsigned char> buffer =
      PseudoRandomBytes(lengths.back() + 8);
  for (std::size_t align = 0; align < 8; ++align) {
    for (std::size_t len : lengths) {
      const unsigned char* p = buffer.data() + align;
      ASSERT_EQ(Crc32cExtendHardware(0xDEADBEEFu, p, len),
                Crc32cExtendPortable(0xDEADBEEFu, p, len))
          << "align " << align << " len " << len;
      ASSERT_EQ(Crc32cExtendHardware(kCrc32cInit, p, len),
                Crc32cExtendPortable(kCrc32cInit, p, len))
          << "align " << align << " len " << len;
    }
  }
}

TEST(Crc32c, SplitExtendEqualsOneShot) {
  std::vector<unsigned char> buffer(257);
  for (std::size_t i = 0; i < buffer.size(); ++i) {
    buffer[i] = static_cast<unsigned char>(i * 31 + 7);
  }
  const std::vector<unsigned char> long_buffer =
      PseudoRandomBytes(2 * 3 * 8192 + 3 * 256 + 8 + 8);
  for (const Impl& impl : Implementations()) {
    SCOPED_TRACE(impl.name);
    const std::uint32_t whole =
        impl.extend(kCrc32cInit, buffer.data(), buffer.size());
    for (std::size_t split = 0; split <= buffer.size(); ++split) {
      std::uint32_t crc = impl.extend(kCrc32cInit, buffer.data(), split);
      crc = impl.extend(crc, buffer.data() + split, buffer.size() - split);
      ASSERT_EQ(crc, whole) << "split at " << split;
    }
    // Three pieces, the middle one empty.
    std::uint32_t crc = impl.extend(kCrc32cInit, buffer.data(), 100);
    crc = impl.extend(crc, buffer.data() + 100, 0);
    crc = impl.extend(crc, buffer.data() + 100, buffer.size() - 100);
    EXPECT_EQ(crc, whole);

    // Long buffers: each piece crosses the hardware kernel's stride
    // boundaries, at every alignment, from a nonzero initial CRC.
    for (std::size_t align = 0; align < 8; ++align) {
      const unsigned char* p = long_buffer.data() + align;
      const std::size_t size = long_buffer.size() - 8;
      const std::uint32_t one_shot = impl.extend(0xDEADBEEFu, p, size);
      for (std::size_t split : BoundaryLengths()) {
        if (split > size) continue;
        std::uint32_t c = impl.extend(0xDEADBEEFu, p, split);
        c = impl.extend(c, p + split, size - split);
        ASSERT_EQ(c, one_shot) << "align " << align << " split " << split;
      }
    }
  }
}

}  // namespace
}  // namespace ipscope::io
