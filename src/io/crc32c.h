// CRC32C (Castagnoli polynomial, reflected 0x82F63B78).
//
// The checksum the IPSCOPE2 store format uses for its per-block and
// whole-stream integrity checks (io/store_io.h). CRC32C is the standard
// storage-integrity polynomial (iSCSI, ext4, LevelDB table format): its
// error-detection properties guarantee that any single-byte corruption —
// and any burst shorter than 32 bits — changes the checksum, which is what
// the corruption property sweep in tests/io_fault_test.cc relies on.
//
// Two implementations compute the same function:
//   * hardware: the SSE4.2 `crc32` instruction, 8 bytes per step, on
//     x86 CPUs that report SSE4.2. From 768 bytes on it runs three
//     independent chains over adjacent 3 x 8192- and then 3 x 256-byte
//     strides and folds them with constant zero-operator tables
//     (Adler's method), which keeps the instruction's pipeline full;
//     shorter buffers and the remainder take one chain;
//   * portable: table-driven slicing-by-4, on every other CPU.
// Crc32cExtend picks one at run time from a CPU feature flag read once
// during static initialization (no lock, no knob); a call made before
// that flag is set simply takes the portable path. Both return identical
// values for every input (tests/io_crc32c_test.cc checks the RFC 3720
// vectors, and path equality at 8 alignments for every length up to 300
// and at each side of every stride boundary up to two long runs).
#pragma once

#include <cstddef>
#include <cstdint>

namespace ipscope::io {

// Incremental interface: start from kCrc32cInit (or a previous return
// value) and extend over consecutive byte ranges.
inline constexpr std::uint32_t kCrc32cInit = 0;

std::uint32_t Crc32cExtend(std::uint32_t crc, const void* data,
                           std::size_t size);

inline std::uint32_t Crc32c(const void* data, std::size_t size) {
  return Crc32cExtend(kCrc32cInit, data, size);
}

// The two implementations behind Crc32cExtend, callable directly so both
// are testable on any host. Crc32cExtendHardware may only be called when
// Crc32cHardwareAvailable() is true.
std::uint32_t Crc32cExtendPortable(std::uint32_t crc, const void* data,
                                   std::size_t size);
std::uint32_t Crc32cExtendHardware(std::uint32_t crc, const void* data,
                                   std::size_t size);
bool Crc32cHardwareAvailable();

}  // namespace ipscope::io
