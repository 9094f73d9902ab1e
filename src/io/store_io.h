// Binary serialization of activity datasets.
//
// An ActivityStore (the materialized daily/weekly dataset) can be written
// to a compact stream and reloaded later, so expensive worlds need to be
// generated once and analyses can run out-of-process (see tools/ipscope_cli).
//
// One on-disk format, IPSCOPE2, little-endian, hardened for corruption
// detection and partial recovery, and carrying the per-day coverage mask:
//   8 bytes  magic "IPSCOPE2"
//   u32      days (steps) per matrix
//   u64      block count
//   bytes    coverage bitmap, ceil(days/8) bytes (bit d set = day d covered)
//   u32      header CRC32C (over everything above)
//   then per block, in ascending key order:
//     u32    block key (top 24 bits of the /24 network address)
//     u32    number of non-empty days
//     then per non-empty day: u16 day index + 4 x u64 bitmap words
//     u32    block CRC32C (over this block's key/count/payload bytes)
//   footer:
//     4 bytes "END2" | u64 block count echo
//     u32 stream CRC32C (over every byte from offset 0 through the echo)
//
// Any other magic — including the retired unchecksummed v1 layout — is
// rejected as a typed StoreErrorKind::kBadMagic.
//
// Every byte of a stream is covered by at least one checksum, so any
// single-byte corruption is detected (property-swept in
// tests/io_fault_test.cc). Per-block checksums make salvage possible:
// TryLoadStore with salvage=true recovers all intact blocks up to the
// first truncated/corrupt record instead of failing outright.
//
// Codec. Fields are little-endian words copied with memcpy (a byte loop
// on big-endian hosts, chosen at compile time). There is one decoder,
// written once over a byte source. It verifies the header, block and
// stream CRCs, the key range and order, the day range and order, that
// every recorded day is covered, and the footer magic and block-count
// echo, and only then hands a record to a sink. TryLoadStore reads an
// istream a record at a time through one reused record buffer and
// builds a new store. TryMergeStore reads bytes already in memory in
// place, computes the stream CRC in one pass at the footer, and ORs the
// image into an existing store (how ingest::Session::Load composes the
// shards it has read and checked without a store per shard). Both report
// the same error, kind and offset for the same bytes. No allocation is
// sized from the header's block count, so a forged header fails as a
// typed error at the first missing byte. The encoder writes through one
// reused record buffer and refuses a non-empty row on an uncovered day —
// the decoder would reject the stream it wrote.
//
// Error handling comes in two flavors:
//   * TryLoadStore/TryMergeStore/TrySaveStore return
//     ipscope::Result<..., StoreError> — a typed error with kind +
//     absolute byte offset, never throwing on bad input.
//   * SaveStore/LoadStore/LoadStoreFile keep the classic throwing API
//     (std::runtime_error whose message is StoreError::ToString(), which
//     includes the kind and offset).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "activity/store.h"
#include "io/result.h"
#include "io/store_error.h"

namespace ipscope::io {

struct LoadOptions {
  // When true, a truncated or corrupt block stops the load but the intact
  // prefix is returned (stats.complete = false, stats.error set) instead
  // of the whole load failing. Header corruption is never salvageable:
  // without trustworthy dimensions nothing can be decoded.
  bool salvage = false;
};

struct LoadStats {
  std::uint64_t blocks_expected = 0; // from the header
  std::uint64_t blocks_loaded = 0;
  // Blocks recovered by a salvage load that hit an error; 0 on clean loads.
  std::uint64_t blocks_salvaged = 0;
  bool complete = true;
  // The error salvage stopped at (set iff !complete).
  std::optional<StoreError> error;
  // The whole-stream CRC the decoder verified: over every byte but the
  // trailing 4 that store it, so Crc32cExtend(stream_crc, last 4 bytes)
  // is the whole image's CRC. Set on a complete decode.
  std::uint32_t stream_crc = 0;
};

struct LoadResult {
  activity::ActivityStore store;
  LoadStats stats;
};

// Serializes `store`, coverage mask included, and returns the bytes
// written. Errors: kMalformed when a block has a non-empty row on a day
// the store does not cover, kWriteFailed when `os` fails. On error `os`
// may hold a partial image, which the caller must discard.
[[nodiscard]] Result<std::uint64_t, StoreError> TrySaveStore(
    const activity::ActivityStore& store, std::ostream& os);

// Throwing TrySaveStore: the runtime_error message is the
// StoreError::ToString() of the same error.
void SaveStore(const activity::ActivityStore& store, std::ostream& os);

// Non-throwing load.
[[nodiscard]] Result<LoadResult, StoreError> TryLoadStore(
    std::istream& is, const LoadOptions& options = {});

// Decodes one store image held in memory into `target`: its coverage
// becomes the union of both, its rows are ORed with the image's, and
// every key the image names exists in it afterwards (also a record with
// no non-empty day). Strict (no salvage), with the same checks and
// errors as TryLoadStore on the same bytes, plus kMalformed when the
// image's day count differs from target.days(). Reads nothing outside
// `bytes`. On error `target` holds a partial merge and should be
// discarded. Of the load metrics it records only the shared block-loop
// span (io.store.load.blocks_seconds); the caller owns the rest.
[[nodiscard]] Result<LoadStats, StoreError> TryMergeStore(
    std::string_view bytes, activity::ActivityStore& target);

// Throwing load (strict: salvage disabled). The runtime_error message is
// StoreError::ToString(), i.e. includes kind and absolute byte offset.
activity::ActivityStore LoadStore(std::istream& is);

// File-path conveniences (binary mode). Open failures report
// errno/strerror detail; the Try variant returns them as
// StoreErrorKind::kOpenFailed.
void SaveStoreFile(const activity::ActivityStore& store,
                   const std::string& path);
[[nodiscard]] Result<LoadResult, StoreError> TryLoadStoreFile(
    const std::string& path, const LoadOptions& options = {});
activity::ActivityStore LoadStoreFile(const std::string& path);

}  // namespace ipscope::io
