#include "io/store_io.h"

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "io/atomic_file.h"
#include "io/crc32c.h"
#include "obs/registry.h"
#include "obs/timer.h"

namespace ipscope::io {

namespace {

constexpr char kMagic[8] = {'I', 'P', 'S', 'C', 'O', 'P', 'E', '2'};
constexpr char kFooterMagic[4] = {'E', 'N', 'D', '2'};
constexpr std::uint32_t kMaxDays = 4096;
constexpr std::uint64_t kMaxBlocks = std::uint64_t{1} << 24;
// One non-empty day in a block record: u16 index + 4 x u64 bitmap words.
constexpr std::size_t kDayRecordBytes = 2 + 4 * 8;

// All simulation targets are little-endian in practice; the explicit
// byte-wise encoders below keep the format portable regardless.
template <typename T>
void AppendInt(std::string& buf, T value) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    buf.push_back(static_cast<char>((value >> (8 * i)) & 0xFF));
  }
}

template <typename T>
T ParseInt(const char* bytes) {
  T value = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    value |= static_cast<T>(static_cast<unsigned char>(bytes[i])) << (8 * i);
  }
  return value;
}

// One block record: key, non-empty day count, then each non-empty day's
// index + bitmap.
void AppendBlockRecord(std::string& buf, net::BlockKey key,
                       const activity::ActivityMatrix& m) {
  AppendInt<std::uint32_t>(buf, key);
  std::uint32_t nonzero = 0;
  for (int d = 0; d < m.days(); ++d) {
    const activity::DayBits& row = m.Row(d);
    if ((row[0] | row[1] | row[2] | row[3]) != 0) ++nonzero;
  }
  AppendInt<std::uint32_t>(buf, nonzero);
  for (int d = 0; d < m.days(); ++d) {
    const activity::DayBits& row = m.Row(d);
    if ((row[0] | row[1] | row[2] | row[3]) == 0) continue;
    AppendInt<std::uint16_t>(buf, static_cast<std::uint16_t>(d));
    for (std::uint64_t word : row) AppendInt<std::uint64_t>(buf, word);
  }
}

// Offset-tracking input cursor. `offset` counts successfully consumed
// bytes (so it is the absolute position of the next unread byte), and
// `stream_crc` accumulates CRC32C over everything consumed — which is
// exactly what the footer checksum covers.
struct Reader {
  std::istream& is;
  std::uint64_t offset = 0;
  std::uint32_t stream_crc = kCrc32cInit;

  bool Read(char* buf, std::size_t n) {
    is.read(buf, static_cast<std::streamsize>(n));
    if (static_cast<std::size_t>(is.gcount()) != n) return false;
    stream_crc = Crc32cExtend(stream_crc, buf, n);
    offset += n;
    return true;
  }

  template <typename T>
  bool ReadInt(T* out) {
    char buf[sizeof(T)];
    if (!Read(buf, sizeof(T))) return false;
    *out = ParseInt<T>(buf);
    return true;
  }

  // Where the input actually ended relative to the stream start — offset
  // of the last successfully consumed byte plus whatever a failed partial
  // read managed to pull.
  std::uint64_t FailurePosition() const {
    return offset + static_cast<std::uint64_t>(is.gcount());
  }
};

StoreError Truncated(const Reader& r, const std::string& what) {
  return StoreError{StoreErrorKind::kTruncated, r.FailurePosition(),
                    "truncated input while reading " + what};
}

StoreError Malformed(std::uint64_t offset, std::string message) {
  return StoreError{StoreErrorKind::kMalformed, offset, std::move(message)};
}

// Shared loader state: a header-validated store plus running stats.
// `Fail` implements the salvage policy in one place — return the intact
// prefix when salvaging, the error otherwise.
struct LoadContext {
  activity::ActivityStore store;
  LoadStats stats;
  bool salvage = false;

  Result<LoadResult, StoreError> Fail(StoreError error) {
    if (!salvage) return error;
    stats.complete = false;
    stats.blocks_salvaged = stats.blocks_loaded;
    stats.error = std::move(error);
    return LoadResult{std::move(store), std::move(stats)};
  }
  Result<LoadResult, StoreError> Finish() {
    return LoadResult{std::move(store), std::move(stats)};
  }
};

// Validates and applies one decoded block record. Returns
// std::nullopt on success, the error otherwise. `base` is the absolute
// offset of the record's first byte, for error reporting.
std::optional<StoreError> ApplyBlockRecord(LoadContext& ctx, const char* rec,
                                           std::uint32_t days,
                                           std::uint64_t prev_key, bool first,
                                           std::uint64_t base) {
  auto key = ParseInt<std::uint32_t>(rec);
  auto nonzero = ParseInt<std::uint32_t>(rec + 4);
  if (key >= (1u << 24)) {
    return Malformed(base, "block key " + std::to_string(key) +
                               " out of /24 keyspace");
  }
  if (!first && key <= prev_key) {
    return Malformed(base, "block keys out of order (" +
                               std::to_string(key) + " after " +
                               std::to_string(prev_key) + ")");
  }
  activity::ActivityMatrix& m = ctx.store.GetOrCreate(key);
  int prev_day = -1;
  const char* p = rec + 8;
  for (std::uint32_t i = 0; i < nonzero; ++i) {
    std::uint64_t day_off = base + 8 + i * kDayRecordBytes;
    auto day = ParseInt<std::uint16_t>(p);
    if (day >= days || static_cast<int>(day) <= prev_day) {
      return Malformed(day_off, "invalid day index " + std::to_string(day));
    }
    if (!ctx.store.DayCovered(day)) {
      return Malformed(day_off, "activity recorded on uncovered day " +
                                    std::to_string(day));
    }
    prev_day = day;
    activity::DayBits& row = m.Row(day);
    p += 2;
    for (auto& word : row) {
      word = ParseInt<std::uint64_t>(p);
      p += 8;
    }
  }
  return std::nullopt;
}

Result<LoadResult, StoreError> LoadBody(Reader& r, const LoadOptions& options) {
  // Header (magic already consumed by TryLoadStore, and already folded
  // into r.stream_crc). The header carries its own CRC so that corrupted
  // dimensions are caught before they can misdirect the rest of the parse;
  // a bad header is never salvageable.
  std::uint32_t days = 0;
  if (!r.ReadInt(&days)) return Truncated(r, "day count");
  if (days == 0 || days > kMaxDays) {
    return Malformed(r.offset - 4,
                     "implausible day count " + std::to_string(days));
  }
  std::uint64_t blocks = 0;
  if (!r.ReadInt(&blocks)) return Truncated(r, "block count");
  if (blocks > kMaxBlocks) {
    return Malformed(r.offset - 8,
                     "implausible block count " + std::to_string(blocks));
  }
  std::string coverage((days + 7) / 8, '\0');
  if (!r.Read(coverage.data(), coverage.size())) {
    return Truncated(r, "coverage bitmap");
  }
  std::uint32_t header_crc_expected = r.stream_crc;  // covers magic..bitmap
  std::uint32_t header_crc = 0;
  if (!r.ReadInt(&header_crc)) return Truncated(r, "header checksum");
  if (header_crc != header_crc_expected) {
    return StoreError{StoreErrorKind::kChecksumMismatch, r.offset - 4,
                      "header checksum mismatch"};
  }

  LoadContext ctx{activity::ActivityStore{static_cast<int>(days)},
                  LoadStats{}, options.salvage};
  ctx.stats.blocks_expected = blocks;
  for (std::uint32_t d = 0; d < days; ++d) {
    bool covered = (static_cast<unsigned char>(coverage[d / 8]) >> (d % 8)) & 1;
    if (!covered) ctx.store.SetDayCovered(static_cast<int>(d), false);
  }

  std::uint64_t prev_key = 0;
  bool first = true;
  std::string rec;
  {
    // Sub-span: the block loop dominates load time; the header and footer
    // are a few dozen bytes each, so this is the phase worth attributing.
    obs::Span blocks_span{"io.store.load.blocks_seconds"};
    for (std::uint64_t b = 0; b < blocks; ++b) {
      std::uint64_t base = r.offset;
      rec.resize(8);
      if (!r.Read(rec.data(), 8)) {
        return ctx.Fail(Truncated(r, "block header"));
      }
      auto nonzero = ParseInt<std::uint32_t>(rec.data() + 4);
      if (nonzero > days) {
        return ctx.Fail(Malformed(
            base + 4, "day list length " + std::to_string(nonzero) +
                          " exceeds day count " + std::to_string(days)));
      }
      rec.resize(8 + nonzero * kDayRecordBytes);
      if (!r.Read(rec.data() + 8, rec.size() - 8)) {
        return ctx.Fail(Truncated(r, "block payload"));
      }
      std::uint32_t block_crc = 0;
      if (!r.ReadInt(&block_crc)) {
        return ctx.Fail(Truncated(r, "block checksum"));
      }
      if (block_crc != Crc32c(rec.data(), rec.size())) {
        return ctx.Fail(StoreError{
            StoreErrorKind::kChecksumMismatch, base,
            "block " + std::to_string(b) + " checksum mismatch"});
      }
      if (auto err = ApplyBlockRecord(ctx, rec.data(), days, prev_key, first,
                                      base)) {
        return ctx.Fail(std::move(*err));
      }
      prev_key = ParseInt<std::uint32_t>(rec.data());
      first = false;
      ++ctx.stats.blocks_loaded;
    }
  }

  // Footer: magic + block-count echo, then the whole-stream CRC over every
  // preceding byte. A failure here with salvage on keeps the blocks — each
  // was individually checksummed, so they are intact even if the tail of
  // the file is not.
  char footer[12];
  std::uint64_t footer_base = r.offset;
  if (!r.Read(footer, sizeof(footer))) return ctx.Fail(Truncated(r, "footer"));
  if (std::memcmp(footer, kFooterMagic, sizeof(kFooterMagic)) != 0) {
    return ctx.Fail(Malformed(footer_base, "bad footer magic"));
  }
  auto echo = ParseInt<std::uint64_t>(footer + 4);
  if (echo != blocks) {
    return ctx.Fail(Malformed(
        footer_base + 4, "footer block count " + std::to_string(echo) +
                             " does not match header " +
                             std::to_string(blocks)));
  }
  std::uint32_t stream_crc_expected = r.stream_crc;
  std::uint32_t stream_crc = 0;
  if (!r.ReadInt(&stream_crc)) return ctx.Fail(Truncated(r, "stream checksum"));
  if (stream_crc != stream_crc_expected) {
    return ctx.Fail(StoreError{StoreErrorKind::kChecksumMismatch,
                               r.offset - 4, "stream checksum mismatch"});
  }
  return ctx.Finish();
}

}  // namespace

void SaveStore(const activity::ActivityStore& store, std::ostream& os) {
  obs::Span span{"io.store.save_seconds"};
  std::uint64_t bytes_written = 0;
  std::uint32_t stream_crc = kCrc32cInit;
  auto emit = [&](const std::string& buf) {
    os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    stream_crc = Crc32cExtend(stream_crc, buf.data(), buf.size());
    bytes_written += buf.size();
  };

  {
    obs::Span header_span{"io.store.save.header_seconds"};
    std::string buf;
    buf.append(kMagic, sizeof(kMagic));
    AppendInt<std::uint32_t>(buf, static_cast<std::uint32_t>(store.days()));
    AppendInt<std::uint64_t>(buf, store.BlockCount());
    std::string coverage((static_cast<std::size_t>(store.days()) + 7) / 8,
                         '\0');
    for (int d = 0; d < store.days(); ++d) {
      if (store.DayCovered(d)) {
        coverage[static_cast<std::size_t>(d / 8)] |=
            static_cast<char>(1 << (d % 8));
      }
    }
    buf += coverage;
    AppendInt<std::uint32_t>(buf, Crc32c(buf.data(), buf.size()));
    emit(buf);
  }

  {
    obs::Span blocks_span{"io.store.save.blocks_seconds"};
    std::string buf;
    store.ForEach([&](net::BlockKey key, const activity::ActivityMatrix& m) {
      buf.clear();
      AppendBlockRecord(buf, key, m);
      AppendInt<std::uint32_t>(buf, Crc32c(buf.data(), buf.size()));
      emit(buf);
    });
  }

  {
    obs::Span footer_span{"io.store.save.footer_seconds"};
    std::string buf;
    buf.append(kFooterMagic, sizeof(kFooterMagic));
    AppendInt<std::uint64_t>(buf, store.BlockCount());
    emit(buf);  // folds the footer magic + echo into the stream CRC
    buf.clear();
    AppendInt<std::uint32_t>(buf, stream_crc);
    os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    bytes_written += buf.size();
  }
  if (!os) {
    throw std::runtime_error(
        StoreError{StoreErrorKind::kWriteFailed, bytes_written, "write failed"}
            .ToString());
  }

  double seconds = std::max(span.Stop(), 1e-9);
  auto& registry = obs::GlobalRegistry();
  registry.GetCounter("io.store.saves").Add(1);
  registry.GetCounter("io.store.save_bytes").Add(bytes_written);
  registry.GetGauge("io.store.save_mb_per_s")
      .Set(static_cast<double>(bytes_written) / 1e6 / seconds);
}

Result<LoadResult, StoreError> TryLoadStore(std::istream& is,
                                            const LoadOptions& options) {
  obs::Span span{"io.store.load_seconds"};
  Reader r{is};
  char magic[8];
  if (!r.Read(magic, sizeof(magic))) {
    return Truncated(r, "magic");
  }
  Result<LoadResult, StoreError> result =
      std::memcmp(magic, kMagic, sizeof(magic)) == 0
          ? LoadBody(r, options)
          : Result<LoadResult, StoreError>{StoreError{
                StoreErrorKind::kBadMagic, 0,
                "bad magic (not a store file?)"}};

  double seconds = std::max(span.Stop(), 1e-9);
  auto& registry = obs::GlobalRegistry();
  if (result.ok()) {
    const LoadStats& stats = result.value().stats;
    registry.GetCounter("io.store.loads").Add(1);
    registry.GetCounter("io.store.load_bytes").Add(r.offset);
    registry.GetGauge("io.store.load_mb_per_s")
        .Set(static_cast<double>(r.offset) / 1e6 / seconds);
    if (!stats.complete) {
      registry.GetCounter("io.store.salvaged_loads").Add(1);
      registry.GetCounter("io.store.blocks_salvaged")
          .Add(stats.blocks_salvaged);
    }
    registry.GetGauge("activity.days_missing")
        .Set(static_cast<double>(result.value().store.MissingDays()));
  } else {
    registry.GetCounter("io.store.load_errors").Add(1);
  }
  return result;
}

activity::ActivityStore LoadStore(std::istream& is) {
  auto result = TryLoadStore(is);
  if (!result.ok()) throw std::runtime_error(result.error().ToString());
  return std::move(result).value().store;
}

void SaveStoreFile(const activity::ActivityStore& store,
                   const std::string& path) {
  // Serialize in memory, then commit through the atomic temp+rename path:
  // a killed or failing process never leaves a truncated store under the
  // final name, and flush/fsync/close results are all checked (an ENOSPC
  // that only surfaces at close used to be reported as success here).
  std::ostringstream buffer{std::ios::binary};
  SaveStore(store, buffer);
  if (auto error = WriteFileAtomic(path, buffer.view())) {
    obs::GlobalRegistry().GetCounter("io.store.save_errors").Add(1);
    throw std::runtime_error(
        StoreError{StoreErrorKind::kWriteFailed, 0, *error}.ToString());
  }
}

Result<LoadResult, StoreError> TryLoadStoreFile(const std::string& path,
                                                const LoadOptions& options) {
  std::ifstream is{path, std::ios::binary};
  if (!is) {
    const int err = errno;
    return StoreError{StoreErrorKind::kOpenFailed, 0,
                      "cannot open for reading: " + path + " (" +
                          std::strerror(err) + ")"};
  }
  return TryLoadStore(is, options);
}

activity::ActivityStore LoadStoreFile(const std::string& path) {
  auto result = TryLoadStoreFile(path);
  if (!result.ok()) throw std::runtime_error(result.error().ToString());
  return std::move(result).value().store;
}

}  // namespace ipscope::io
