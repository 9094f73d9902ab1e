#include "io/store_io.h"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string_view>
#include <utility>
#include <vector>

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
// A block record starts with u32 key + u32 non-empty day count and ends
// with its u32 CRC; each non-empty day is u16 index + 4 x u64 bitmap words.
constexpr std::size_t kBlockHeadBytes = 8;
constexpr std::size_t kDayRecordBytes = 2 + 4 * 8;

static_assert(std::endian::native == std::endian::little ||
                  std::endian::native == std::endian::big,
              "mixed-endian hosts are not supported");

// Little-endian fixed-width fields: one memcpy on little-endian hosts, a
// byte loop on big-endian ones, chosen at compile time.
template <typename T>
void PutLE(char* p, T value) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &value, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      p[i] = static_cast<char>((value >> (8 * i)) & 0xFF);
    }
  }
}

template <typename T>
T GetLE(const char* p) {
  T value = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&value, p, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      value |= static_cast<T>(static_cast<unsigned char>(p[i])) << (8 * i);
    }
  }
  return value;
}

bool NonEmpty(const activity::DayBits& row) {
  return (row[0] | row[1] | row[2] | row[3]) != 0;
}

StoreError Malformed(std::uint64_t offset, std::string message) {
  return StoreError{StoreErrorKind::kMalformed, offset, std::move(message)};
}

// Encodes one block record — key, non-empty day count, day records, block
// CRC — into `rec`, which has room for a record with every day non-empty,
// and returns its length. A non-empty row on a day `store` does not cover
// is an error (the decoder would reject the record); `base` is the
// record's absolute stream offset, for that error.
Result<std::size_t, StoreError> EncodeBlock(
    char* rec, net::BlockKey key, const activity::ActivityMatrix& m,
    const activity::ActivityStore& store, std::uint64_t base) {
  PutLE<std::uint32_t>(rec, key);
  char* p = rec + kBlockHeadBytes;
  for (int d = 0; d < m.days(); ++d) {
    const activity::DayBits& row = m.Row(d);
    if (!NonEmpty(row)) continue;
    if (!store.DayCovered(d)) {
      return Malformed(base + static_cast<std::uint64_t>(p - rec),
                       "block " + std::to_string(key) +
                           ": activity recorded on uncovered day " +
                           std::to_string(d));
    }
    PutLE<std::uint16_t>(p, static_cast<std::uint16_t>(d));
    for (std::size_t w = 0; w < row.size(); ++w) {
      PutLE<std::uint64_t>(p + 2 + 8 * w, row[w]);
    }
    p += kDayRecordBytes;
  }
  const auto body = static_cast<std::size_t>(p - rec);
  PutLE<std::uint32_t>(
      rec + 4,
      static_cast<std::uint32_t>((body - kBlockHeadBytes) / kDayRecordBytes));
  PutLE<std::uint32_t>(p, Crc32c(rec, body));
  return body + 4;
}

// The decoder's two byte sources. Both track `offset`, the count of
// consumed bytes (so the absolute position of the next unread byte), and
// hand out input through Take(n), the next n bytes, and Grow(n), which
// extends the latest Take by the n bytes after it and returns the start
// of the whole run. A returned pointer stays valid until the next call.
// Both return nullptr on a short input, with Partial() the bytes that
// remained; StreamCrc() is the CRC32C of everything consumed so far,
// which is exactly what the header and footer checksums cover.

// Streams from an istream through one reused record buffer. Reads go
// straight to the stream buffer (a record is two reads, so
// istream::read's per-call sentry showed in shard composition) and
// extend the stream CRC as they go; a short read marks the istream
// eof|fail as istream::read would.
class StreamSource {
 public:
  explicit StreamSource(std::istream& stream)
      : is_(stream), sb_(stream.good() ? stream.rdbuf() : nullptr) {}

  std::uint64_t offset = 0;

  const char* Take(std::size_t n) {
    held_ = 0;
    return Grow(n);
  }

  const char* Grow(std::size_t n) {
    if (buf_.size() < held_ + n) buf_.resize(held_ + n);
    char* out = buf_.data() + held_;
    last_read_ = sb_ == nullptr ? 0
                                : static_cast<std::size_t>(sb_->sgetn(
                                      out, static_cast<std::streamsize>(n)));
    if (last_read_ != n) {
      is_.setstate(std::ios::eofbit | std::ios::failbit);
      return nullptr;
    }
    stream_crc_ = Crc32cExtend(stream_crc_, out, n);
    offset += n;
    held_ += n;
    return buf_.data();
  }

  std::uint64_t Partial() const { return last_read_; }
  std::uint32_t StreamCrc() const { return stream_crc_; }

 private:
  std::istream& is_;
  std::streambuf* sb_;
  std::vector<char> buf_;
  std::size_t held_ = 0;       // bytes of buf_ the latest Take/Grow hold
  std::size_t last_read_ = 0;  // bytes the latest read obtained
  std::uint32_t stream_crc_ = kCrc32cInit;
};

// Decodes bytes already in memory: Take and Grow bump a pointer, and the
// stream CRC is one call over the consumed prefix when asked for.
class SpanSource {
 public:
  explicit SpanSource(std::string_view bytes) : bytes_(bytes) {}

  std::uint64_t offset = 0;

  const char* Take(std::size_t n) {
    start_ = static_cast<std::size_t>(offset);
    return Grow(n);
  }

  const char* Grow(std::size_t n) {
    const std::size_t left = bytes_.size() - static_cast<std::size_t>(offset);
    if (left < n) {
      last_read_ = left;
      return nullptr;
    }
    offset += n;
    return bytes_.data() + start_;
  }

  std::uint64_t Partial() const { return last_read_; }
  std::uint32_t StreamCrc() const {
    return Crc32c(bytes_.data(), static_cast<std::size_t>(offset));
  }

 private:
  std::string_view bytes_;
  std::size_t start_ = 0;      // offset of the latest Take
  std::size_t last_read_ = 0;  // bytes left when the latest read fell short
};

template <typename T, typename Source>
bool ReadInt(Source& r, T* out) {
  const char* p = r.Take(sizeof(T));
  if (p == nullptr) return false;
  *out = GetLE<T>(p);
  return true;
}

// Where the input actually ended: the consumed bytes plus what a failed
// read managed to see.
template <typename Source>
StoreError Truncated(const Source& r, const std::string& what) {
  return StoreError{StoreErrorKind::kTruncated, r.offset + r.Partial(),
                    "truncated input while reading " + what};
}

bool BitSet(const char* bitmap, std::uint32_t i) {
  return (static_cast<unsigned char>(bitmap[i / 8]) >> (i % 8)) & 1u;
}

// Structural checks on a CRC-verified block record: key in the /24
// keyspace and ascending, day indices in range, ascending and covered.
// Runs before OrRecord applies the record, so a rejected record is never
// half-applied. `base` is the record's absolute offset. This and
// OrRecord run once per record; inlined into the decode loop they cost
// about a sixth less per composed shard set.
[[gnu::always_inline]] inline std::optional<StoreError> CheckBlock(
    const char* rec, std::uint32_t count, std::uint32_t days,
    const char* coverage, const std::uint32_t* prev_key,
    std::uint64_t base) {
  const auto key = GetLE<std::uint32_t>(rec);
  if (key >= (1u << 24)) {
    return Malformed(base, "block key " + std::to_string(key) +
                               " out of /24 keyspace");
  }
  if (prev_key != nullptr && key <= *prev_key) {
    return Malformed(base, "block keys out of order (" +
                               std::to_string(key) + " after " +
                               std::to_string(*prev_key) + ")");
  }
  int prev_day = -1;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::size_t at = kBlockHeadBytes + i * kDayRecordBytes;
    const auto day = GetLE<std::uint16_t>(rec + at);
    if (day >= days || static_cast<int>(day) <= prev_day) {
      return Malformed(base + at, "invalid day index " + std::to_string(day));
    }
    if (!BitSet(coverage, day)) {
      return Malformed(base + at, "activity recorded on uncovered day " +
                                      std::to_string(day));
    }
    prev_day = day;
  }
  return std::nullopt;
}

// ORs a checked block record's rows into `store`, creating the block's
// matrix if absent (also when the record has no non-empty day). The
// decoder has checked that keys ascend, so with one `*cursor` per stream
// the placement is a single merge walk over the store.
[[gnu::always_inline]] inline void OrRecord(activity::ActivityStore& store,
                                            std::size_t* cursor,
                                            const char* rec,
                                            std::uint32_t count) {
  activity::ActivityMatrix& m =
      store.GetOrCreateFrom(cursor, GetLE<std::uint32_t>(rec));
  const char* p = rec + kBlockHeadBytes;
  for (std::uint32_t i = 0; i < count; ++i, p += kDayRecordBytes) {
    activity::DayBits& row = m.Row(GetLE<std::uint16_t>(p));
    for (std::size_t w = 0; w < row.size(); ++w) {
      row[w] |= GetLE<std::uint64_t>(p + 2 + 8 * w);
    }
  }
}

// The one IPSCOPE2 decoder, over either byte source. Its sink is
// `begin(days, coverage)`, called once the header CRC matched; it returns
// the store to OR the stream into (or an error). Every block record then
// passes its CRC and every structural check before OrRecord applies it.
// Returns std::nullopt on a clean decode, else the first error;
// `*header_ok` tells the caller whether the error came after a verified
// header (the salvage boundary). Nothing is sized from the header's block
// count: a StreamSource holds one record, sized from its own day count.
template <typename Source, typename Begin>
std::optional<StoreError> Decode(Source& r, Begin&& begin, LoadStats& stats,
                                 bool* header_ok) {
  const char* magic = r.Take(sizeof(kMagic));
  if (magic == nullptr) return Truncated(r, "magic");
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return StoreError{StoreErrorKind::kBadMagic, 0,
                      "bad magic (not a store file?)"};
  }
  // The header carries its own CRC so that corrupted dimensions are caught
  // before they can misdirect the rest of the parse.
  std::uint32_t days = 0;
  if (!ReadInt(r, &days)) return Truncated(r, "day count");
  if (days == 0 || days > kMaxDays) {
    return Malformed(r.offset - 4,
                     "implausible day count " + std::to_string(days));
  }
  std::uint64_t blocks = 0;
  if (!ReadInt(r, &blocks)) return Truncated(r, "block count");
  if (blocks > kMaxBlocks) {
    return Malformed(r.offset - 8,
                     "implausible block count " + std::to_string(blocks));
  }
  char coverage[kMaxDays / 8];
  const char* coverage_in = r.Take((days + 7) / 8);
  if (coverage_in == nullptr) return Truncated(r, "coverage bitmap");
  std::memcpy(coverage, coverage_in, (days + 7) / 8);
  const std::uint32_t header_crc_expected = r.StreamCrc();
  std::uint32_t header_crc = 0;
  if (!ReadInt(r, &header_crc)) return Truncated(r, "header checksum");
  if (header_crc != header_crc_expected) {
    return StoreError{StoreErrorKind::kChecksumMismatch, r.offset - 4,
                      "header checksum mismatch"};
  }
  Result<activity::ActivityStore*, StoreError> into = begin(days, coverage);
  if (!into.ok()) return into.error();
  activity::ActivityStore& store = *into.value();
  *header_ok = true;
  stats.blocks_expected = blocks;

  {
    // Sub-span: the block loop dominates load time; the header and footer
    // are a few dozen bytes each, so this is the phase worth attributing.
    obs::Span blocks_span{"io.store.load.blocks_seconds"};
    std::uint32_t prev_key = 0;
    std::size_t cursor = 0;
    for (std::uint64_t b = 0; b < blocks; ++b) {
      const std::uint64_t base = r.offset;
      const char* rec = r.Take(kBlockHeadBytes);
      if (rec == nullptr) return Truncated(r, "block header");
      const auto count = GetLE<std::uint32_t>(rec + 4);
      if (count > days) {
        return Malformed(base + 4, "day list length " +
                                       std::to_string(count) +
                                       " exceeds day count " +
                                       std::to_string(days));
      }
      // Payload and block CRC in one read; a short read still reports
      // which of the two fields ran out, at the exact byte.
      const std::size_t payload = count * kDayRecordBytes;
      const std::size_t body = kBlockHeadBytes + payload;
      rec = r.Grow(payload + 4);
      if (rec == nullptr) {
        return Truncated(
            r, r.Partial() < payload ? "block payload" : "block checksum");
      }
      if (GetLE<std::uint32_t>(rec + body) != Crc32c(rec, body)) {
        return StoreError{StoreErrorKind::kChecksumMismatch, base,
                          "block " + std::to_string(b) + " checksum mismatch"};
      }
      if (auto error = CheckBlock(rec, count, days, coverage,
                                  b == 0 ? nullptr : &prev_key, base)) {
        return error;
      }
      OrRecord(store, &cursor, rec, count);
      prev_key = GetLE<std::uint32_t>(rec);
      ++stats.blocks_loaded;
    }
  }

  // Footer: magic + block-count echo, then the whole-stream CRC over every
  // preceding byte. A failure here with salvage on keeps the blocks — each
  // was individually checksummed, so they are intact even if the tail of
  // the file is not.
  const std::uint64_t footer_base = r.offset;
  const char* footer = r.Take(sizeof(kFooterMagic) + 8);
  if (footer == nullptr) return Truncated(r, "footer");
  if (std::memcmp(footer, kFooterMagic, sizeof(kFooterMagic)) != 0) {
    return Malformed(footer_base, "bad footer magic");
  }
  const auto echo = GetLE<std::uint64_t>(footer + sizeof(kFooterMagic));
  if (echo != blocks) {
    return Malformed(footer_base + sizeof(kFooterMagic),
                     "footer block count " + std::to_string(echo) +
                         " does not match header " + std::to_string(blocks));
  }
  const std::uint32_t stream_crc_expected = r.StreamCrc();
  std::uint32_t stream_crc = 0;
  if (!ReadInt(r, &stream_crc)) return Truncated(r, "stream checksum");
  if (stream_crc != stream_crc_expected) {
    return StoreError{StoreErrorKind::kChecksumMismatch, r.offset - 4,
                      "stream checksum mismatch"};
  }
  stats.stream_crc = stream_crc;
  return std::nullopt;
}

}  // namespace

Result<std::uint64_t, StoreError> TrySaveStore(
    const activity::ActivityStore& store, std::ostream& os) {
  obs::Span span{"io.store.save_seconds"};
  const auto days = static_cast<std::size_t>(store.days());
  const std::size_t coverage_bytes = (days + 7) / 8;
  // One reused buffer, large enough for the header and for a block record
  // with every day non-empty.
  std::vector<char> buf(std::max(sizeof(kMagic) + 4 + 8 + coverage_bytes + 4,
                                 kBlockHeadBytes + days * kDayRecordBytes + 4));
  std::uint64_t bytes_written = 0;
  std::uint32_t stream_crc = kCrc32cInit;
  auto emit = [&](const char* p, std::size_t n) {
    os.write(p, static_cast<std::streamsize>(n));
    stream_crc = Crc32cExtend(stream_crc, p, n);
    bytes_written += n;
  };

  {
    obs::Span header_span{"io.store.save.header_seconds"};
    char* p = buf.data();
    std::memcpy(p, kMagic, sizeof(kMagic));
    PutLE<std::uint32_t>(p + 8, static_cast<std::uint32_t>(days));
    PutLE<std::uint64_t>(p + 12, store.BlockCount());
    char* coverage = p + 20;
    std::memset(coverage, 0, coverage_bytes);
    for (std::size_t d = 0; d < days; ++d) {
      if (store.DayCovered(static_cast<int>(d))) {
        coverage[d / 8] = static_cast<char>(coverage[d / 8] | (1 << (d % 8)));
      }
    }
    const std::size_t n = 20 + coverage_bytes;
    PutLE<std::uint32_t>(p + n, Crc32c(p, n));
    emit(p, n + 4);
  }

  {
    obs::Span blocks_span{"io.store.save.blocks_seconds"};
    for (std::size_t i = 0; i < store.BlockCount(); ++i) {
      auto n = EncodeBlock(buf.data(), store.KeyAt(i), store.MatrixAt(i),
                           store, bytes_written);
      if (!n.ok()) return n.error();
      emit(buf.data(), n.value());
    }
  }

  {
    obs::Span footer_span{"io.store.save.footer_seconds"};
    char* p = buf.data();
    std::memcpy(p, kFooterMagic, sizeof(kFooterMagic));
    PutLE<std::uint64_t>(p + sizeof(kFooterMagic), store.BlockCount());
    emit(p, sizeof(kFooterMagic) + 8);  // folds magic + echo into the CRC
    PutLE<std::uint32_t>(p, stream_crc);
    os.write(p, 4);
    bytes_written += 4;
  }
  if (!os) {
    return StoreError{StoreErrorKind::kWriteFailed, bytes_written,
                      "write failed"};
  }

  double seconds = std::max(span.Stop(), 1e-9);
  auto& registry = obs::GlobalRegistry();
  registry.GetCounter("io.store.saves").Add(1);
  registry.GetCounter("io.store.save_bytes").Add(bytes_written);
  registry.GetGauge("io.store.save_mb_per_s")
      .Set(static_cast<double>(bytes_written) / 1e6 / seconds);
  return bytes_written;
}

void SaveStore(const activity::ActivityStore& store, std::ostream& os) {
  auto result = TrySaveStore(store, os);
  if (!result.ok()) throw std::runtime_error(result.error().ToString());
}

Result<LoadResult, StoreError> TryLoadStore(std::istream& is,
                                            const LoadOptions& options) {
  obs::Span span{"io.store.load_seconds"};
  StreamSource r{is};
  activity::ActivityStore store{1};
  auto begin = [&store](std::uint32_t days, const char* coverage)
      -> Result<activity::ActivityStore*, StoreError> {
    store = activity::ActivityStore{static_cast<int>(days)};
    for (std::uint32_t d = 0; d < days; ++d) {
      if (!BitSet(coverage, d)) store.SetDayCovered(static_cast<int>(d), false);
    }
    return &store;
  };
  LoadStats stats;
  bool header_ok = false;
  std::optional<StoreError> error = Decode(r, begin, stats, &header_ok);
  // Salvage keeps the verified prefix; a bad header is never salvageable,
  // since without trustworthy dimensions nothing was decoded.
  if (error && options.salvage && header_ok) {
    stats.complete = false;
    stats.blocks_salvaged = stats.blocks_loaded;
    stats.error = std::exchange(error, std::nullopt);
  }

  double seconds = std::max(span.Stop(), 1e-9);
  auto& registry = obs::GlobalRegistry();
  if (error) {
    registry.GetCounter("io.store.load_errors").Add(1);
    return std::move(*error);
  }
  registry.GetCounter("io.store.loads").Add(1);
  registry.GetCounter("io.store.load_bytes").Add(r.offset);
  registry.GetGauge("io.store.load_mb_per_s")
      .Set(static_cast<double>(r.offset) / 1e6 / seconds);
  if (!stats.complete) {
    registry.GetCounter("io.store.salvaged_loads").Add(1);
    registry.GetCounter("io.store.blocks_salvaged").Add(stats.blocks_salvaged);
  }
  registry.GetGauge("activity.days_missing")
      .Set(static_cast<double>(store.MissingDays()));
  return LoadResult{std::move(store), std::move(stats)};
}

Result<LoadStats, StoreError> TryMergeStore(std::string_view bytes,
                                            activity::ActivityStore& target) {
  SpanSource r{bytes};
  // Marking a day covered never clears rows, so the coverage union can be
  // applied before any row is ORed.
  auto begin = [&target](std::uint32_t days, const char* coverage)
      -> Result<activity::ActivityStore*, StoreError> {
    if (static_cast<int>(days) != target.days()) {
      return Malformed(sizeof(kMagic),
                       "stream has days=" + std::to_string(days) +
                           ", target store has days=" +
                           std::to_string(target.days()));
    }
    for (std::uint32_t d = 0; d < days; ++d) {
      if (BitSet(coverage, d)) target.SetDayCovered(static_cast<int>(d), true);
    }
    return &target;
  };
  LoadStats stats;
  bool header_ok = false;
  if (auto error = Decode(r, begin, stats, &header_ok)) return *error;
  return stats;
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
