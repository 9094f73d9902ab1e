#include "ingest/session.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <utility>

#include "fault/crash.h"
#include "io/atomic_file.h"
#include "io/crc32c.h"
#include "io/store_io.h"
// lint: fork(registry mutexes are leaf-scoped — locked and released
// inside each counter call, never held across user code — and chaos-crash
// forks from the single-threaded CLI before any worker thread exists)
#include "obs/registry.h"

namespace ipscope::ingest {

namespace fs = std::filesystem;

namespace {

constexpr std::string_view kManifestName = "MANIFEST";
constexpr std::string_view kShardSuffix = ".ips2";
constexpr std::string_view kQuarantineDir = "quarantine";

io::StoreError WriteError(std::string message) {
  return io::StoreError{io::StoreErrorKind::kWriteFailed, 0,
                        std::move(message)};
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

// Reads a whole file into `*out`, reusing its capacity, with one read
// sized from the file's length; returns false on any open/read failure
// (`*out` is then unspecified). A file that shrinks meanwhile reads
// short, which the callers' size and checksum checks report.
bool ReadFile(const fs::path& path, std::string* out) {
  std::ifstream is{path, std::ios::binary};
  if (!is) return false;
  std::error_code ec;
  const std::uintmax_t size = fs::file_size(path, ec);
  if (ec) return false;
  out->resize(static_cast<std::size_t>(size));
  is.read(out->data(), static_cast<std::streamsize>(out->size()));
  if (is.bad()) return false;
  out->resize(static_cast<std::size_t>(is.gcount()));
  return true;
}

// Moves `name` (relative to dir) into dir/quarantine/, deduplicating the
// target name if a previous recovery already parked one like it.
bool Quarantine(const fs::path& dir, const std::string& name,
                RecoveryReport* report) {
  std::error_code ec;
  fs::create_directories(dir / kQuarantineDir, ec);
  if (ec) return false;
  fs::path target = dir / kQuarantineDir / name;
  for (int attempt = 1; fs::exists(target, ec) && attempt < 100; ++attempt) {
    target = dir / kQuarantineDir / (name + "." + std::to_string(attempt));
  }
  fs::rename(dir / name, target, ec);
  if (ec) return false;
  report->quarantined.push_back(name);
  obs::GlobalRegistry().GetCounter("ingest.quarantined_files").Add(1);
  return true;
}

// Reads a committed shard into `*bytes` (one buffer reused across the
// shards of a pass) and checks its size against its manifest entry; the
// caller checks its CRC.
std::optional<io::StoreError> ReadShard(const fs::path& dir,
                                        const ShardEntry& entry,
                                        std::string* bytes) {
  if (!ReadFile(dir / entry.file, bytes)) {
    return io::StoreError{io::StoreErrorKind::kOpenFailed, 0,
                          "committed shard missing or unreadable: " +
                              entry.file};
  }
  if (bytes->size() != entry.bytes) {
    return io::StoreError{
        io::StoreErrorKind::kTruncated, bytes->size(),
        "shard " + entry.file + " is " + std::to_string(bytes->size()) +
            " bytes, manifest committed " + std::to_string(entry.bytes)};
  }
  return std::nullopt;
}

io::StoreError ManifestChecksumMismatch(const ShardEntry& entry) {
  return io::StoreError{io::StoreErrorKind::kChecksumMismatch, 0,
                        "shard " + entry.file +
                            " does not match its manifest checksum"};
}

// Day range + validity of a delta store's coverage mask.
struct DayRange {
  int first = -1;
  int last = -1;
};

DayRange CoveredRange(const activity::ActivityStore& store) {
  DayRange range;
  for (int d = 0; d < store.days(); ++d) {
    if (!store.DayCovered(d)) continue;
    if (range.first < 0) range.first = d;
    range.last = d;
  }
  return range;
}

}  // namespace

Result<Session, io::StoreError> Session::Open(const std::string& dir,
                                              int days) {
  auto& registry = obs::GlobalRegistry();
  registry.GetCounter("ingest.recoveries").Add(1);

  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return io::StoreError{io::StoreErrorKind::kOpenFailed, 0,
                          "cannot create store directory " + dir + ": " +
                              ec.message()};
  }

  RecoveryReport recovery;

  // Pass 1: quarantine torn temp files — a crash mid-write leaves
  // "<name>.tmp", which by protocol is never part of the store.
  std::vector<std::string> names;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    names.push_back(entry.path().filename().string());
  }
  if (ec) {
    return io::StoreError{io::StoreErrorKind::kOpenFailed, 0,
                          "cannot scan store directory " + dir + ": " +
                              ec.message()};
  }
  std::sort(names.begin(), names.end());  // deterministic recovery order
  for (const std::string& name : names) {
    if (EndsWith(name, io::kTempSuffix)) {
      Quarantine(dir, name, &recovery);
    }
  }

  // Pass 2: the manifest. Absent manifest = empty store (first open, or a
  // crash before the very first commit — any shards present are orphans).
  Manifest manifest;
  std::string manifest_text;
  if (ReadFile(fs::path(dir) / kManifestName, &manifest_text)) {
    auto parsed = ParseManifest(manifest_text);
    if (!parsed.ok()) {
      registry.GetCounter("io.manifest.errors").Add(1);
      io::StoreError error = parsed.error();
      error.message = dir + "/MANIFEST: " + error.message;
      return error;
    }
    manifest = std::move(parsed).value();
    if (days > 0 && manifest.days != days) {
      return io::StoreError{
          io::StoreErrorKind::kMalformed, 0,
          "store has days=" + std::to_string(manifest.days) +
              ", caller expected " + std::to_string(days)};
    }
  } else {
    if (days <= 0) {
      return io::StoreError{io::StoreErrorKind::kOpenFailed, 0,
                            "no manifest in " + dir +
                                " and no day count given to create one"};
    }
    manifest.days = days;
  }

  // Pass 3: verify every committed shard and quarantine orphans — shard
  // files on disk that the manifest does not name (a crash landed between
  // the shard rename and the manifest commit). Rolling those back is what
  // "recover to the last committed manifest" means.
  for (const std::string& name : names) {
    if (EndsWith(name, kShardSuffix) && !manifest.HasShardFile(name)) {
      Quarantine(dir, name, &recovery);
    }
  }
  std::string bytes;
  for (const ShardEntry& entry : manifest.shards) {
    if (auto error = ReadShard(dir, entry, &bytes)) return *error;
    if (io::Crc32c(bytes.data(), bytes.size()) != entry.crc32c) {
      return ManifestChecksumMismatch(entry);
    }
  }

  return Session{dir, std::move(manifest), std::move(recovery)};
}

Result<AppendResult, io::StoreError> Session::Append(
    const activity::ActivityStore& delta, const std::string& delta_id) {
  auto& registry = obs::GlobalRegistry();
  if (!ValidManifestToken(delta_id)) {
    return io::StoreError{io::StoreErrorKind::kMalformed, 0,
                          "delta id '" + delta_id +
                              "' is not a manifest token ([A-Za-z0-9._-]+)"};
  }
  if (delta.days() != manifest_.days) {
    return io::StoreError{
        io::StoreErrorKind::kMalformed, 0,
        "delta has days=" + std::to_string(delta.days()) +
            ", store has days=" + std::to_string(manifest_.days)};
  }
  if (manifest_.HasDelta(delta_id)) {
    // Idempotent replay: this delta already committed; change nothing.
    registry.GetCounter("ingest.append_duplicates").Add(1);
    for (const ShardEntry& s : manifest_.shards) {
      if (s.delta_id == delta_id) {
        return AppendResult{false, s.file, s.bytes};
      }
    }
  }
  DayRange range = CoveredRange(delta);
  if (range.first < 0) {
    return io::StoreError{io::StoreErrorKind::kMalformed, 0,
                          "delta covers no days"};
  }

  // Serialize the shard in memory; the bytes are committed via the atomic
  // write path below. An encoder error (a row on an uncovered day, which
  // Load would reject forever after) returns here, before any file is
  // created. (The codec is pool-free, so Append is safe even in a forked
  // child of a multithreaded parent — the chaos gate relies on this.)
  std::ostringstream buffer{std::ios::binary};
  if (auto saved = io::TrySaveStore(delta, buffer); !saved.ok()) {
    return saved.error();
  }
  std::string bytes = std::move(buffer).str();

  char shard_name[64];
  std::snprintf(shard_name, sizeof(shard_name), "shard-%03d-%03d-",
                range.first, range.last);
  std::string shard_file = std::string(shard_name) + delta_id +
                           std::string(kShardSuffix);
  if (manifest_.HasShardFile(shard_file)) {
    return io::StoreError{io::StoreErrorKind::kMalformed, 0,
                          "shard file " + shard_file + " already committed"};
  }

  // Step 1: the shard, durably, under its final name. Crash points cover
  // every syscall boundary; mid-shard-write lands inside a partial file.
  io::AtomicWriteHooks shard_hooks;
  shard_hooks.split_at = fault::CrashSplitOffset(bytes.size());
  shard_hooks.at = [](std::string_view stage) {
    if (stage == "pre-temp-write") fault::MaybeCrash("pre-temp-write");
    if (stage == "mid-write") fault::MaybeCrash("mid-shard-write");
    if (stage == "pre-fsync") fault::MaybeCrash("pre-fsync");
    if (stage == "pre-rename") fault::MaybeCrash("pre-rename");
  };
  std::string shard_path = (fs::path(dir_) / shard_file).string();
  if (auto error = io::WriteFileAtomic(shard_path, bytes, &shard_hooks)) {
    return WriteError("shard commit: " + *error);
  }

  // Step 2: the manifest — THE commit point. Until its rename lands, the
  // store still reads as the previous prefix and the shard above is an
  // orphan that recovery rolls back.
  fault::MaybeCrash("pre-manifest-append");
  Manifest next = manifest_;
  next.shards.push_back(ShardEntry{shard_file, range.first, range.last,
                                   delta_id, bytes.size(),
                                   io::Crc32c(bytes.data(), bytes.size())});
  std::string manifest_bytes = next.Serialize();
  io::AtomicWriteHooks manifest_hooks;
  manifest_hooks.at = [](std::string_view stage) {
    if (stage == "pre-fsync") fault::MaybeCrash("pre-manifest-fsync");
    if (stage == "pre-rename") fault::MaybeCrash("pre-manifest-rename");
  };
  std::string manifest_path = (fs::path(dir_) / kManifestName).string();
  if (auto error = io::WriteFileAtomic(manifest_path, manifest_bytes,
                                       &manifest_hooks)) {
    registry.GetCounter("io.manifest.errors").Add(1);
    return WriteError("manifest commit: " + *error);
  }
  fault::MaybeCrash("post-commit");

  manifest_ = std::move(next);
  registry.GetCounter("ingest.appends").Add(1);
  registry.GetCounter("ingest.shards_committed").Add(1);
  registry.GetCounter("ingest.shard_bytes").Add(bytes.size());
  registry.GetCounter("io.manifest.commits").Add(1);
  registry.GetCounter("io.manifest.bytes").Add(manifest_bytes.size());
  return AppendResult{true, shard_file, bytes.size()};
}

Result<activity::ActivityStore, io::StoreError> Session::Load() const {
  auto& registry = obs::GlobalRegistry();
  activity::ActivityStore combined{manifest_.days};
  for (int d = 0; d < manifest_.days; ++d) combined.SetDayCovered(d, false);

  // Each shard is decoded straight into `combined` (coverage union, rows
  // ORed in manifest order), so no per-shard store is ever built. The
  // decoder's stream CRC, extended over the 4 bytes that store it, is the
  // shard's CRC, so the manifest check costs no pass of its own. A shard
  // that fails to decode is reported as a manifest mismatch when its
  // whole-file CRC differs, as if that check had come first.
  std::string bytes;
  for (const ShardEntry& entry : manifest_.shards) {
    if (auto error = ReadShard(dir_, entry, &bytes)) return *error;
    auto merged = io::TryMergeStore(bytes, combined);
    if (!merged.ok()) {
      if (io::Crc32c(bytes.data(), bytes.size()) != entry.crc32c) {
        return ManifestChecksumMismatch(entry);
      }
      io::StoreError error = merged.error();
      error.message = entry.file + ": " + error.message;
      return error;
    }
    if (io::Crc32cExtend(merged.value().stream_crc,
                         bytes.data() + bytes.size() - 4, 4) != entry.crc32c) {
      return ManifestChecksumMismatch(entry);
    }
    registry.GetCounter("ingest.shards_loaded").Add(1);
  }
  registry.GetCounter("ingest.loads").Add(1);
  return combined;
}

activity::ActivityStore SliceDays(const activity::ActivityStore& full,
                                  int first, int last) {
  activity::ActivityStore delta{full.days()};
  for (int d = 0; d < full.days(); ++d) {
    if (d < first || d > last || !full.DayCovered(d)) {
      delta.SetDayCovered(d, false);
    }
  }
  full.ForEach([&](net::BlockKey key, const activity::ActivityMatrix& m) {
    activity::ActivityMatrix& dst = delta.GetOrCreate(key);
    for (int d = first; d <= last; ++d) {
      if (delta.DayCovered(d)) dst.Row(d) = m.Row(d);
    }
  });
  return delta;
}

std::string StoreBytes(const activity::ActivityStore& store) {
  std::ostringstream os{std::ios::binary};
  io::SaveStore(store, os);
  return std::move(os).str();
}

}  // namespace ipscope::ingest
