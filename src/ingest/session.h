// Crash-safe incremental ingestion over a day-sharded store directory.
//
// The paper's observatory is continuously fed (a year of daily CDN logs),
// so the reproduction needs the same operational property: a new day of
// data costs O(delta), not O(full history), and a crash at any instant
// loses at most the uncommitted delta. A Session owns one store
// directory:
//
//   <dir>/MANIFEST          commit point (ingest/manifest.h)
//   <dir>/shard-*.ips2      one IPSCOPE2 file per committed delta
//   <dir>/quarantine/       where recovery moves torn/orphaned files
//
// Commit protocol for Append(delta, delta_id):
//   1. serialize the delta as a full-period IPSCOPE2 store whose coverage
//      mask holds exactly the delta's days;
//   2. write the shard: temp file → fsync → checked close → atomic rename;
//   3. write the new MANIFEST (old entries + the new shard line) the same
//      way. The manifest rename is THE commit: before it the store reads
//      as the previous prefix, after it the delta is durable.
// Every syscall boundary of this path is a registered crash point
// (fault/crash.h), swept by ingest::SweepCrashPoints (ingest/crash_sweep.h).
//
// Recovery (Open): quarantine *.tmp files (torn temp writes) and shard
// files the manifest does not name (orphans: crash between shard rename
// and manifest commit), verify every named shard's size + CRC32C, and
// refuse — with a typed StoreError — a manifest or shard that fails its
// checksum. Open therefore always lands on exactly the last committed
// manifest; salvage semantics for a damaged shard body mirror
// io::TryLoadStore (per-block checksums, typed errors).
//
// Idempotency: a delta id already in the manifest makes Append a no-op
// (AppendResult::applied = false), so replaying a day's logs — the normal
// aftermath of a crash-and-retry loop — changes nothing.
//
// Metrics (obs::GlobalRegistry): ingest.appends, ingest.append_duplicates,
// ingest.shards_committed, ingest.shard_bytes, ingest.recoveries,
// ingest.quarantined_files, ingest.loads, ingest.shards_loaded,
// io.manifest.commits, io.manifest.bytes, io.manifest.errors.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "activity/store.h"
#include "ingest/manifest.h"
#include "io/result.h"
#include "io/store_error.h"

namespace ipscope::ingest {

struct AppendResult {
  bool applied = false;    // false: delta_id already committed (no-op)
  std::string shard_file;  // file name inside the store directory
  std::uint64_t shard_bytes = 0;
};

struct RecoveryReport {
  // Files moved aside into <dir>/quarantine/ (names relative to <dir>).
  std::vector<std::string> quarantined;
};

class Session {
 public:
  // Opens `dir` (creating it if needed), runs recovery, and verifies the
  // committed shards. `days` is the shared observation-period length; it
  // must match an existing manifest, and days <= 0 adopts the manifest's
  // value (an error when the directory has no manifest yet).
  static Result<Session, io::StoreError> Open(const std::string& dir,
                                              int days);

  const std::string& dir() const { return dir_; }
  int days() const { return manifest_.days; }
  const Manifest& manifest() const { return manifest_; }
  const RecoveryReport& recovery() const { return recovery_; }

  // Commits one delta (rows on its covered days; days() must match the
  // store's). delta_id is the idempotency key — [A-Za-z0-9._-]+, one
  // commit ever per id. The delta must cover at least one day.
  Result<AppendResult, io::StoreError> Append(
      const activity::ActivityStore& delta, const std::string& delta_id);

  // Composes every committed shard into one ActivityStore: coverage is
  // the union of shard coverage, activity rows are OR-merged in manifest
  // (commit) order — so all existing analyses run on a sharded store
  // unchanged. Pool-free: safe in single-threaded recovery contexts.
  Result<activity::ActivityStore, io::StoreError> Load() const;

 private:
  Session(std::string dir, Manifest manifest, RecoveryReport recovery)
      : dir_(std::move(dir)),
        manifest_(std::move(manifest)),
        recovery_(std::move(recovery)) {}

  std::string dir_;
  Manifest manifest_;
  RecoveryReport recovery_;
};

// The delta of `full` covering days [first, last] (inclusive) that
// `full` covers. Every block of `full` is present, even one with no
// activity in the range, so the shards of consecutive slices compose into
// a store that serializes byte-identically to `full`.
activity::ActivityStore SliceDays(const activity::ActivityStore& full,
                                  int first, int last);

// The IPSCOPE2 image io::SaveStore writes for `store`: the bytes a
// composed or recovered store is compared by.
std::string StoreBytes(const activity::ActivityStore& store);

}  // namespace ipscope::ingest
