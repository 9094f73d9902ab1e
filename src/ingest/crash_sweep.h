// The crash-recovery sweep behind `ipscope_cli chaos-crash` and the
// IngestCrash ctests: for every registered crash point (fault/crash.h) x
// case, the parent commits delta0, forks a child that appends delta1 with
// the point armed (schedule grammar crash-at:<point>), checks the child
// died exactly there, then proves that recovery lands bit-exactly on the
// committed prefix and that replaying both deltas converges on the full
// dataset with no double-apply.
//
// The sweep forks, so it is pool-free and its include closure stays
// fork-safe (lint rule concurrency.fork-unsafe): callers build the cases
// first, then shrink par::GlobalPool() to its inline single-thread
// strategy before calling it.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "activity/store.h"
#include "ingest/session.h"
#include "io/result.h"
#include "io/store_error.h"

namespace ipscope::ingest {

struct CrashCase {
  std::uint64_t seed = 0;             // arms the point (mid-write split)
  activity::ActivityStore delta0{1};  // committed cleanly by the parent
  activity::ActivityStore delta1{1};  // appended by the crashing child
  std::string prefix_bytes;           // StoreBytes of delta0's batch build
  std::string full_bytes;             // StoreBytes of the full batch build
};

struct CrashCell {
  std::string point;
  std::uint64_t seed = 0;
  std::string failure;  // empty: recovered bit-exact and replay converged
  bool ok() const { return failure.empty(); }
};

// Opens a store directory after the crash: Session::Open in production.
// Tests pass a deliberately broken recovery here to prove the sweep
// catches it.
using RecoveryOpener =
    std::function<Result<Session, io::StoreError>(const std::string& dir,
                                                  int days)>;

// Runs every crash point x case in `root`/<point>-s<seed>/ and returns one
// cell per pair, point-major in fault::CrashPoints() order. `stop`, when
// set, is polled before each point; once it returns true the cells run so
// far are returned. Cell directories are left in place for inspection.
std::vector<CrashCell> SweepCrashPoints(
    std::span<const CrashCase> cases, const std::filesystem::path& root,
    const RecoveryOpener& recover = Session::Open,
    const std::function<bool()>& stop = nullptr);

}  // namespace ipscope::ingest
