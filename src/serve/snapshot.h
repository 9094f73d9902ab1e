// Refcounted store snapshots: the serve daemon's isolation primitive.
//
// A Snapshot is one immutable ActivityStore plus a monotonically increasing
// id. SnapshotManager hands out shared_ptr pins: a reader calls Current()
// once per request and computes everything against that pin, so a reload —
// which just swaps the manager's pointer — never invalidates an in-flight
// query. The last reader to drop its pin frees the old store. This is the
// snapshot-isolation contract of DESIGN.md §4.14: answers are always
// internally consistent with exactly one snapshot, and a query that
// *starts* after a reload completes sees the new snapshot.
//
// A Snapshot also carries its whole-snapshot aggregates (the rendered
// summary, the rendered churn series for every window, and running
// pattern-class counts over its blocks). They are functions of the store
// alone, so they are computed together by one sweep over the blocks, at
// most once, on the first aggregate request, and freed with the snapshot:
// the memo is one slot per snapshot, never evicts, and cannot outlive or
// cross the snapshot it was computed from. Install does no aggregate work,
// so a reload stays as cheap as the pointer swap.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "activity/store.h"
#include "obs/registry.h"

namespace ipscope::serve {

// One memo slot: the first Get runs `fill` and keeps its value; callers
// that arrive while it runs block until it is done (single flight), and
// every later Get returns the same value. A fill that throws leaves the
// slot empty for the next caller. Not std::call_once: ThreadSanitizer's
// pthread_once never releases a flag whose routine threw, so there the
// next caller would hang.
template <typename T>
class Memo {
 public:
  template <typename Fill>
  const T& Get(Fill&& fill) const {
    if (!filled_.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lock{mu_};
      if (!filled_.load(std::memory_order_relaxed)) {
        value_ = fill();
        obs::GlobalRegistry()
            .GetCounter("serve.snapshot.aggregates_computed")
            .Add();
        filled_.store(true, std::memory_order_release);
      }
    }
    return value_;
  }

 private:
  mutable std::mutex mu_;  // held by the one fill in flight
  mutable std::atomic<bool> filled_{false};
  mutable T value_;  // written once under mu_ before filled_ is set,
                     // read-only after
};

// Block counts per activity::BlockPattern class, indexed by enumerator.
inline constexpr int kPatternClasses = 6;
using PatternCounts = std::array<std::int64_t, kPatternClasses>;

// Every whole-snapshot aggregate of one store.
struct Aggregates {
  std::string summary;             // rendered "result" member
  std::vector<std::string> churn;  // rendered; [window - 1] for window
                                   // 1..max(1, days)
  // Running pattern-class counts over the blocks in key order: entry i
  // counts blocks [0, i).
  std::vector<PatternCounts> patterns;
};

struct Snapshot {
  std::uint64_t id = 0;
  activity::ActivityStore store;
  Memo<Aggregates> aggregates;  // of `store`; see the file comment

  Snapshot(std::uint64_t id_, activity::ActivityStore store_)
      : id(id_), store(std::move(store_)) {}
};

class SnapshotManager {
 public:
  // Installs `store` as snapshot 1.
  explicit SnapshotManager(activity::ActivityStore store);

  // Pins the current snapshot. The returned pointer stays valid (and the
  // underlying store immutable) for as long as the caller holds it,
  // regardless of concurrent Install calls.
  std::shared_ptr<const Snapshot> Current() const;

  // Atomically replaces the current snapshot; returns the new id. Readers
  // pinned to the old snapshot are unaffected; its storage is freed when
  // the last pin drops, by Install itself when no reader pins it (span
  // serve.snapshot.release_seconds, which is most of a reload's time).
  std::uint64_t Install(activity::ActivityStore store);

  std::uint64_t current_id() const;

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const Snapshot> current_;  // guards: mu_
  std::uint64_t next_id_ = 1;                // guards: mu_
};

}  // namespace ipscope::serve
