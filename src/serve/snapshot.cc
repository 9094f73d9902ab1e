#include "serve/snapshot.h"

#include "obs/timer.h"

namespace ipscope::serve {

// Member-initializer list, not assignment: no other thread can hold a
// reference yet, but initializing the guarded fields before the object is
// visible keeps every post-construction touch of current_/next_id_ behind
// mu_ (and keeps concurrency.guarded-by vacuously satisfiable).
SnapshotManager::SnapshotManager(activity::ActivityStore store)
    : current_(std::make_shared<const Snapshot>(1, std::move(store))),
      next_id_(2) {
  obs::GlobalRegistry().GetGauge("serve.snapshot.id").Set(1.0);
}

std::shared_ptr<const Snapshot> SnapshotManager::Current() const {
  std::lock_guard<std::mutex> lock{mu_};
  return current_;
}

std::uint64_t SnapshotManager::Install(activity::ActivityStore store) {
  std::shared_ptr<const Snapshot> next;
  std::uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock{mu_};
    id = next_id_++;
    next = std::make_shared<const Snapshot>(id, std::move(store));
    // The swap is the whole "reload": readers that pinned the old pointer
    // keep it alive; the shared_ptr control block frees the old store when
    // the last pin drops.
    current_.swap(next);
  }
  auto& reg = obs::GlobalRegistry();
  reg.GetGauge("serve.snapshot.id").Set(static_cast<double>(id));
  reg.GetCounter("serve.snapshot.reloads").Add();
  // `next` now holds the replaced snapshot; when no reader pins it, this
  // drops the last reference and frees its store on this thread.
  obs::Span release{"serve.snapshot.release_seconds", "serve"};
  next.reset();
  return id;
}

std::uint64_t SnapshotManager::current_id() const {
  std::lock_guard<std::mutex> lock{mu_};
  return current_->id;
}

}  // namespace ipscope::serve
