// Shared work scheduler: a process-wide persistent thread pool.
//
// Every parallel stage in the pipeline (store building, churn, event-size
// aggregation, pattern classification, change detection) decomposes its
// work into *chunks* and runs them on one shared pool instead of spawning
// ad-hoc threads. Two properties drive the design:
//
//  * Load balance via dynamic chunk stealing. Per-block cost varies wildly
//    (a CGN gateway block generates 256 active hosts every day, a sparse
//    static block a handful), so static range splitting starves workers.
//    Chunks are dealt into per-participant bands; each participant drains
//    its own band through an atomic cursor and then steals from the tails
//    of other bands.
//
//  * Determinism via ordered merge. The chunk decomposition is a function
//    of the range and grain ONLY — never of the thread count — and
//    ParallelReduce gives every chunk its own accumulator, merged on the
//    calling thread in ascending chunk order. Results are therefore
//    bit-identical for any thread count and any scheduling interleaving,
//    even for non-commutative merges (floating-point sums, ordered
//    concatenation). See DESIGN.md §4.8 for the full contract.
//
// Sizing: the global pool starts at IPSCOPE_THREADS (environment) when set,
// otherwise std::thread::hardware_concurrency(). `ipscope_cli --threads N`
// resizes it at startup. A pool of size 1 executes everything inline on the
// caller — the serial path and the parallel path share all code.
//
// Heap: a program that links the pool gets fixed glibc malloc thresholds
// before main (pool.cc says why), so passes that free and reallocate
// multi-MB stores reuse the heap instead of faulting pages in again.
//
// Nesting: a parallel region submitted from inside another region's body
// runs inline on the submitting thread (no deadlock, no oversubscription).
// Exceptions thrown by a chunk cancel the remaining chunks (best effort)
// and the first one is rethrown on the calling thread.
//
// Metrics (obs::GlobalRegistry):
//   gauges    par.pool.threads, par.pool.region_participants,
//             par.pool.imbalance_ratio (last region: max participant busy
//             time over mean — 1.0 is perfect balance),
//             par.pool.worker.<slot>.busy_seconds / .idle_seconds
//             (cumulative per participant slot; slot 0 is the submitter on
//             the inline path)
//   counters  par.pool.regions, par.pool.tasks_executed, par.pool.steals
//   histograms par.pool.chunk_seconds (per-chunk execution time),
//             par.pool.queue_wait_seconds (region submit -> chunk start),
//             par.pool.region_seconds (region wall time)
// Per-chunk telemetry is accumulated inside the region and flushed in one
// batch by the submitting thread, so the steady-state cost is two
// steady-clock reads per chunk. When obs::GlobalTrace() is enabled, every
// chunk additionally emits a "par.chunk" trace event on its participant's
// own track (track id = slot + 1), so Perfetto shows the actual per-worker
// schedule instead of one merged lane.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace ipscope::par {

// std::thread::hardware_concurrency(), clamped to at least 1.
int HardwareThreads();

// Checked parse of an $IPSCOPE_THREADS value: the whole string must be a
// base-10 integer in [1, kMaxThreadsEnv]. On failure returns nullopt and,
// when `error` is non-null, describes the problem ("not a number",
// "out of range [1, 4096]"). Exposed for tests; DefaultThreads() is the
// consumer.
inline constexpr int kMaxThreadsEnv = 4096;
std::optional<int> ParseThreadsEnv(std::string_view text,
                                   std::string* error = nullptr);

// Pool size for GlobalPool(): $IPSCOPE_THREADS when set to a valid positive
// integer, HardwareThreads() otherwise. A malformed or out-of-range value
// is ignored with a one-line stderr warning (never a silent fallback).
// Read once per process.
int DefaultThreads();

// How [first, last) splits into chunks. The decomposition depends only on
// the range and grain (kMaxChunks caps scheduling overhead), never on the
// thread count — the cornerstone of the determinism contract.
struct ChunkLayout {
  static constexpr std::size_t kMaxChunks = 256;

  std::size_t first = 0;
  std::size_t count = 0;
  std::size_t chunks = 0;

  // grain = minimum elements per chunk (>= 1).
  static ChunkLayout Of(std::size_t first, std::size_t last,
                        std::size_t grain);

  std::size_t ChunkFirst(std::size_t c) const {
    std::size_t base = count / chunks;
    std::size_t rem = count % chunks;
    return first + c * base + (c < rem ? c : rem);
  }
  std::size_t ChunkLast(std::size_t c) const { return ChunkFirst(c + 1); }
};

class Pool {
 public:
  // threads <= 0 selects DefaultThreads(). A pool of size T keeps T-1
  // background workers; the thread that submits a region always
  // participates, so T threads execute chunks in total.
  explicit Pool(int threads = 0);
  ~Pool();

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  int threads() const { return threads_.load(std::memory_order_relaxed); }

  // Joins all workers and respawns with the new size. Must not be called
  // from inside a parallel region. threads <= 0 selects DefaultThreads().
  void Resize(int threads);

  // Runs fn(c) for every c in [0, chunks), distributing chunks over the
  // pool with dynamic stealing. Blocks until all chunks finished.
  // max_threads > 0 caps the participants for this region (it never raises
  // them above the pool size). Regions are serialized: one at a time per
  // pool; nested submissions from chunk bodies run inline.
  void RunChunks(std::size_t chunks,
                 const std::function<void(std::size_t)>& fn,
                 int max_threads = 0);

 private:
  struct Job;

  void SpawnLocked(int threads);
  void StopAndJoin();
  void WorkerMain();
  static void Participate(Job& job);
  // Publishes the region's batched per-chunk telemetry (histograms,
  // per-worker busy/idle gauges, imbalance ratio, trace events) from the
  // submitting thread after every participant has left the region.
  static void FlushTelemetry(const Job& job, double region_seconds);

  mutable std::mutex mu_;            // guards job_, generation_, stop_
  std::condition_variable cv_;       // workers: new job published / stop
  std::condition_variable done_cv_;  // submitter: region finished
  std::mutex region_mu_;             // serializes parallel regions + Resize
  std::vector<std::thread> workers_;
  Job* job_ = nullptr;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  std::atomic<int> threads_{1};
};

// The process-wide pool every pipeline stage shares.
Pool& GlobalPool();

// Runs body(chunk_first, chunk_last) over disjoint chunks covering
// [first, last). grain = minimum elements per chunk.
void ParallelFor(Pool& pool, std::size_t first, std::size_t last,
                 const std::function<void(std::size_t, std::size_t)>& body,
                 std::size_t grain = 1, int max_threads = 0);

// Deterministic parallel reduction.
//
//   Acc      copyable accumulator; `init` must be the identity (it seeds
//            every per-chunk partial, so a non-empty init would be counted
//            once per chunk).
//   chunk_fn (Acc&, std::size_t chunk_first, std::size_t chunk_last):
//            folds one element range into the chunk's accumulator.
//   merge    (Acc&, Acc&&): folds a chunk partial into the result; called
//            on the submitting thread in ascending chunk order, so the
//            result is bit-identical for any thread count even when merge
//            is not commutative (FP sums, concatenation).
template <typename Acc, typename ChunkFn, typename MergeFn>
Acc ParallelReduce(Pool& pool, std::size_t first, std::size_t last, Acc init,
                   ChunkFn&& chunk_fn, MergeFn&& merge, std::size_t grain = 1,
                   int max_threads = 0) {
  ChunkLayout layout = ChunkLayout::Of(first, last, grain);
  if (layout.chunks == 0) return init;
  if (layout.chunks == 1) {
    chunk_fn(init, first, last);
    return init;
  }
  std::vector<Acc> partials(layout.chunks, init);
  pool.RunChunks(
      layout.chunks,
      [&](std::size_t c) {
        chunk_fn(partials[c], layout.ChunkFirst(c), layout.ChunkLast(c));
      },
      max_threads);
  Acc result = std::move(partials[0]);
  for (std::size_t c = 1; c < layout.chunks; ++c) {
    merge(result, std::move(partials[c]));
  }
  return result;
}

// Same, against the global pool.
template <typename Acc, typename ChunkFn, typename MergeFn>
Acc ParallelReduce(std::size_t first, std::size_t last, Acc init,
                   ChunkFn&& chunk_fn, MergeFn&& merge, std::size_t grain = 1,
                   int max_threads = 0) {
  return ParallelReduce(GlobalPool(), first, last, std::move(init),
                        std::forward<ChunkFn>(chunk_fn),
                        std::forward<MergeFn>(merge), grain, max_threads);
}

// Sorts `values` ascending on the pool: the ChunkLayout chunks (grain =
// minimum elements per chunk) sort independently, then adjacent sorted runs
// merge pairwise, one round per doubling of the run width, the merges of a
// round in parallel. The layout depends only on the size and grain, so the
// result is identical for any thread count; for a strict total order it is
// the one sorted sequence std::sort gives.
template <typename T>
void ParallelSort(Pool& pool, std::span<T> values, std::size_t grain) {
  const ChunkLayout layout = ChunkLayout::Of(0, values.size(), grain);
  auto at = [&](std::size_t chunk) {
    return values.begin() +
           static_cast<std::ptrdiff_t>(layout.ChunkFirst(chunk));
  };
  if (layout.chunks <= 1) {
    std::sort(values.begin(), values.end());
    return;
  }
  pool.RunChunks(layout.chunks,
                 [&](std::size_t c) { std::sort(at(c), at(c + 1)); });
  for (std::size_t width = 1; width < layout.chunks; width *= 2) {
    const std::size_t merges = (layout.chunks + 2 * width - 1) / (2 * width);
    pool.RunChunks(merges, [&](std::size_t m) {
      const std::size_t lo = 2 * m * width;
      const std::size_t mid = std::min(lo + width, layout.chunks);
      const std::size_t hi = std::min(lo + 2 * width, layout.chunks);
      if (mid < hi) std::inplace_merge(at(lo), at(mid), at(hi));
    });
  }
}

}  // namespace ipscope::par
