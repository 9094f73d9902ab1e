#include "par/pool.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <exception>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "obs/registry.h"
#include "obs/timer.h"
#include "obs/trace.h"

namespace ipscope::par {

namespace {

// True while this thread is executing chunks of some region (worker or
// submitter). Nested RunChunks calls from such a thread run inline.
thread_local bool tl_in_region = false;

// Save/restore rather than set/clear: an inline nested region ends before
// the enclosing chunk body does, and clearing the flag there would let the
// *next* nested region take the parallel path and self-deadlock on
// region_mu_.
struct RegionGuard {
  bool prev;
  RegionGuard() : prev(tl_in_region) { tl_in_region = true; }
  ~RegionGuard() { tl_in_region = prev; }
};

// Per-chunk telemetry, written by exactly one participant (the chunk's
// executor) and read by the submitter after the region completes — the
// region's done/active handshake orders the accesses, so no atomics needed.
struct ChunkStat {
  double wait_s = 0;            // region submit -> chunk start
  double dur_s = -1;            // execution time; -1 = cancelled, never ran
  std::int64_t start_us = 0;    // trace timestamp (only when tracing is on)
  std::uint32_t slot = 0;       // executing participant slot
};

#if defined(__GLIBC__)
// Process heap policy, set before main in every program that links the
// pool. A pass over a 4000-block world allocates and frees tens of MB at a
// time (a store arena, its serialized image, the decoded copy). glibc's
// adaptive thresholds make whether such a free is returned to the kernel a
// matter of the heap's layout at that moment, so the same pass alternated
// between 0 and ~9000 page faults (~37 MB, ~25 ms) from pass to pass and
// from process to process. Fixed thresholds make it steady: blocks up to
// 32 MB (glibc's own ceiling for the adaptive threshold) come from the
// heap, and the heap returns memory only past 64 MB of free top, so each
// pass reuses what the one before it freed.
[[maybe_unused]] const bool kHeapPolicy = [] {
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);
  return true;
}();
#endif

}  // namespace

int HardwareThreads() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

std::optional<int> ParseThreadsEnv(std::string_view text, std::string* error) {
  // Whole-string checked parse (PR 1's policy for CLI flags, applied to the
  // environment too): no leading whitespace, no trailing junk, no silent
  // truncation of "banana" to 0 or "-3" to a fallback.
  int value = 0;
  const char* last = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), last, value);
  if (text.empty() || ec == std::errc::invalid_argument || ptr != last) {
    if (error != nullptr) *error = "not a number";
    return std::nullopt;
  }
  if (ec == std::errc::result_out_of_range || value < 1 ||
      value > kMaxThreadsEnv) {
    if (error != nullptr) {
      *error = "out of range [1, " + std::to_string(kMaxThreadsEnv) + "]";
    }
    return std::nullopt;
  }
  return value;
}

int DefaultThreads() {
  static const int threads = [] {
    // lint: getenv(blessed wrapper: DefaultThreads is the single audited
    // reader of IPSCOPE_THREADS and feeds it through the checked
    // ParseThreadsEnv parse below)
    if (const char* env = std::getenv("IPSCOPE_THREADS")) {
      std::string error;
      if (auto n = ParseThreadsEnv(env, &error)) return *n;
      // lint: io(contract from PR 5: a malformed IPSCOPE_THREADS is never
      // a silent fallback — this one-line stderr warning is the report,
      // and obs is not yet initialized this early in process startup)
      std::fprintf(stderr,
                   "ipscope: ignoring IPSCOPE_THREADS='%s' (%s); using %d "
                   "hardware threads\n",
                   env, error.c_str(), HardwareThreads());
    }
    return HardwareThreads();
  }();
  return threads;
}

ChunkLayout ChunkLayout::Of(std::size_t first, std::size_t last,
                            std::size_t grain) {
  ChunkLayout layout;
  layout.first = first;
  layout.count = last > first ? last - first : 0;
  if (layout.count == 0) return layout;
  if (grain == 0) grain = 1;
  layout.chunks = std::min((layout.count + grain - 1) / grain, kMaxChunks);
  return layout;
}

// One parallel region: chunk indices [0, chunks) dealt into `participants`
// bands, each with an atomic claim cursor. A participant drains its own
// band first, then steals from the other bands' cursors.
struct Pool::Job {
  std::size_t chunks = 0;
  std::size_t participants = 0;
  const std::function<void(std::size_t)>* fn = nullptr;
  std::unique_ptr<std::atomic<std::size_t>[]> cursor;  // per band
  std::vector<std::size_t> band_last;                  // per band, exclusive
  std::atomic<std::size_t> joined{0};  // participant slots handed out
  std::atomic<std::size_t> done{0};    // chunks finished or cancelled
  std::atomic<std::uint64_t> steals{0};
  std::size_t active = 0;  // workers inside Participate; guarded by pool mu_
  // Publish generation (stamped under pool mu_, never 0). Workers compare
  // it against the last generation they executed, so a job stays joinable
  // for its whole lifetime — including by workers that started (or finished
  // their previous region) after it was published.
  std::uint64_t generation = 0;
  std::mutex err_mu;
  std::exception_ptr error;

  // Telemetry, batched per region: two steady-clock reads per chunk on the
  // hot path, one registry/trace flush on the submitter (FlushTelemetry).
  obs::Stopwatch region_watch;  // starts at region submit
  bool trace_on = false;
  std::unique_ptr<ChunkStat[]> stat;  // per chunk
  std::unique_ptr<double[]> busy;     // per participant slot, seconds

  Job(std::size_t chunks_in, std::size_t participants_in,
      const std::function<void(std::size_t)>* fn_in)
      : chunks(chunks_in), participants(participants_in), fn(fn_in) {
    cursor = std::make_unique<std::atomic<std::size_t>[]>(participants);
    stat = std::make_unique<ChunkStat[]>(chunks);
    busy = std::make_unique<double[]>(participants);  // value-init: zeros
    band_last.resize(participants);
    std::size_t base = chunks / participants;
    std::size_t rem = chunks % participants;
    std::size_t pos = 0;
    for (std::size_t b = 0; b < participants; ++b) {
      cursor[b].store(pos, std::memory_order_relaxed);
      pos += base + (b < rem ? 1 : 0);
      band_last[b] = pos;
    }
  }

  // Cancels every unclaimed chunk (after a chunk threw): swing each band
  // cursor to its end and account the skipped chunks as done so the
  // submitter's completion wait still converges.
  void Cancel() {
    for (std::size_t b = 0; b < participants; ++b) {
      std::size_t old = cursor[b].exchange(band_last[b]);
      if (old < band_last[b]) {
        done.fetch_add(band_last[b] - old, std::memory_order_acq_rel);
      }
    }
  }
};

Pool::Pool(int threads) {
  if (threads <= 0) threads = DefaultThreads();
  std::unique_lock region(region_mu_);
  SpawnLocked(threads);
}

Pool::~Pool() { StopAndJoin(); }

void Pool::SpawnLocked(int threads) {
  threads_.store(threads, std::memory_order_relaxed);
  workers_.reserve(static_cast<std::size_t>(threads - 1));
  for (int t = 1; t < threads; ++t) {
    workers_.emplace_back([this] { WorkerMain(); });
  }
  obs::GlobalRegistry().GetGauge("par.pool.threads").Set(threads);
}

void Pool::StopAndJoin() {
  {
    std::lock_guard lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
  workers_.clear();
  {
    std::lock_guard lk(mu_);
    stop_ = false;
  }
}

void Pool::Resize(int threads) {
  if (threads <= 0) threads = DefaultThreads();
  std::unique_lock region(region_mu_);
  if (threads == threads_.load(std::memory_order_relaxed)) return;
  StopAndJoin();
  SpawnLocked(threads);
}

void Pool::WorkerMain() {
  std::unique_lock lk(mu_);
  // Publish generation of the last job this worker executed. Jobs are
  // stamped with generations >= 1, so 0 means "none yet" and a worker that
  // spawned mid-region still joins it. Comparing against the job's own
  // stamp (not the pool counter) also means a worker never re-enters a
  // region it already finished, without a separate retirement wait.
  std::uint64_t last_done = 0;
  for (;;) {
    cv_.wait(lk, [&] {
      return stop_ || (job_ != nullptr && job_->generation != last_done);
    });
    if (stop_) return;
    Job* job = job_;
    ++job->active;  // pins the job: the submitter waits for active == 0
    lk.unlock();
    Participate(*job);
    lk.lock();
    last_done = job->generation;
    --job->active;
    done_cv_.notify_all();
  }
}

void Pool::Participate(Job& job) {
  std::size_t slot = job.joined.fetch_add(1, std::memory_order_acq_rel);
  if (slot >= job.participants) return;  // more helpers than bands
  RegionGuard guard;
  for (std::size_t offset = 0; offset < job.participants; ++offset) {
    std::size_t band = (slot + offset) % job.participants;
    for (;;) {
      std::size_t c = job.cursor[band].fetch_add(1, std::memory_order_acq_rel);
      if (c >= job.band_last[band]) break;
      if (offset != 0) job.steals.fetch_add(1, std::memory_order_relaxed);
      double wait_s = job.region_watch.Seconds();
      std::int64_t start_us = job.trace_on ? obs::GlobalTrace().NowMicros() : 0;
      obs::Stopwatch chunk_watch;
      bool threw = false;
      try {
        (*job.fn)(c);
      } catch (...) {
        threw = true;
        std::lock_guard elk(job.err_mu);
        if (!job.error) job.error = std::current_exception();
      }
      // A chunk that threw still executed: attribute its time so the trace
      // and busy accounting show where the region's wall clock went.
      ChunkStat& st = job.stat[c];
      st.wait_s = wait_s;
      st.dur_s = chunk_watch.Seconds();
      st.start_us = start_us;
      st.slot = static_cast<std::uint32_t>(slot);
      job.busy[slot] += st.dur_s;
      job.done.fetch_add(1, std::memory_order_acq_rel);
      if (threw) {
        job.Cancel();
        return;
      }
    }
  }
}

void Pool::RunChunks(std::size_t chunks,
                     const std::function<void(std::size_t)>& fn,
                     int max_threads) {
  if (chunks == 0) return;
  auto& registry = obs::GlobalRegistry();
  int cap = threads_.load(std::memory_order_relaxed);
  if (max_threads > 0) cap = std::min(cap, max_threads);

  if (tl_in_region || chunks == 1 || cap <= 1) {
    // Inline path: nested region, trivial region, or an effectively serial
    // pool. Shares the chunk decomposition with the parallel path, so the
    // work (and any exception) is identical. Telemetry attributes every
    // chunk to participant slot 0 (trace track id 1).
    RegionGuard guard;
    obs::TraceRecorder& trace = obs::GlobalTrace();
    const bool trace_on = trace.enabled();
    obs::Histogram& chunk_hist =
        registry.GetHistogram("par.pool.chunk_seconds");
    obs::Histogram& wait_hist =
        registry.GetHistogram("par.pool.queue_wait_seconds");
    obs::Stopwatch region_watch;
    double busy = 0;
    for (std::size_t c = 0; c < chunks; ++c) {
      double wait_s = region_watch.Seconds();
      std::int64_t start_us = trace_on ? trace.NowMicros() : 0;
      obs::Stopwatch chunk_watch;
      fn(c);
      double dur_s = chunk_watch.Seconds();
      busy += dur_s;
      chunk_hist.Record(dur_s);
      wait_hist.Record(wait_s);
      if (trace_on) {
        trace.AddCompleteOnTrack("par.chunk", "par", start_us,
                                 static_cast<std::int64_t>(dur_s * 1e6), 1);
      }
    }
    double region_s = region_watch.Seconds();
    registry.GetHistogram("par.pool.region_seconds").Record(region_s);
    registry.GetGauge("par.pool.worker.0.busy_seconds").Add(busy);
    registry.GetGauge("par.pool.worker.0.idle_seconds")
        .Add(std::max(region_s - busy, 0.0));
    registry.GetGauge("par.pool.imbalance_ratio").Set(1.0);
    registry.GetCounter("par.pool.regions").Add(1);
    registry.GetCounter("par.pool.tasks_executed").Add(chunks);
    registry.GetGauge("par.pool.region_participants").Set(1);
    return;
  }

  std::unique_lock region(region_mu_);
  // Re-read under the region lock: Resize also takes it, so the size is
  // stable for the whole region.
  cap = threads_.load(std::memory_order_relaxed);
  if (max_threads > 0) cap = std::min(cap, max_threads);
  std::size_t participants =
      std::min(static_cast<std::size_t>(cap), chunks);

  Job job{chunks, participants, &fn};
  job.trace_on = obs::GlobalTrace().enabled();
  {
    std::lock_guard lk(mu_);
    job.generation = ++generation_;
    job_ = &job;
  }
  cv_.notify_all();
  Participate(job);
  {
    std::unique_lock lk(mu_);
    done_cv_.wait(lk, [&] {
      return job.done.load(std::memory_order_acquire) == chunks &&
             job.active == 0;
    });
    job_ = nullptr;
  }

  FlushTelemetry(job, job.region_watch.Seconds());
  registry.GetCounter("par.pool.regions").Add(1);
  registry.GetCounter("par.pool.tasks_executed").Add(chunks);
  registry.GetCounter("par.pool.steals")
      .Add(job.steals.load(std::memory_order_relaxed));
  registry.GetGauge("par.pool.region_participants")
      .Set(static_cast<double>(participants));
  if (job.error) std::rethrow_exception(job.error);
}

void Pool::FlushTelemetry(const Job& job, double region_seconds) {
  auto& registry = obs::GlobalRegistry();
  obs::Histogram& chunk_hist = registry.GetHistogram("par.pool.chunk_seconds");
  obs::Histogram& wait_hist =
      registry.GetHistogram("par.pool.queue_wait_seconds");
  obs::TraceRecorder& trace = obs::GlobalTrace();
  for (std::size_t c = 0; c < job.chunks; ++c) {
    const ChunkStat& st = job.stat[c];
    if (st.dur_s < 0) continue;  // cancelled after an earlier chunk threw
    chunk_hist.Record(st.dur_s);
    wait_hist.Record(st.wait_s);
    if (job.trace_on) {
      trace.AddCompleteOnTrack("par.chunk", "par", st.start_us,
                               static_cast<std::int64_t>(st.dur_s * 1e6),
                               st.slot + 1);
    }
  }
  registry.GetHistogram("par.pool.region_seconds").Record(region_seconds);
  double total_busy = 0;
  double max_busy = 0;
  for (std::size_t s = 0; s < job.participants; ++s) {
    double busy = job.busy[s];
    total_busy += busy;
    max_busy = std::max(max_busy, busy);
    std::string worker = "par.pool.worker." + std::to_string(s);
    registry.GetGauge(worker + ".busy_seconds").Add(busy);
    registry.GetGauge(worker + ".idle_seconds")
        .Add(std::max(region_seconds - busy, 0.0));
  }
  double mean_busy = total_busy / static_cast<double>(job.participants);
  registry.GetGauge("par.pool.imbalance_ratio")
      .Set(mean_busy > 0 ? max_busy / mean_busy : 1.0);
}

Pool& GlobalPool() {
  static Pool pool{DefaultThreads()};
  return pool;
}

void ParallelFor(Pool& pool, std::size_t first, std::size_t last,
                 const std::function<void(std::size_t, std::size_t)>& body,
                 std::size_t grain, int max_threads) {
  ChunkLayout layout = ChunkLayout::Of(first, last, grain);
  if (layout.chunks == 0) return;
  pool.RunChunks(
      layout.chunks,
      [&](std::size_t c) { body(layout.ChunkFirst(c), layout.ChunkLast(c)); },
      max_threads);
}

}  // namespace ipscope::par
