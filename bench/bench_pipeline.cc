// Canonical end-to-end pipeline benchmark: world build -> store build ->
// save/load -> churn -> change detection -> pattern classification, swept
// over thread counts {1, 2, ceil(half), all} (deduplicated), so the
// speedup section of bench-JSON v2 is measured data. Prints a per-stage
// table and writes BENCH_pipeline.json (per-stage wall seconds, MB/s where
// a byte volume is defined, and parallel speedup) so perf trajectories can
// be compared across commits. Every stage result is fingerprinted —
// including a hash of the serialized store image — and cross-checked
// across thread counts AND against the retained per-step generation
// reference (GenerateStep), so the benchmark fails loudly if parallelism
// or the slot-major batch kernels change a single output bit.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "activity/change.h"
#include "activity/churn.h"
#include "analysis/fig6_patterns.h"
#include "cdn/observatory.h"
#include "common.h"
#include "io/atomic_file.h"
#include "io/store_io.h"
#include "obs/registry.h"
#include "par/pool.h"

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct StageResult {
  std::string name;
  double seconds = 0;
  double mbytes = 0;  // bytes processed / 1e6, 0 when not meaningful
};

// Shared-pool activity during one run, as registry deltas: how many chunks
// the stages pushed through the pool, how much stealing the imbalance
// forced, and how the work spread over participant slots.
struct PoolTelemetry {
  std::uint64_t regions = 0;
  std::uint64_t tasks_executed = 0;
  std::uint64_t steals = 0;
  double imbalance_ratio = 0;  // last region of the run
  std::vector<double> worker_busy_seconds;  // per participant slot
  std::vector<double> worker_idle_seconds;
};

struct RunResult {
  int threads = 1;
  std::vector<StageResult> stages;
  double total_seconds = 0;
  PoolTelemetry pool;
  // Output fingerprint: any cross-thread-count divergence is a determinism
  // bug, not noise.
  std::uint64_t fingerprint = 0;
  // Hash of the serialized IPSCOPE2 store image — byte-exact identity of
  // the built store, compared across thread counts and kernel paths.
  std::uint64_t store_hash = 0;
};

std::uint64_t Fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

void Mix(std::uint64_t& fp, std::uint64_t v) {
  fp ^= v + 0x9e3779b97f4a7c15ULL + (fp << 6) + (fp >> 2);
}

void MixDouble(std::uint64_t& fp, double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  Mix(fp, bits);
}

RunResult RunPipeline(const ipscope::sim::WorldConfig& config, int threads) {
  namespace par = ipscope::par;
  par::GlobalPool().Resize(threads);
  RunResult run;
  run.threads = threads;

  // Pool counters/gauges are process-cumulative; deltas isolate this run.
  auto& registry = ipscope::obs::GlobalRegistry();
  auto worker_gauge = [&](int slot, const char* kind) {
    return registry
        .GetGauge("par.pool.worker." + std::to_string(slot) + "." + kind)
        .value();
  };
  const std::uint64_t regions0 =
      registry.GetCounter("par.pool.regions").value();
  const std::uint64_t tasks0 =
      registry.GetCounter("par.pool.tasks_executed").value();
  const std::uint64_t steals0 =
      registry.GetCounter("par.pool.steals").value();
  std::vector<double> busy0, idle0;
  for (int s = 0; s < threads; ++s) {
    busy0.push_back(worker_gauge(s, "busy_seconds"));
    idle0.push_back(worker_gauge(s, "idle_seconds"));
  }

  auto stage = [&](const std::string& name, double mbytes, auto&& fn) {
    auto start = Clock::now();
    fn();
    run.stages.push_back(StageResult{name, SecondsSince(start), mbytes});
    run.total_seconds += run.stages.back().seconds;
  };

  // Stage 1: world build (serial by design; included so the end-to-end
  // total reflects what a CLI user actually waits for).
  std::unique_ptr<ipscope::sim::World> world;
  stage("world_build", 0, [&] {
    world = std::make_unique<ipscope::sim::World>(config);
  });

  // Stage 2: activity-store build (the pool's flagship consumer).
  ipscope::activity::ActivityStore store{1};
  stage("store_build", 0, [&] {
    store = ipscope::cdn::Observatory::Daily(*world).BuildStore();
  });

  // Stages 3-4: serialize + parse the IPSCOPE2 image in memory, so the
  // numbers measure the codec, not the container's filesystem.
  std::string image;
  stage("store_save", 0, [&] {
    std::ostringstream os;
    ipscope::io::SaveStore(store, os);
    image = std::move(os).str();
  });
  double store_mb = static_cast<double>(image.size()) / 1e6;
  run.stages.back().mbytes = store_mb;   // store_save
  run.stages[1].mbytes = store_mb;       // store_build emits the same volume
  run.store_hash = Fnv1a(image);
  Mix(run.fingerprint, run.store_hash);
  stage("store_load", store_mb, [&] {
    std::istringstream is{image};
    auto loaded = ipscope::io::TryLoadStore(is);
    if (!loaded.ok()) throw std::runtime_error("store reload failed");
    Mix(run.fingerprint, loaded.value().store.CountActive(0, store.days()));
  });

  // Stage 5: churn analyses (Fig 4 family).
  stage("churn", 0, [&] {
    ipscope::activity::ChurnAnalyzer analyzer{store};
    auto weekly = analyzer.Churn(7);
    auto daily = analyzer.DailyEvents();
    auto versus = analyzer.VersusFirst(7);
    for (double v : weekly.up_pct) MixDouble(run.fingerprint, v);
    for (double v : weekly.down_pct) MixDouble(run.fingerprint, v);
    for (std::int64_t v : daily.active) {
      Mix(run.fingerprint, static_cast<std::uint64_t>(v));
    }
    for (std::uint64_t v : versus.appear) Mix(run.fingerprint, v);
  });

  // Stage 6: change detection (Table 2 family).
  stage("change", 0, [&] {
    auto stu = ipscope::activity::MaxMonthlyStuChange(store, 28);
    auto spatial = ipscope::activity::SpatialStuChanges(store, 28);
    for (const auto& c : stu) MixDouble(run.fingerprint, c.max_delta);
    for (const auto& c : spatial) {
      MixDouble(run.fingerprint, c.lower_delta);
      MixDouble(run.fingerprint, c.upper_delta);
    }
  });

  // Stage 7: pattern classification (Fig 6/7).
  stage("patterns", 0, [&] {
    auto fig6 = ipscope::analysis::RunFig6(*world, store);
    for (const auto& row : fig6.confusion) {
      for (std::uint64_t v : row) Mix(run.fingerprint, v);
    }
    Mix(run.fingerprint, fig6.exemplars.size());
  });

  run.pool.regions = registry.GetCounter("par.pool.regions").value() - regions0;
  run.pool.tasks_executed =
      registry.GetCounter("par.pool.tasks_executed").value() - tasks0;
  run.pool.steals = registry.GetCounter("par.pool.steals").value() - steals0;
  run.pool.imbalance_ratio =
      registry.GetGauge("par.pool.imbalance_ratio").value();
  for (int s = 0; s < threads; ++s) {
    run.pool.worker_busy_seconds.push_back(worker_gauge(s, "busy_seconds") -
                                           busy0[static_cast<std::size_t>(s)]);
    run.pool.worker_idle_seconds.push_back(worker_gauge(s, "idle_seconds") -
                                           idle0[static_cast<std::size_t>(s)]);
  }
  return run;
}

void WriteDoubleArray(std::ostream& os, const std::vector<double>& values) {
  os << "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    os << (i ? ", " : "") << values[i];
  }
  os << "]";
}

// Bench-JSON schema v2: schema_version + hardware fingerprint (what
// `ipscope_cli benchdiff` keys its comparability check on) + per-run shared
// pool telemetry next to the stage timings.
void WriteJson(std::ostream& os, const ipscope::sim::WorldConfig& cfg,
               const std::vector<RunResult>& runs) {
  os << "{\n  \"bench\": \"pipeline\",\n"
     << "  \"schema_version\": 2,\n"
     << "  \"client_blocks\": " << cfg.target_client_blocks << ",\n"
     << "  \"seed\": " << cfg.seed << ",\n"
     << "  \"unix_time\": " << std::time(nullptr) << ",\n";
  ipscope::bench::WriteHardwareJson(
      os, ipscope::bench::DetectHardware());
  os << ",\n  \"runs\": [\n";
  for (std::size_t r = 0; r < runs.size(); ++r) {
    const RunResult& run = runs[r];
    os << "    {\"threads\": " << run.threads << ", \"total_seconds\": "
       << run.total_seconds << ", \"stages\": {\n";
    for (std::size_t s = 0; s < run.stages.size(); ++s) {
      const StageResult& st = run.stages[s];
      os << "      \"" << st.name << "\": {\"seconds\": " << st.seconds;
      if (st.mbytes > 0) {
        os << ", \"mb\": " << st.mbytes
           << ", \"mb_per_s\": " << st.mbytes / st.seconds;
      }
      os << "}" << (s + 1 < run.stages.size() ? "," : "") << "\n";
    }
    os << "    }, \"pool\": {\"regions\": " << run.pool.regions
       << ", \"tasks_executed\": " << run.pool.tasks_executed
       << ", \"steals\": " << run.pool.steals
       << ", \"imbalance_ratio\": " << run.pool.imbalance_ratio
       << ", \"worker_busy_seconds\": ";
    WriteDoubleArray(os, run.pool.worker_busy_seconds);
    os << ", \"worker_idle_seconds\": ";
    WriteDoubleArray(os, run.pool.worker_idle_seconds);
    os << "}}" << (r + 1 < runs.size() ? "," : "") << "\n";
  }
  // A speedup ratio needs two distinct thread counts. On a 1-hardware-
  // thread host the sweep collapses to a single run, and serial/parallel
  // would alias the same measurement — every stage would read "1x", which
  // looks like "no scaling" when it means "not measured". Mark such
  // reports baseline_only instead; benchdiff treats the absent block as
  // advisory.
  if (runs.size() < 2) {
    os << "  ],\n  \"baseline_only\": true\n}\n";
    return;
  }
  os << "  ],\n  \"speedup\": {\n";
  const RunResult& serial = runs.front();
  const RunResult& parallel = runs.back();
  for (std::size_t s = 0; s < serial.stages.size(); ++s) {
    double speedup = parallel.stages[s].seconds > 0
                         ? serial.stages[s].seconds / parallel.stages[s].seconds
                         : 0.0;
    os << "    \"" << serial.stages[s].name << "\": " << speedup << ",\n";
  }
  os << "    \"total\": "
     << (parallel.total_seconds > 0
             ? serial.total_seconds / parallel.total_seconds
             : 0.0)
     << "\n  }\n}\n";
}

// The document above with insignificant whitespace removed — safe because
// the emitter never puts a raw newline inside a string (obs::json::Escape
// escapes them), so "\n followed by indent" is always structural.
std::string Minify(const std::string& pretty) {
  std::string out;
  out.reserve(pretty.size());
  for (std::size_t i = 0; i < pretty.size(); ++i) {
    if (pretty[i] != '\n') {
      out += pretty[i];
      continue;
    }
    while (i + 1 < pretty.size() && pretty[i + 1] == ' ') ++i;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  auto config = ipscope::bench::ConfigFromArgs(argc, argv);
  int max_threads = ipscope::par::DefaultThreads();

  // Thread sweep: serial, 2, half, and all hardware threads (deduplicated),
  // so multi-core hosts record real scaling curves, not just the endpoints.
  std::vector<int> sweep{1};
  for (int t : {2, (max_threads + 1) / 2, max_threads}) {
    if (t > 1 && t <= max_threads &&
        std::find(sweep.begin(), sweep.end(), t) == sweep.end()) {
      sweep.push_back(t);
    }
  }
  std::sort(sweep.begin(), sweep.end());

  std::vector<RunResult> runs;
  for (int t : sweep) {
    std::cout << "pipeline: " << config.target_client_blocks
              << " client blocks, threads=" << t << "\n";
    runs.push_back(RunPipeline(config, t));
  }
  ipscope::par::GlobalPool().Resize(0);  // back to the default size

  std::printf("\n%-12s", "stage");
  for (const RunResult& run : runs) std::printf("  t=%-10d", run.threads);
  if (runs.size() > 1) std::printf("  speedup");
  std::printf("\n");
  for (std::size_t s = 0; s < runs.front().stages.size(); ++s) {
    std::printf("%-12s", runs.front().stages[s].name.c_str());
    for (const RunResult& run : runs) {
      std::printf("  %9.3fs  ", run.stages[s].seconds);
    }
    if (runs.size() > 1 && runs.back().stages[s].seconds > 0) {
      std::printf("  %5.2fx",
                  runs.front().stages[s].seconds / runs.back().stages[s].seconds);
    }
    std::printf("\n");
  }
  std::printf("%-12s", "total");
  for (const RunResult& run : runs) std::printf("  %9.3fs  ", run.total_seconds);
  if (runs.size() > 1 && runs.back().total_seconds > 0) {
    std::printf("  %5.2fx",
                runs.front().total_seconds / runs.back().total_seconds);
  }
  std::printf("\n");

  for (const RunResult& run : runs) {
    if (run.fingerprint != runs.front().fingerprint) {
      std::cerr << "FAIL: results at threads=" << run.threads
                << " diverge from serial run (fingerprint "
                << run.fingerprint << " != " << runs.front().fingerprint
                << ")\n";
      return 1;
    }
  }
  std::cout << "\ndeterminism: all thread counts produced bit-identical "
               "results (fingerprint "
            << runs.front().fingerprint << ")\n";

  // Kernel-path cross-check: rebuild the store through the retained naive
  // per-(step, slot) reference kernel (GenerateStep) and require the
  // serialized image to be byte-identical to what the slot-major batch
  // kernels (GenerateBlock + arena store) produced in every run above.
  {
    ipscope::sim::World world{config};
    auto observatory = ipscope::cdn::Observatory::Daily(world);
    const ipscope::sim::StepSpec& spec = observatory.spec();
    ipscope::activity::ActivityStore naive{spec.steps};
    for (const ipscope::sim::BlockPlan& plan : world.blocks()) {
      ipscope::activity::ActivityMatrix m{spec.steps};
      bool any = false;
      for (int s = 0; s < spec.steps; ++s) {
        ipscope::activity::DayBits bits;
        ipscope::sim::GenerateStep(plan, spec, s, bits, nullptr);
        if ((bits[0] | bits[1] | bits[2] | bits[3]) == 0) continue;
        m.Row(s) = bits;
        any = true;
      }
      if (any) {
        naive.GetOrCreate(ipscope::net::BlockKeyOf(plan.block)) = std::move(m);
      }
    }
    std::ostringstream os;
    ipscope::io::SaveStore(naive, os);
    std::uint64_t naive_hash = Fnv1a(os.view());
    if (naive_hash != runs.front().store_hash) {
      std::cerr << "FAIL: slot-major batch kernels diverge from the "
                   "per-step reference (store image hash "
                << runs.front().store_hash << " != " << naive_hash << ")\n";
      return 1;
    }
    std::cout << "kernel path: batch kernels byte-identical to the per-step "
                 "reference (store image hash "
              << naive_hash << ")\n";
  }

  std::ostringstream doc;
  WriteJson(doc, config, runs);
  // Atomic (temp + rename): a crashed or out-of-space bench run must never
  // leave a torn report for benchdiff to misread as a regression.
  if (auto error =
          ipscope::io::WriteFileAtomic("BENCH_pipeline.json", doc.view())) {
    std::cerr << "FAIL: " << *error << "\n";
    return 1;
  }
  // Append-only perf trajectory: one minified v2 document per line, so a
  // long-running checkout accumulates its own benchmark history without a
  // separate collector.
  {
    std::ofstream history{"BENCH_history.jsonl", std::ios::app};
    history << Minify(doc.str()) << "\n";
    if (!history) {
      std::cerr << "FAIL: cannot append to BENCH_history.jsonl\n";
      return 1;
    }
  }
  std::cout << "wrote BENCH_pipeline.json (+ BENCH_history.jsonl)\n";
  return 0;
}
