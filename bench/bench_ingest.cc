// Incremental-ingestion benchmark: what does appending one new day of
// data cost through the sharded store (src/ingest) versus rebuilding and
// rewriting the whole dataset, and what does composing the shards back
// into an ActivityStore cost versus loading one monolithic file?
//
// Stages (single-threaded — the ingest path is deliberately pool-free so
// it stays fork-safe for the chaos-crash gate):
//   batch_save      SaveStoreFile of the full dataset: the per-day cost a
//                   non-incremental pipeline pays
//   session_bulk    Session bootstrap: commit days [0, N-1) as one shard
//   delta_append    commit the final day's delta — the steady-state cost
//   delta_replay    re-commit the same delta (idempotent no-op)
//   sharded_load    Session::Load() composing all shards
//   single_load     LoadStoreFile of the monolithic file
//
// The harness fails loudly unless the composed sharded store serializes
// bit-identically to the batch-built one. Writes BENCH_ingest.json
// (bench-JSON v2, atomic temp+rename) for `ipscope_cli benchdiff`.
#include <chrono>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "cdn/observatory.h"
#include "common.h"
#include "ingest/session.h"
#include "io/atomic_file.h"
#include "io/store_io.h"

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct StageResult {
  std::string name;
  double seconds = 0;
  double mbytes = 0;  // bytes moved / 1e6, 0 when not meaningful
};

void WriteJson(std::ostream& os, const ipscope::sim::WorldConfig& cfg,
               const std::vector<StageResult>& stages, double total) {
  os << "{\n  \"bench\": \"ingest\",\n"
     << "  \"schema_version\": 2,\n"
     << "  \"client_blocks\": " << cfg.target_client_blocks << ",\n"
     << "  \"seed\": " << cfg.seed << ",\n"
     << "  \"unix_time\": " << std::time(nullptr) << ",\n";
  ipscope::bench::WriteHardwareJson(os, ipscope::bench::DetectHardware());
  os << ",\n  \"runs\": [\n    {\"threads\": 1, \"total_seconds\": " << total
     << ", \"stages\": {\n";
  for (std::size_t s = 0; s < stages.size(); ++s) {
    const StageResult& st = stages[s];
    os << "      \"" << st.name << "\": {\"seconds\": " << st.seconds;
    if (st.mbytes > 0 && st.seconds > 0) {
      os << ", \"mb\": " << st.mbytes
         << ", \"mb_per_s\": " << st.mbytes / st.seconds;
    }
    os << "}" << (s + 1 < stages.size() ? "," : "") << "\n";
  }
  os << "    }}\n  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  using ipscope::ingest::SliceDays;
  using ipscope::ingest::StoreBytes;
  auto config = ipscope::bench::ConfigFromArgs(argc, argv, 2000);
  std::cout << "ingest: " << config.target_client_blocks
            << " client blocks, seed " << config.seed << "\n";

  ipscope::sim::World world{config};
  auto full = ipscope::cdn::Observatory::Daily(world).BuildStore();
  const int days = full.days();
  auto bulk = SliceDays(full, 0, days - 2);
  auto last_day = SliceDays(full, days - 1, days - 1);

  fs::path root = fs::temp_directory_path() /
                  ("ipscope_bench_ingest_" + std::to_string(::getpid()));
  fs::remove_all(root);
  fs::path batch_file = root / "batch.ips2";
  fs::path store_dir = root / "sharded";
  fs::create_directories(root);

  std::vector<StageResult> stages;
  double total = 0;
  auto stage = [&](const std::string& name, double mbytes, auto&& fn) {
    auto start = Clock::now();
    fn();
    stages.push_back(StageResult{name, SecondsSince(start), mbytes});
    total += stages.back().seconds;
  };

  const double full_mb = static_cast<double>(StoreBytes(full).size()) / 1e6;
  stage("batch_save", full_mb,
        [&] { ipscope::io::SaveStoreFile(full, batch_file.string()); });

  auto opened = ipscope::ingest::Session::Open(store_dir.string(), days);
  if (!opened.ok()) {
    std::cerr << "FAIL: " << opened.error().ToString() << "\n";
    return 1;
  }
  ipscope::ingest::Session session = std::move(opened).value();
  std::uint64_t delta_bytes = 0;
  stage("session_bulk", 0, [&] {
    auto r = session.Append(bulk, "bulk");
    if (!r.ok()) throw std::runtime_error(r.error().ToString());
  });
  stage("delta_append", 0, [&] {
    auto r = session.Append(last_day, "day-final");
    if (!r.ok()) throw std::runtime_error(r.error().ToString());
    delta_bytes = r.value().shard_bytes;
  });
  stages.back().mbytes = static_cast<double>(delta_bytes) / 1e6;
  stage("delta_replay", 0, [&] {
    auto r = session.Append(last_day, "day-final");
    if (!r.ok() || r.value().applied) {
      throw std::runtime_error("replay was not an idempotent no-op");
    }
  });

  std::string sharded_image;
  stage("sharded_load", full_mb, [&] {
    auto r = session.Load();
    if (!r.ok()) throw std::runtime_error(r.error().ToString());
    sharded_image = StoreBytes(r.value());
  });
  stage("single_load", full_mb, [&] {
    auto loaded = ipscope::io::LoadStoreFile(batch_file.string());
    if (loaded.BlockCount() != full.BlockCount()) {
      throw std::runtime_error("batch reload lost blocks");
    }
  });

  if (sharded_image != StoreBytes(full)) {
    std::cerr << "FAIL: composed sharded store is not bit-identical to the "
                 "batch build\n";
    return 1;
  }
  std::cout << "determinism: sharded compose is bit-identical to the batch "
               "build ("
            << full.BlockCount() << " blocks, " << days << " days)\n\n";

  std::printf("%-14s %10s %12s\n", "stage", "seconds", "MB/s");
  for (const StageResult& st : stages) {
    std::printf("%-14s %10.4f", st.name.c_str(), st.seconds);
    if (st.mbytes > 0 && st.seconds > 0) {
      std::printf(" %12.1f", st.mbytes / st.seconds);
    }
    std::printf("\n");
  }
  double batch = stages[0].seconds, delta = stages[2].seconds;
  if (delta > 0) {
    std::printf("%-14s %9.1fx  (batch_save / delta_append)\n",
                "incremental", batch / delta);
  }

  std::ostringstream doc;
  WriteJson(doc, config, stages, total);
  if (auto error = ipscope::io::WriteFileAtomic("BENCH_ingest.json",
                                                doc.view())) {
    std::cerr << "FAIL: " << *error << "\n";
    return 1;
  }
  std::cout << "\nwrote BENCH_ingest.json\n";
  fs::remove_all(root);
  return 0;
}
