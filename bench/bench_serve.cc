// Query-daemon benchmark: per-request latency (p50/p99) and QPS for the
// serve router, swept over client thread counts {1, 2, ceil(half), all}
// (deduplicated), plus a reload-race phase that hammers the server while
// snapshots flip underneath it. Every response — including memoized
// aggregates and responses raced against Reload — is byte-compared to the
// DirectAnswer oracle for the snapshot id it claims, so the benchmark
// doubles as a correctness gate: a single divergent byte fails the run.
// Writes BENCH_serve.json (bench-JSON v2; baseline_only on 1-thread hosts).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cdn/observatory.h"
#include "common.h"
#include "io/atomic_file.h"
#include "netbase/prefix.h"
#include "obs/json.h"
#include "par/pool.h"
#include "serve/frame.h"
#include "serve/server.h"

namespace {

using Clock = std::chrono::steady_clock;
namespace serve = ipscope::serve;
namespace activity = ipscope::activity;

struct RunResult {
  int threads = 1;
  std::uint64_t requests = 0;
  double total_seconds = 0;
  double p50_seconds = 0;
  double p99_seconds = 0;
  double qps = 0;
  std::uint64_t mismatches = 0;
};

// The request mix a daemon actually sees: mostly cheap point lookups, a
// steady trickle of whole-store aggregations.
std::vector<std::string> RequestMix(const activity::ActivityStore& store,
                                    std::uint32_t asn) {
  std::vector<std::string> bodies;
  auto keys = store.keys();
  for (std::size_t i = 0; i < 16 && !keys.empty(); ++i) {
    ipscope::net::BlockKey key = keys[i * (keys.size() - 1) / 15];
    bodies.push_back(R"({"endpoint": "point", "block": ")" +
                     ipscope::net::BlockFromKey(key).ToString() + "\"}");
  }
  bodies.push_back(R"({"endpoint": "summary"})");
  bodies.push_back(R"({"endpoint": "churn", "window": 7})");
  bodies.push_back(R"({"endpoint": "patterns"})");
  if (!keys.empty()) {
    ipscope::net::Prefix p16{
        ipscope::net::IPv4Addr{(keys.front() << 8) & 0xFFFF0000u}, 16};
    bodies.push_back(R"({"endpoint": "prefix", "prefix": ")" +
                     p16.ToString() + "\"}");
  }
  bodies.push_back(R"({"endpoint": "as", "asn": )" + std::to_string(asn) +
                   "}");
  return bodies;
}

RunResult RunSwarm(serve::Server& server, const std::vector<std::string>& mix,
                   const std::vector<std::string>& expected, int threads,
                   int requests_per_thread) {
  RunResult run;
  run.threads = threads;
  std::vector<std::vector<double>> latencies(
      static_cast<std::size_t>(threads));
  std::atomic<std::uint64_t> mismatches{0};
  auto wall_start = Clock::now();
  std::vector<std::thread> swarm;
  for (int t = 0; t < threads; ++t) {
    swarm.emplace_back([&, t] {
      auto& mine = latencies[static_cast<std::size_t>(t)];
      mine.reserve(static_cast<std::size_t>(requests_per_thread));
      for (int r = 0; r < requests_per_thread; ++r) {
        std::size_t i = static_cast<std::size_t>(t + r) % mix.size();
        auto start = Clock::now();
        std::string got = server.HandleRequest(mix[i]);
        mine.push_back(
            std::chrono::duration<double>(Clock::now() - start).count());
        if (got != expected[i]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : swarm) t.join();
  run.total_seconds =
      std::chrono::duration<double>(Clock::now() - wall_start).count();
  run.mismatches = mismatches.load();

  std::vector<double> all;
  for (const auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  run.requests = all.size();
  if (!all.empty()) {
    run.p50_seconds = all[all.size() / 2];
    run.p99_seconds = all[std::min(all.size() - 1, all.size() * 99 / 100)];
    run.qps = static_cast<double>(all.size()) / run.total_seconds;
  }
  return run;
}

// Hammers the server from `threads` clients while the main thread flips
// Reload between two store versions. Each response is oracle-checked
// against the store that was installed under the snapshot id it claims
// (odd ids are version A, even are version B — Reload alternates).
std::uint64_t ReloadRace(serve::Server& server,
                         const activity::ActivityStore& oracle_a,
                         const activity::ActivityStore& oracle_b,
                         const std::vector<std::string>& mix, int threads,
                         int reloads) {
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> mismatches{0};
  std::vector<std::thread> swarm;
  for (int t = 0; t < std::max(1, threads); ++t) {
    swarm.emplace_back([&, t] {
      int i = t;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string& body =
            mix[static_cast<std::size_t>(i++) % mix.size()];
        std::string got = server.HandleRequest(body);
        auto doc = ipscope::obs::json::Parse(got);
        const ipscope::obs::json::Value* id_field = doc.Find("snapshot");
        std::uint64_t id =
            id_field ? static_cast<std::uint64_t>(id_field->AsNumber()) : 0;
        const activity::ActivityStore& oracle =
            (id % 2 == 1) ? oracle_a : oracle_b;
        if (got != serve::Server::DirectAnswer(oracle, id, {}, body)) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int r = 0; r < reloads; ++r) {
    // Odd installs (ids 2, 4, ...) are B, then back to A, alternating.
    server.Reload(activity::ActivityStore{
        r % 2 == 0 ? oracle_b : oracle_a});
    std::this_thread::yield();
  }
  stop.store(true);
  for (std::thread& t : swarm) t.join();

  // Quiesced: a fresh request must report the final snapshot id (a request
  // answered from a stale pin fails here).
  std::string fresh = server.HandleRequest(mix.front());
  auto doc = ipscope::obs::json::Parse(fresh);
  const ipscope::obs::json::Value* id_field = doc.Find("snapshot");
  if (id_field == nullptr ||
      static_cast<std::uint64_t>(id_field->AsNumber()) !=
          server.snapshot_id()) {
    mismatches.fetch_add(1, std::memory_order_relaxed);
  }
  return mismatches.load();
}

void WriteJson(std::ostream& os, const ipscope::sim::WorldConfig& cfg,
               const std::vector<RunResult>& runs) {
  os << "{\n  \"bench\": \"serve\",\n"
     << "  \"schema_version\": 2,\n"
     << "  \"client_blocks\": " << cfg.target_client_blocks << ",\n"
     << "  \"seed\": " << cfg.seed << ",\n"
     << "  \"unix_time\": " << std::time(nullptr) << ",\n";
  ipscope::bench::WriteHardwareJson(os, ipscope::bench::DetectHardware());
  os << ",\n  \"runs\": [\n";
  for (std::size_t r = 0; r < runs.size(); ++r) {
    const RunResult& run = runs[r];
    os << "    {\"threads\": " << run.threads
       << ", \"total_seconds\": " << run.total_seconds
       << ", \"requests\": " << run.requests << ", \"qps\": " << run.qps
       << ", \"stages\": {\n"
       << "      \"latency_p50\": {\"seconds\": " << run.p50_seconds
       << "},\n"
       << "      \"latency_p99\": {\"seconds\": " << run.p99_seconds << "}\n"
       << "    }}" << (r + 1 < runs.size() ? "," : "") << "\n";
  }
  // Same convention as bench_pipeline: a single-run sweep (1-hardware-
  // thread host) cannot measure scaling, so mark the report baseline_only
  // instead of fabricating a 1x speedup; benchdiff treats it as advisory.
  if (runs.size() < 2) {
    os << "  ],\n  \"baseline_only\": true\n}\n";
    return;
  }
  const RunResult& serial = runs.front();
  const RunResult& parallel = runs.back();
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  os << "  ],\n  \"speedup\": {\n"
     << "    \"latency_p50\": " << ratio(serial.p50_seconds,
                                          parallel.p50_seconds) << ",\n"
     << "    \"latency_p99\": " << ratio(serial.p99_seconds,
                                          parallel.p99_seconds) << ",\n"
     << "    \"total\": " << ratio(parallel.qps, serial.qps) << "\n  }\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  auto config = ipscope::bench::ConfigFromArgs(argc, argv);
  std::cout << "serve bench: building world (" << config.target_client_blocks
            << " client blocks)\n";
  ipscope::sim::World world{config};
  auto attribution = serve::Server::AttributionFromWorld(world);
  auto store = ipscope::cdn::Observatory::Daily(world).BuildStore();
  activity::ActivityStore oracle_a = store;
  activity::ActivityStore oracle_b = store;
  oracle_b.SetDayCovered(0, false);

  std::uint32_t asn = attribution.empty() ? 0 : attribution.front().asn;
  auto mix = RequestMix(store, asn);
  std::vector<std::string> expected;
  for (const std::string& body : mix) {
    expected.push_back(
        serve::Server::DirectAnswer(oracle_a, 1, attribution, body));
  }

  int max_threads = ipscope::par::DefaultThreads();
  std::vector<int> sweep{1};
  for (int t : {2, (max_threads + 1) / 2, max_threads}) {
    if (t > 1 && t <= max_threads &&
        std::find(sweep.begin(), sweep.end(), t) == sweep.end()) {
      sweep.push_back(t);
    }
  }
  std::sort(sweep.begin(), sweep.end());

  const int requests_per_thread = 400;
  std::vector<RunResult> runs;
  std::uint64_t total_mismatches = 0;
  for (int t : sweep) {
    // A fresh server per thread count: every run starts with no aggregate
    // memoized, so p50/p99 are comparable across the sweep.
    serve::Server server{activity::ActivityStore{oracle_a}};
    server.SetAttribution(attribution);
    runs.push_back(RunSwarm(server, mix, expected, t, requests_per_thread));
    total_mismatches += runs.back().mismatches;
    std::printf(
        "serve: threads=%d  requests=%llu  p50=%.1fus  p99=%.1fus  "
        "qps=%.0f\n",
        t, static_cast<unsigned long long>(runs.back().requests),
        runs.back().p50_seconds * 1e6, runs.back().p99_seconds * 1e6,
        runs.back().qps);
  }

  // Reload-race correctness phase (not timed into the sweep): snapshots
  // flip underneath the swarm; every response must match the oracle for
  // the snapshot id it claims.
  serve::Server race_server{activity::ActivityStore{oracle_a}};
  std::uint64_t race_mismatches = ReloadRace(
      race_server, oracle_a, oracle_b, mix, std::min(4, max_threads + 1), 8);
  std::printf("serve: reload race: %llu mismatches over 8 reloads\n",
              static_cast<unsigned long long>(race_mismatches));

  if (total_mismatches + race_mismatches > 0) {
    std::cerr << "FAIL: " << total_mismatches + race_mismatches
              << " responses diverged from the DirectAnswer oracle\n";
    return 1;
  }
  std::cout << "oracle: every served response bit-identical to direct "
               "store/analysis calls\n";

  std::ostringstream doc;
  WriteJson(doc, config, runs);
  if (auto error =
          ipscope::io::WriteFileAtomic("BENCH_serve.json", doc.view())) {
    std::cerr << "FAIL: " << *error << "\n";
    return 1;
  }
  std::cout << "wrote BENCH_serve.json\n";
  return 0;
}
