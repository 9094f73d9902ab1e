// Shared setup for the bench-JSON harnesses (bench_pipeline, bench_serve,
// bench_ingest).
//
// Every harness accepts the world scale as argv[1] (number of client /24
// blocks; default 4000) and an optional seed as argv[2], and embeds a host
// and toolchain fingerprint in its report. The paper experiments are not
// harnesses: `ipscope_cli reproduce` runs them (src/analysis/experiments.h).
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "obs/json.h"
#include "sim/config.h"

// Injected by bench/CMakeLists.txt so every report records the toolchain
// that produced it; "unknown" keeps standalone compiles working.
#ifndef IPSCOPE_BENCH_FLAGS
#define IPSCOPE_BENCH_FLAGS "unknown"
#endif
#ifndef IPSCOPE_BENCH_GIT_SHA
#define IPSCOPE_BENCH_GIT_SHA "unknown"
#endif

namespace ipscope::bench {

// Host + toolchain fingerprint embedded in every bench-JSON v2 report.
// `ipscope_cli benchdiff` refuses to gate on timing deltas between reports
// whose fingerprints differ — a number measured on a 1-thread CI container
// must never fail (or pass) a check against a 16-core workstation.
struct HardwareInfo {
  std::string cpu_model;
  int hardware_threads = 0;
  std::string compiler;
  std::string flags;
  std::string git_sha;
};

inline HardwareInfo DetectHardware() {
  HardwareInfo hw;
  unsigned n = std::thread::hardware_concurrency();
  hw.hardware_threads = n == 0 ? 1 : static_cast<int>(n);
  // First "model name" row of /proc/cpuinfo; absent (non-Linux, stripped
  // containers) stays "unknown" rather than guessing.
  std::ifstream cpuinfo{"/proc/cpuinfo"};
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    auto start = line.find_first_not_of(" \t", colon + 1);
    if (start != std::string::npos) hw.cpu_model = line.substr(start);
    break;
  }
  if (hw.cpu_model.empty()) hw.cpu_model = "unknown";
#if defined(__clang__)
  hw.compiler = "clang " + std::to_string(__clang_major__) + "." +
                std::to_string(__clang_minor__) + "." +
                std::to_string(__clang_patchlevel__);
#elif defined(__GNUC__)
  hw.compiler = "gcc " + std::to_string(__GNUC__) + "." +
                std::to_string(__GNUC_MINOR__) + "." +
                std::to_string(__GNUC_PATCHLEVEL__);
#else
  hw.compiler = "unknown";
#endif
  hw.flags = IPSCOPE_BENCH_FLAGS;
  hw.git_sha = IPSCOPE_BENCH_GIT_SHA;
  return hw;
}

// The `"hardware": {...}` member of a bench-JSON v2 document (no trailing
// comma or newline; `indent` prefixes every line).
inline void WriteHardwareJson(std::ostream& os, const HardwareInfo& hw,
                              const std::string& indent = "  ") {
  os << indent << "\"hardware\": {\n"
     << indent << "  \"cpu_model\": \"" << obs::json::Escape(hw.cpu_model)
     << "\",\n"
     << indent << "  \"hardware_threads\": " << hw.hardware_threads << ",\n"
     << indent << "  \"compiler\": \"" << obs::json::Escape(hw.compiler)
     << "\",\n"
     << indent << "  \"flags\": \"" << obs::json::Escape(hw.flags) << "\",\n"
     << indent << "  \"git_sha\": \"" << obs::json::Escape(hw.git_sha)
     << "\"\n"
     << indent << "}";
}

namespace detail {

// Whole-string checked parse: rejects empty input, trailing junk, and
// out-of-range values (unlike the atoi/atoll this replaced, which silently
// turned garbage into 0).
template <typename T>
inline bool ParseNumber(const char* text, T& out) {
  const char* last = text + std::strlen(text);
  if (text == last) return false;
  auto [ptr, ec] = std::from_chars(text, last, out);
  return ec == std::errc{} && ptr == last;
}

[[noreturn]] inline void UsageExit(const char* argv0) {
  std::cerr << "usage: " << argv0 << " [client_blocks] [seed]\n"
            << "  client_blocks  positive integer world scale "
               "(default 4000)\n"
            << "  seed           unsigned integer RNG seed\n";
  std::exit(2);
}

}  // namespace detail

inline sim::WorldConfig ConfigFromArgs(int argc, char** argv,
                                       int default_blocks = 4000) {
  sim::WorldConfig config;
  config.target_client_blocks = default_blocks;
  if (argc > 1) {
    int blocks = 0;
    if (!detail::ParseNumber(argv[1], blocks) || blocks <= 0) {
      detail::UsageExit(argv[0]);
    }
    config.target_client_blocks = blocks;
  }
  if (argc > 2) {
    std::uint64_t seed = 0;
    if (!detail::ParseNumber(argv[2], seed)) {
      detail::UsageExit(argv[0]);
    }
    config.seed = seed;
  }
  return config;
}

}  // namespace ipscope::bench
