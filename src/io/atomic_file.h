// Durable whole-file replacement: write-temp → flush → fsync → close →
// atomic rename, every return value checked.
//
// This is the one primitive every output path in the project goes through
// (store files, metrics/trace dumps, ipscope_bench reports, the ingest
// MANIFEST), so a killed process can never leave a truncated file under
// the final name: readers either see the previous complete content or the
// new complete content, nothing in between. The temp file lives in the
// same directory as the target (rename(2) is only atomic within one
// filesystem) under the fixed suffix ".tmp", which is what the ingest
// recovery scan quarantines after a crash.
//
// The hooks exist for crash-point fault injection (fault/crash.h): the
// ingest commit protocol registers a callback at every syscall boundary so
// the chaos-crash gate can kill the process at each one and prove
// recovery. Production callers pass no hooks and pay nothing.
//
// This header is dependency-free by design (no obs, no StoreError): it
// sits below both src/obs and src/io's store layer in the link graph, so
// either can use it. Errors come back as a human-readable message naming
// the failed stage and strerror(errno); callers wrap them in their own
// error taxonomy.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

namespace ipscope::io {

// The suffix every in-flight temp file carries; a crash leaves it behind
// and recovery (ingest::Session::Open) quarantines it.
inline constexpr std::string_view kTempSuffix = ".tmp";

// "<path>.tmp" — the temp name WriteFileAtomic uses for `path`.
std::string TempPathFor(const std::string& path);

struct AtomicWriteHooks {
  // Invoked at each syscall boundary, in order: "pre-temp-write" (before
  // the temp file is created), "mid-write" (only when split_at is set, see
  // below), "pre-fsync", "pre-rename". The callback may terminate the
  // process (that is the point); it must not write to the same file.
  std::function<void(std::string_view stage)> at;
  // When in (0, content.size()), the temp write is issued as two write(2)
  // calls split at this byte with "mid-write" fired between them — the
  // crash gate uses this to land a kill inside a partially written file.
  std::uint64_t split_at = 0;
};

// Replaces the contents of `path` with `content` durably (the data and the
// directory entry are both fsynced). Returns std::nullopt on success,
// otherwise "<stage> failed for <path>: <strerror>" with the temp file
// best-effort removed. Never leaves a partial file under the final name.
[[nodiscard]] std::optional<std::string> WriteFileAtomic(
    const std::string& path, std::string_view content,
    const AtomicWriteHooks* hooks = nullptr);

}  // namespace ipscope::io
