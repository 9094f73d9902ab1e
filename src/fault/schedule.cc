#include "fault/schedule.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <utility>

#include "fault/crash.h"

namespace ipscope::fault {

namespace {

struct KindInfo {
  FaultKind kind;
  const char* name;
  bool integral;     // value must be a non-negative integer
  bool fractional;   // value must lie in (0, 1]
  bool stringy;      // value is a string operand (FaultSpec::text)
  double fallback;   // value when "name" appears without "=value"
};

constexpr KindInfo kKinds[] = {
    {FaultKind::kDropDays, "drop-days", true, false, false, 1},
    {FaultKind::kDropDay, "drop-day", true, false, false, 0},
    {FaultKind::kDropSnapshots, "drop-snapshots", true, false, false, 1},
    {FaultKind::kTruncateStore, "truncate-store", false, true, false, 0.5},
    {FaultKind::kFlipBytes, "flip-bytes", true, false, false, 1},
    {FaultKind::kDupRows, "dup-rows", false, true, false, 0.1},
    {FaultKind::kCrashAt, "crash-at", false, false, true, 0},
};

const KindInfo* FindKind(const std::string& name) {
  for (const KindInfo& info : kKinds) {
    if (name == info.name) return &info;
  }
  return nullptr;
}

const KindInfo& InfoOf(FaultKind kind) {
  for (const KindInfo& info : kKinds) {
    if (info.kind == kind) return info;
  }
  return kKinds[0];  // unreachable: every kind is in the table
}

}  // namespace

const char* FaultKindName(FaultKind kind) { return InfoOf(kind).name; }

bool Schedule::Has(FaultKind kind) const {
  for (const FaultSpec& f : faults) {
    if (f.kind == kind) return true;
  }
  return false;
}

double Schedule::TotalValue(FaultKind kind) const {
  double total = 0.0;
  for (const FaultSpec& f : faults) {
    if (f.kind == kind) total += f.value;
  }
  return total;
}

std::string Schedule::ToString() const {
  std::string out;
  for (const FaultSpec& f : faults) {
    if (!out.empty()) out += ",";
    out += FaultKindName(f.kind);
    out += "=";
    const KindInfo& info = InfoOf(f.kind);
    if (info.stringy) {
      out += f.text;
    } else if (info.integral) {
      out += std::to_string(static_cast<long long>(f.value));
    } else {
      // Shortest fixed rendering that round-trips the grammar values used
      // in practice (two decimals is the CLI's own precision).
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", f.value);
      out += buf;
    }
  }
  return out;
}

bool ParseSchedule(const std::string& text, Schedule* schedule,
                   std::string* error) {
  Schedule out;
  out.seed = schedule->seed;  // the seed is the caller's to set
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find_first_of(",;", pos);
    if (end == std::string::npos) end = text.size();
    std::string entry = text.substr(pos, end - pos);
    pos = end + 1;
    // Trim surrounding spaces.
    while (!entry.empty() && entry.front() == ' ') entry.erase(0, 1);
    while (!entry.empty() && entry.back() == ' ') entry.pop_back();
    if (entry.empty()) continue;

    // crash-at takes a string operand and also accepts ':' as its
    // separator (the chaos grammar's crash-at:<point> form); the numeric
    // kinds never contain ':' so find_first_of changes nothing for them.
    std::size_t eq = entry.find_first_of("=:");
    std::string name = entry.substr(0, eq);
    const KindInfo* info = FindKind(name);
    if (info == nullptr) {
      *error = "unknown fault '" + name + "' (see fault/schedule.h grammar)";
      return false;
    }
    if (info->stringy) {
      if (eq == std::string::npos || eq + 1 >= entry.size()) {
        *error = name + ": expected a crash-point name (see fault/crash.h)";
        return false;
      }
      std::string point = entry.substr(eq + 1);
      if (!IsCrashPoint(point)) {
        std::string known;
        for (const std::string& p : CrashPoints()) {
          if (!known.empty()) known += ", ";
          known += p;
        }
        *error = name + ": unknown crash point '" + point +
                 "' (registered: " + known + ")";
        return false;
      }
      out.faults.push_back(FaultSpec{info->kind, 0.0, std::move(point)});
      continue;
    }
    double value = info->fallback;
    if (eq != std::string::npos) {
      std::string text_value = entry.substr(eq + 1);
      const char* last = text_value.data() + text_value.size();
      auto [ptr, ec] = std::from_chars(text_value.data(), last, value);
      if (ec != std::errc{} || ptr != last || text_value.empty()) {
        *error = name + ": expected a number, got '" + text_value + "'";
        return false;
      }
    }
    if (info->integral &&
        (value < 0 || value != std::floor(value) || value > 1e9)) {
      *error = name + ": expected a non-negative integer, got '" +
               std::to_string(value) + "'";
      return false;
    }
    if (info->fractional && (value <= 0.0 || value > 1.0)) {
      *error = name + ": expected a fraction in (0, 1], got '" +
               std::to_string(value) + "'";
      return false;
    }
    out.faults.push_back(FaultSpec{info->kind, value, {}});
  }
  *schedule = std::move(out);
  return true;
}

}  // namespace ipscope::fault
