// ActivityMatrix: the per-/24 spatio-temporal activity bitmap.
//
// This is the paper's core data structure (Section 5): for one /24 block,
// a days x 256 bit matrix where bit (d, h) is set iff address .h was active
// (issued at least one successful request) on day d. Figures 6 and 7 are
// direct renderings of such matrices; the filling degree (FD) and
// spatio-temporal utilization (STU) metrics are reductions over them.
//
// Storage is 4 x 64-bit words per day, row-major by day, so day slices are
// contiguous and all reductions are popcount loops.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

namespace ipscope::activity {

// A 256-bit day slice: which of the 256 host offsets were active.
using DayBits = std::array<std::uint64_t, 4>;

// Active hosts in a day slice: the reduction behind FD, STU and churn.
// Without the popcnt instruction (the baseline x86-64 target) a bare
// std::popcount compiles to a call into libgcc's __popcountdi2, so that
// build sums the four words' per-byte counts and folds them with one
// multiply instead. Lint rule perf.popcount keeps every other popcount in
// the tree going through here or PopCountHw below.
constexpr int PopCount(const DayBits& bits) {
#if defined(__POPCNT__)
  return std::popcount(bits[0]) + std::popcount(bits[1]) +
         std::popcount(bits[2]) + std::popcount(bits[3]);
#else
  constexpr std::uint64_t k1 = 0x5555555555555555;
  constexpr std::uint64_t k2 = 0x3333333333333333;
  constexpr std::uint64_t k4 = 0x0f0f0f0f0f0f0f0f;
  constexpr std::uint64_t k8 = 0x00ff00ff00ff00ff;
  auto byte_counts = [](std::uint64_t x) {  // each byte in [0, 8]
    x -= (x >> 1) & k1;
    x = (x & k2) + ((x >> 2) & k2);
    return (x + (x >> 4)) & k4;
  };
  // Bytes in [0, 32]; pairing them into 16-bit lanes lets the multiply's
  // top lane hold the full count of 256.
  std::uint64_t sum = byte_counts(bits[0]) + byte_counts(bits[1]) +
                      byte_counts(bits[2]) + byte_counts(bits[3]);
  sum = (sum & k8) + ((sum >> 8) & k8);
  return static_cast<int>((sum * 0x0001000100010001) >> 48);
#endif
}

// Active hosts in a day slice through the CPU's popcount instruction.
// Call it only from a function compiled for popcnt: one marked
// [[gnu::target("popcnt")]] and run only when PopCountHwAvailable(), or
// any function of a build whose target has popcnt. It is always inlined,
// and inlined anywhere else it is four libgcc __popcountdi2 calls. It
// carries no target attribute itself, so that it can be inlined through
// the templates between it and such a function.
[[gnu::always_inline]] inline int PopCountHw(const DayBits& bits) {
  return __builtin_popcountll(bits[0]) + __builtin_popcountll(bits[1]) +
         __builtin_popcountll(bits[2]) + __builtin_popcountll(bits[3]);
}

// True iff this CPU executes the popcnt instruction.
bool PopCountHwAvailable();

constexpr DayBits OrBits(const DayBits& a, const DayBits& b) {
  return {a[0] | b[0], a[1] | b[1], a[2] | b[2], a[3] | b[3]};
}

constexpr DayBits AndNotBits(const DayBits& a, const DayBits& b) {
  return {a[0] & ~b[0], a[1] & ~b[1], a[2] & ~b[2], a[3] & ~b[3]};
}

constexpr DayBits AndBits(const DayBits& a, const DayBits& b) {
  return {a[0] & b[0], a[1] & b[1], a[2] & b[2], a[3] & b[3]};
}

constexpr DayBits XorBits(const DayBits& a, const DayBits& b) {
  return {a[0] ^ b[0], a[1] ^ b[1], a[2] ^ b[2], a[3] ^ b[3]};
}

// Sets host bits [lo, hi) — word-at-a-time, no per-bit loop. No-op when
// hi <= lo. Bounds must lie in [0, 256].
constexpr void SetBitRange(DayBits& bits, int lo, int hi) {
  if (hi <= lo) return;
  for (int w = lo >> 6; w < ((hi + 63) >> 6); ++w) {
    int wlo = lo > w * 64 ? lo - w * 64 : 0;
    int whi = hi < (w + 1) * 64 ? hi - w * 64 : 64;
    std::uint64_t span = whi - wlo >= 64
                             ? ~std::uint64_t{0}
                             : ((std::uint64_t{1} << (whi - wlo)) - 1);
    bits[static_cast<std::size_t>(w)] |= span << wlo;
  }
}

constexpr bool TestBit(const DayBits& bits, int host) {
  return (bits[static_cast<std::size_t>(host >> 6)] >>
          (static_cast<unsigned>(host) & 63u)) &
         1u;
}

constexpr void SetBit(DayBits& bits, int host) {
  bits[static_cast<std::size_t>(host >> 6)] |=
      std::uint64_t{1} << (static_cast<unsigned>(host) & 63u);
}

// Calls fn(host) for every set bit, in ascending host order — one
// count-trailing-zeros per active host instead of 256 TestBit probes.
template <typename Fn>
constexpr void ForEachSetBit(const DayBits& bits, Fn&& fn) {
  for (int w = 0; w < 4; ++w) {
    for (std::uint64_t word = bits[static_cast<std::size_t>(w)]; word != 0;
         word &= word - 1) {
      fn(w * 64 + std::countr_zero(word));
    }
  }
}

class ActivityMatrix {
 public:
  // A matrix covering `days` consecutive days (day indices 0 .. days-1),
  // with its own row storage.
  explicit ActivityMatrix(int days);

  // A matrix viewing `days` rows of externally-owned storage (an
  // ActivityStore arena). The matrix does not own `rows`; the owner must
  // keep them alive and address-stable for the matrix's lifetime.
  ActivityMatrix(int days, DayBits* rows);

  // Copying always deep-copies into owned storage, so a copy of an
  // arena-backed view is an independent matrix, never an alias.
  ActivityMatrix(const ActivityMatrix& other);
  ActivityMatrix& operator=(const ActivityMatrix& other);
  // Moving preserves the storage mode: owned rows transfer (vector move
  // keeps the heap buffer stable), views keep pointing at the arena.
  ActivityMatrix(ActivityMatrix&& other) noexcept;
  ActivityMatrix& operator=(ActivityMatrix&& other) noexcept;

  int days() const { return days_; }

  void Set(int day, int host) { SetBit(Row(day), host); }
  bool Get(int day, int host) const { return TestBit(Row(day), host); }

  DayBits& Row(int day) { return rows_[day]; }
  const DayBits& Row(int day) const { return rows_[day]; }

  // Number of active addresses on one day.
  int ActiveOnDay(int day) const { return PopCount(Row(day)); }

  // Union of day slices over [day_first, day_last) — the set of addresses
  // active at least once in the window.
  DayBits UnionOver(int day_first, int day_last) const;

  // Filling degree over a window: |union| in [1, 256] (0 if nothing active).
  int FillingDegree(int day_first, int day_last) const {
    return PopCount(UnionOver(day_first, day_last));
  }
  int FillingDegree() const { return FillingDegree(0, days_); }

  // Spatio-temporal activity: total active (address, day) pairs in a window.
  // Max is 256 * window length.
  std::int64_t SpatioTemporalActivity(int day_first, int day_last) const;

  // Spatio-temporal utilization in [0, 1]: activity / (256 * window days).
  double Stu(int day_first, int day_last) const;
  double Stu() const { return Stu(0, days_); }

  // Number of days on which a given host offset was active.
  int HostActiveDays(int host) const;

  // Active-day counts for all 256 hosts in one pass over the rows instead
  // of 256 separate column walks. The per-block input to the paper's
  // host-days dispersion feature (Fig 8).
  std::array<std::uint16_t, 256> HostActiveDayCounts() const;

  // True iff no bit is set.
  bool Empty() const;

 private:
  int days_;
  DayBits* rows_ = nullptr;  // own_.data(), or an external arena
  std::vector<DayBits> own_;  // empty when viewing external storage
};

}  // namespace ipscope::activity
