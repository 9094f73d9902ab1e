#include "activity/matrix.h"

#include <cassert>

namespace ipscope::activity {

ActivityMatrix::ActivityMatrix(int days) : days_(days) {
  assert(days > 0);
  own_.assign(static_cast<std::size_t>(days), DayBits{});
  rows_ = own_.data();
}

ActivityMatrix::ActivityMatrix(int days, DayBits* rows)
    : days_(days), rows_(rows) {
  assert(days > 0);
  assert(rows != nullptr);
}

ActivityMatrix::ActivityMatrix(const ActivityMatrix& other)
    : days_(other.days_), own_(other.rows_, other.rows_ + other.days_) {
  rows_ = own_.data();
}

ActivityMatrix& ActivityMatrix::operator=(const ActivityMatrix& other) {
  if (this == &other) return *this;
  days_ = other.days_;
  own_.assign(other.rows_, other.rows_ + other.days_);
  rows_ = own_.data();
  return *this;
}

ActivityMatrix::ActivityMatrix(ActivityMatrix&& other) noexcept
    : days_(other.days_), own_(std::move(other.own_)) {
  rows_ = own_.empty() ? other.rows_ : own_.data();
  other.rows_ = nullptr;
}

ActivityMatrix& ActivityMatrix::operator=(ActivityMatrix&& other) noexcept {
  if (this == &other) return *this;
  days_ = other.days_;
  own_ = std::move(other.own_);
  rows_ = own_.empty() ? other.rows_ : own_.data();
  other.rows_ = nullptr;
  return *this;
}

DayBits ActivityMatrix::UnionOver(int day_first, int day_last) const {
  assert(day_first >= 0 && day_last <= days_);
  DayBits acc{};
  for (int d = day_first; d < day_last; ++d) acc = OrBits(acc, Row(d));
  return acc;
}

std::int64_t ActivityMatrix::SpatioTemporalActivity(int day_first,
                                                    int day_last) const {
  assert(day_first >= 0 && day_last <= days_);
  std::int64_t total = 0;
  for (int d = day_first; d < day_last; ++d) total += ActiveOnDay(d);
  return total;
}

double ActivityMatrix::Stu(int day_first, int day_last) const {
  int window = day_last - day_first;
  if (window <= 0) return 0.0;
  return static_cast<double>(SpatioTemporalActivity(day_first, day_last)) /
         (256.0 * window);
}

int ActivityMatrix::HostActiveDays(int host) const {
  const std::size_t w = static_cast<std::size_t>(host >> 6);
  const unsigned b = static_cast<unsigned>(host) & 63u;
  int count = 0;
  for (int d = 0; d < days_; ++d) {
    count += static_cast<int>((rows_[d][w] >> b) & 1u);
  }
  return count;
}

std::array<std::uint16_t, 256> ActivityMatrix::HostActiveDayCounts() const {
  // Bit-sliced counters: plane k holds bit k of every host's running
  // count, so adding a day is a carry ripple of whole-row AND/XOR (it dies
  // out after about two planes) rather than one increment per set bit.
  // Eight planes count to 255, so every 255 days they are spilled into
  // `counts`, 2^k per set bit of plane k, and restart from zero.
  constexpr int kPlanes = 8;
  constexpr int kSpillDays = (1 << kPlanes) - 1;
  std::array<std::uint16_t, 256> counts{};
  std::array<DayBits, kPlanes> planes{};
  auto spill = [&counts, &planes] {
    for (int k = 0; k < kPlanes; ++k) {
      DayBits& plane = planes[static_cast<std::size_t>(k)];
      ForEachSetBit(plane, [&counts, k](int host) {
        counts[static_cast<std::size_t>(host)] += std::uint16_t{1} << k;
      });
      plane = DayBits{};
    }
  };
  for (int d = 0; d < days_; ++d) {
    DayBits carry = rows_[d];
    for (std::size_t k = 0; (carry[0] | carry[1] | carry[2] | carry[3]) != 0;
         ++k) {
      const DayBits both = AndBits(planes[k], carry);
      planes[k] = XorBits(planes[k], carry);
      carry = both;
    }
    if ((d + 1) % kSpillDays == 0) spill();
  }
  spill();
  return counts;
}

bool PopCountHwAvailable() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("popcnt");
#else
  return false;
#endif
}

bool ActivityMatrix::Empty() const {
  for (int d = 0; d < days_; ++d) {
    const DayBits& row = rows_[d];
    if ((row[0] | row[1] | row[2] | row[3]) != 0) return false;
  }
  return true;
}

}  // namespace ipscope::activity
