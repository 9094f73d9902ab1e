#include "rng/lognormal_batch.h"

#include <bit>
#include <cmath>
#include <numbers>

// This translation unit is compiled with -O3 -fno-math-errno
// -fno-trapping-math -ffp-contract=off (src/CMakeLists.txt). GCC 12
// vectorizes the lane loop only with all of the first three (sqrt must
// not set errno, the compare-and-select chains must be free to run on
// every lane); the last keeps every product and sum a separately rounded
// IEEE operation, as the error bound in the header assumes.

namespace ipscope::rng {

namespace {

// Taylor coefficient 1 / k! (exact in double up to 22!, then one
// correctly rounded division).
constexpr double InvFactorial(int k) {
  double f = 1.0;
  for (int i = 2; i <= k; ++i) f *= i;
  return 1.0 / f;
}

// ln 2 and pi/2 split Cody–Waite style: the high parts carry trailing zero
// bits, so multiplying them by the small integers used here is exact.
constexpr double kLn2Hi = 0x1.62e42feep-1;           // 32 significant bits
constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
constexpr double kInvLn2 = 0x1.71547652b82fep+0;
constexpr double kPio2Hi = 0x1.921fb544p+0;          // 33 significant bits
constexpr double kPio2Lo = 0x1.0b4611a626331p-34;
constexpr double kTwoOverPi = 0x1.45f306dc9c883p-1;
// Adding 1.5 * 2^52 rounds a double of magnitude < 2^51 to an integer,
// which then sits in the low mantissa bits.
constexpr double kRoundMagic = 0x1.8p52;
// m = u1 / 2^k lands in [sqrt(1/2), sqrt(2)) after this mantissa offset.
constexpr std::uint64_t kSqrtHalfBits = 0x3fe6a09e667f3bcdULL;
constexpr std::uint64_t kLogOffset = 0x3ff0000000000000ULL - kSqrtHalfBits;
constexpr std::uint64_t kMantissa = 0x000fffffffffffffULL;

// floor(c) for c in [1, 2^32): adding 2^52 rounds to the nearest integer,
// one step down fixes a round-up. Unlike std::floor this vectorizes
// without SSE4.1's roundpd.
[[gnu::always_inline]] inline double FloorSmall(double c) {
  const double nearest = (c + 0x1.0p52) - 0x1.0p52;
  return nearest > c ? nearest - 1.0 : nearest;
}

// One lane: the certified value, or 0. Branchless on purpose — every
// conditional is a select, so the enclosing loop vectorizes.
[[gnu::always_inline]] inline std::uint32_t Lane(double u1, double u2,
                                                 double mu, double sigma,
                                                 double scale, double cap) {
  // ln u1 = k ln2 + 2 atanh(s), s = (m - 1) / (m + 1), |s| <= 0.1716.
  const double u = u1 > 0 ? u1 : 0x1.0p-53;
  const std::uint64_t ix = std::bit_cast<std::uint64_t>(u) + kLogOffset;
  const double m = std::bit_cast<double>((ix & kMantissa) + kSqrtHalfBits);
  const double k = std::bit_cast<double>(0x4330000000000000ULL | (ix >> 52)) -
                   (0x1.0p52 + 1023.0);
  const double s = (m - 1.0) / (m + 1.0);
  const double s2 = s * s;
  double p = 1.0 / 21.0;
  p = 1.0 / 19.0 + s2 * p;
  p = 1.0 / 17.0 + s2 * p;
  p = 1.0 / 15.0 + s2 * p;
  p = 1.0 / 13.0 + s2 * p;
  p = 1.0 / 11.0 + s2 * p;
  p = 1.0 / 9.0 + s2 * p;
  p = 1.0 / 7.0 + s2 * p;
  p = 1.0 / 5.0 + s2 * p;
  p = 1.0 / 3.0 + s2 * p;
  p = 1.0 + s2 * p;
  const double log_u = k * kLn2Hi + ((s + s) * p + k * kLn2Lo);
  const double radius = std::sqrt(-2.0 * log_u);

  // cos(theta) for the scalar formula's own theta = fl(2 pi u2), reduced
  // by n quarter turns (n in 0..4) to |r| <= pi/4.
  const double theta = 2.0 * std::numbers::pi * u2;
  const double tq = theta * kTwoOverPi + kRoundMagic;
  const std::uint64_t quadrant = std::bit_cast<std::uint64_t>(tq);
  const double nq = tq - kRoundMagic;
  const double r = (theta - nq * kPio2Hi) - nq * kPio2Lo;
  const double r2 = r * r;
  double sp = -InvFactorial(17);
  sp = InvFactorial(15) + r2 * sp;
  sp = -InvFactorial(13) + r2 * sp;
  sp = InvFactorial(11) + r2 * sp;
  sp = -InvFactorial(9) + r2 * sp;
  sp = InvFactorial(7) + r2 * sp;
  sp = -InvFactorial(5) + r2 * sp;
  sp = InvFactorial(3) + r2 * sp;
  const double sin_r = r - r * (r2 * sp);
  double cp = InvFactorial(16);
  cp = -InvFactorial(14) + r2 * cp;
  cp = InvFactorial(12) + r2 * cp;
  cp = -InvFactorial(10) + r2 * cp;
  cp = InvFactorial(8) + r2 * cp;
  cp = -InvFactorial(6) + r2 * cp;
  cp = InvFactorial(4) + r2 * cp;
  cp = -InvFactorial(2) + r2 * cp;
  const double cos_r = 1.0 + r2 * cp;
  // cos(n pi/2 + r) = cos r, -sin r, -cos r, sin r for n = 0, 1, 2, 3.
  const std::uint64_t odd = 0 - (quadrant & 1);
  const std::uint64_t flip = ((quadrant + 1) & 2) << 62;
  const double cosine = std::bit_cast<double>(
      ((std::bit_cast<std::uint64_t>(sin_r) & odd) |
       (std::bit_cast<std::uint64_t>(cos_r) & ~odd)) ^
      flip);

  // exp(x) = 2^n e^t, t = x - n ln2, |t| <= ln2 / 2.
  const double x = mu + sigma * (radius * cosine);
  const double tn = x * kInvLn2 + kRoundMagic;
  const double n = tn - kRoundMagic;
  const double t = (x - n * kLn2Hi) - n * kLn2Lo;
  double ep = InvFactorial(13);
  ep = InvFactorial(12) + t * ep;
  ep = InvFactorial(11) + t * ep;
  ep = InvFactorial(10) + t * ep;
  ep = InvFactorial(9) + t * ep;
  ep = InvFactorial(8) + t * ep;
  ep = InvFactorial(7) + t * ep;
  ep = InvFactorial(6) + t * ep;
  ep = InvFactorial(5) + t * ep;
  ep = InvFactorial(4) + t * ep;
  ep = InvFactorial(3) + t * ep;
  ep = 0.5 + t * ep;
  ep = 1.0 + t * ep;
  ep = 1.0 + t * ep;
  // The exponent field (n + 1023) sits in tn's low mantissa bits.
  const double pow2 =
      std::bit_cast<double>((std::bit_cast<std::uint64_t>(tn) + 1023) << 52);
  const double w = ep * pow2 * scale;

  // `&`, not `&&`: every test runs, so the lane stays branch-free. Each
  // comparison is false for NaN.
  const bool in_domain = (u1 >= 0) & (u1 < 1) & (u2 >= 0) & (u2 < 1) &
                         (std::fabs(sigma) <= 1.5) & (std::fabs(x) < 32.0) &
                         (cap >= 1.0) & (cap < 0x1.0p32) &
                         (scale >= 0x1.0p-32) & (scale <= 0x1.0p32);
  const double lo = std::max(
      std::min(w * (1.0 - kFlooredLogNormalTolerance), cap), 1.0);
  const double hi = std::max(
      std::min(w * (1.0 + kFlooredLogNormalTolerance), cap), 1.0);
  // Out-of-domain lanes are forced to 1.0 before flooring, so no lane
  // converts an out-of-range or NaN double.
  const double floor_lo = FloorSmall(in_domain ? lo : 1.0);
  const double floor_hi = FloorSmall(in_domain ? hi : 1.0);
  const bool certified = in_domain & (floor_lo == floor_hi);
  // floor_lo is an integer in [1, 2^32): its low 32 bits after adding 2^52.
  const auto value = static_cast<std::uint32_t>(
      std::bit_cast<std::uint64_t>(floor_lo + 0x1.0p52));
  return certified ? value : 0u;
}

[[gnu::always_inline]] inline std::size_t Kernel(
    std::size_t n, const FlooredLogNormalLanes& lanes,
    std::uint32_t* __restrict out) {
  const double* __restrict u1 = lanes.u1;
  const double* __restrict u2 = lanes.u2;
  const double* __restrict mu = lanes.mu;
  const double* __restrict sigma = lanes.sigma;
  const double* __restrict scale = lanes.scale;
  const double* __restrict cap = lanes.cap;
  std::size_t fallbacks = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t v =
        Lane(u1[i], u2[i], mu[i], sigma[i], scale[i], cap[i]);
    out[i] = v;
    fallbacks += v == 0 ? 1 : 0;
  }
  return fallbacks;
}

#if defined(__x86_64__)
__attribute__((target("avx2"))) std::size_t KernelAvx2(
    std::size_t n, const FlooredLogNormalLanes& lanes, std::uint32_t* out) {
  return Kernel(n, lanes, out);
}

// The features DetectKernelTarget requires for KernelTarget::kAvx512.
__attribute__((target("avx512f,avx512dq"))) std::size_t KernelAvx512(
    std::size_t n, const FlooredLogNormalLanes& lanes, std::uint32_t* out) {
  return Kernel(n, lanes, out);
}
#endif

// Read once during static initialization and never written again, so
// dispatch needs no lock. Zero-initialized (portable) until then.
const KernelTarget kTarget = DetectKernelTarget();

}  // namespace

KernelTarget DetectKernelTarget() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq")) {
    return KernelTarget::kAvx512;
  }
  if (__builtin_cpu_supports("avx2")) return KernelTarget::kAvx2;
#endif
  return KernelTarget::kPortable;
}

std::size_t FlooredLogNormalCertifiedPortable(
    std::size_t n, const FlooredLogNormalLanes& lanes, std::uint32_t* out) {
  return Kernel(n, lanes, out);
}

std::size_t FlooredLogNormalCertifiedAvx2(std::size_t n,
                                          const FlooredLogNormalLanes& lanes,
                                          std::uint32_t* out) {
#if defined(__x86_64__)
  return KernelAvx2(n, lanes, out);
#else
  return Kernel(n, lanes, out);
#endif
}

std::size_t FlooredLogNormalCertifiedAvx512(
    std::size_t n, const FlooredLogNormalLanes& lanes, std::uint32_t* out) {
#if defined(__x86_64__)
  return KernelAvx512(n, lanes, out);
#else
  return Kernel(n, lanes, out);
#endif
}

bool FlooredLogNormalAvx2Available() {
  return kTarget >= KernelTarget::kAvx2;
}

bool FlooredLogNormalAvx512Available() {
  return kTarget == KernelTarget::kAvx512;
}

std::size_t FlooredLogNormalCertified(std::size_t n,
                                      const FlooredLogNormalLanes& lanes,
                                      std::uint32_t* out) {
  switch (kTarget) {
    case KernelTarget::kAvx512:
      return FlooredLogNormalCertifiedAvx512(n, lanes, out);
    case KernelTarget::kAvx2:
      return FlooredLogNormalCertifiedAvx2(n, lanes, out);
    case KernelTarget::kPortable:
      break;
  }
  return FlooredLogNormalCertifiedPortable(n, lanes, out);
}

}  // namespace ipscope::rng
