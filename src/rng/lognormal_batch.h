// Certified batched evaluation of floored lognormal counts.
//
// The simulated CDN's per-address hit counts are all of one shape:
//
//   FlooredLogNormal(u1, u2, mu, sigma, scale, cap)
//     = floor(clamp(exp(mu + sigma * NormalFromUniforms(u1, u2)) * scale,
//                   1, cap))
//
// evaluated by the scalar libm formula below. Every figure regenerates
// tens of millions of them, and the scalar log/cos/exp cost 35–54 ns per
// value. FlooredLogNormalBatch evaluates a whole batch of queued lanes
// with a branchless polynomial kernel instead and returns, for every lane,
// exactly the integer the scalar formula returns:
//
//   1. The kernel computes an approximation w of the scalar value
//      v = exp(mu + sigma * z) * scale, with a proven relative error
//      |w / v - 1| <= B (derivation below).
//   2. It floors and clamps both ends of [w (1 - E), w (1 + E)] with
//      E = kFlooredLogNormalTolerance > B. floor(clamp(.)) is monotone,
//      so if both ends give the same integer, the scalar value — which
//      lies inside the interval — gives it too: the lane is certified.
//   3. Otherwise (v within ~E of an integer, or a lane outside the
//      kernel's domain) the lane is recomputed by FlooredLogNormal itself.
//
// There is no approximation in the result, only in how fast it is found.
//
// Error bound. Let u = 2^-53 (unit roundoff). The kernel's domain is
// 0 <= u1, u2 < 1, |sigma| <= 1.5, |x| < 32 for its x = mu + sigma z,
// 1 <= cap < 2^32 and 2^-32 <= scale <= 2^32; other lanes fall back.
// With R = sqrt(-2 ln u1) <= sqrt(106 ln 2) < 8.58 (u1 >= 2^-53):
//   * scalar (glibc, <= 1 ulp per log/cos/exp call): ln u1 relative
//     2u, so R relative 2u after the sqrt's rounding; the cos argument
//     fl(2 pi u2) is computed identically by both sides, so only cos's
//     ulp counts: absolute 2u; the product R cos: u.
//   * kernel: ln via k ln2 (Cody–Waite split) + 2 atanh(s), s = (m-1)/(m+1),
//     |s| <= 0.1716, series to s^21 (truncation < 0.01u): relative 6.2u
//     worst case (k = -1, |ln u1| = 0.35), so R relative 4.1u; cos via
//     exact-for-n<=4 Cody–Waite reduction of fl(2 pi u2) by pi/2 and
//     Taylor sin to r^17 / cos to r^16 on |r| <= pi/4 (truncation
//     < 0.02u): absolute 2u; the product R cos: u.
//   => |z_scalar - z_kernel| <= R (2 + 1 + 4.1 + 1 + 2 + 2) u < 104 u.
//   * x = mu + sigma z on both sides: sigma * 104u = 156u, plus one
//     rounding of sigma z (|sigma z| < 16: 8u) and of the sum (|x| < 32:
//     16u) on each side: |x_scalar - x_kernel| <= 204u.
//   * exp: scalar 2u (1 ulp); kernel Cody–Waite reduction to
//     |r| <= ln2/2, Taylor to r^13 (truncation < 0.1u), 2^n exact: 3u.
//   * x scale: one rounding on each side, 2u.
//   => B = e^(211u) - 1 < 212u < 2^-45.2. E = 2^-40 = 8192u leaves a
//   margin of 38x over B, which also absorbs the rounding of w (1 +- E).
//
// Evaluation. The kernel is one loop over structure-of-arrays lanes with
// no data-dependent branch; its translation unit is built with -O3
// -fno-math-errno -fno-trapping-math -ffp-contract=off (no -ffast-math).
// On x86-64 the same loop is also compiled for AVX-512 (F + DQ: eight
// lanes per instruction) and for AVX2 (four), and FlooredLogNormalCertified
// picks the widest one the CPU runs, in the order AVX-512, AVX2, portable,
// once at static initialization — no lock, no knob. Every target is
// public so tests call each directly. Contraction is off on every target,
// so each one rounds every product and sum separately and all of them
// return the same integers and the same zeros. Out-of-domain lanes
// (including NaN or infinite inputs) never reach a double-to-integer
// conversion with an out-of-range value: they are forced to a harmless
// 1.0 and reported as uncertified.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "rng/rng.h"

namespace ipscope::rng {

// E: the relative half-width of each lane's certification interval.
inline constexpr double kFlooredLogNormalTolerance = 0x1.0p-40;

// The scalar formula, evaluated as written with libm. Requires u1, u2 in
// [0, 1) (what Xoshiro256::NextDouble returns) and a finite, non-NaN
// result before the clamps; cap must be below 2^32.
inline std::uint32_t FlooredLogNormal(double u1, double u2, double mu,
                                      double sigma, double scale,
                                      double cap) {
  const double v = LogNormalFromUniforms(u1, u2, mu, sigma);
  return static_cast<std::uint32_t>(std::max(std::min(v * scale, cap), 1.0));
}

// n lanes as parallel arrays: lane i is FlooredLogNormal(u1[i], u2[i],
// mu[i], sigma[i], scale[i], cap[i]).
struct FlooredLogNormalLanes {
  const double* u1;
  const double* u2;
  const double* mu;
  const double* sigma;
  const double* scale;
  const double* cap;
};

// The kernel alone: out[i] = the lane's value if certified, else 0 (a
// value FlooredLogNormal never returns). Returns the number of zeros.
// Dispatches to the widest target the CPU runs.
std::size_t FlooredLogNormalCertified(std::size_t n,
                                      const FlooredLogNormalLanes& lanes,
                                      std::uint32_t* out);

// The instruction sets a lane kernel is compiled for, narrowest first.
// DetectKernelTarget reads the CPU features on every call: kAvx512 needs
// AVX-512 F and DQ, kAvx2 needs AVX2. Each dispatching translation unit
// (this kernel; sim's subscriber lane loop, which has only the AVX-512 and
// portable targets) stores its result once during static initialization.
enum class KernelTarget : std::uint8_t { kPortable, kAvx2, kAvx512 };
KernelTarget DetectKernelTarget();

// The three targets behind FlooredLogNormalCertified, identical in result.
// FlooredLogNormalCertifiedAvx2 may only be called when
// FlooredLogNormalAvx2Available() is true, FlooredLogNormalCertifiedAvx512
// only when FlooredLogNormalAvx512Available() is.
std::size_t FlooredLogNormalCertifiedPortable(
    std::size_t n, const FlooredLogNormalLanes& lanes, std::uint32_t* out);
std::size_t FlooredLogNormalCertifiedAvx2(std::size_t n,
                                          const FlooredLogNormalLanes& lanes,
                                          std::uint32_t* out);
std::size_t FlooredLogNormalCertifiedAvx512(
    std::size_t n, const FlooredLogNormalLanes& lanes, std::uint32_t* out);
bool FlooredLogNormalAvx2Available();
bool FlooredLogNormalAvx512Available();

// Every lane, exactly: the kernel, then FlooredLogNormal for the lanes it
// could not certify. Inline, so the fallback is compiled in the caller's
// translation unit with the caller's own scalar formula. Returns the
// number of fallbacks.
inline std::size_t FlooredLogNormalBatch(std::size_t n,
                                         const FlooredLogNormalLanes& lanes,
                                         std::uint32_t* out) {
  const std::size_t fallbacks = FlooredLogNormalCertified(n, lanes, out);
  if (fallbacks != 0) {
    for (std::size_t i = 0; i < n; ++i) {
      if (out[i] != 0) continue;
      out[i] = FlooredLogNormal(lanes.u1[i], lanes.u2[i], lanes.mu[i],
                                lanes.sigma[i], lanes.scale[i], lanes.cap[i]);
    }
  }
  return fallbacks;
}

}  // namespace ipscope::rng
