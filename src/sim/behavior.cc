#include "sim/behavior.h"

#include "rng/lognormal_batch.h"

// Built with the lognormal kernel's -O3 -fno-math-errno -fno-trapping-math
// -ffp-contract=off (src/CMakeLists.txt): the loop vectorizes, and every
// product and sum stays the separately rounded IEEE operation the scalar
// formula performs, so each lane equals it exactly. GCC 12 vectorizes the
// uint64-to-double conversions of SubscriberPropensity only with AVX-512
// DQ, so there is no AVX2 clone: without AVX-512 the portable loop runs,
// branch-free, one lane at a time.

namespace ipscope::sim {

namespace {

[[gnu::always_inline]] inline void Lanes(double hits_mu, std::size_t n,
                                         const std::uint64_t* __restrict occ,
                                         double* __restrict mu) {
  for (std::size_t i = 0; i < n; ++i) {
    mu[i] = DailyHitsMu(hits_mu, SubscriberPropensity(occ[i]));
  }
}

#if defined(__x86_64__)
// The features rng::DetectKernelTarget requires for kAvx512.
__attribute__((target("avx512f,avx512dq"))) void LanesAvx512(
    double hits_mu, std::size_t n, const std::uint64_t* occ, double* mu) {
  Lanes(hits_mu, n, occ, mu);
}
#endif

// Read once during static initialization, like the kernel's own target.
const rng::KernelTarget kTarget = rng::DetectKernelTarget();

}  // namespace

void SubscriberHitsMuPortable(double hits_mu, std::size_t n,
                              const std::uint64_t* occupants, double* mu) {
  Lanes(hits_mu, n, occupants, mu);
}

void SubscriberHitsMuAvx512(double hits_mu, std::size_t n,
                            const std::uint64_t* occupants, double* mu) {
#if defined(__x86_64__)
  LanesAvx512(hits_mu, n, occupants, mu);
#else
  Lanes(hits_mu, n, occupants, mu);
#endif
}

void SubscriberHitsMu(double hits_mu, std::size_t n,
                      const std::uint64_t* occupants, double* mu) {
  if (kTarget == rng::KernelTarget::kAvx512) {
    return SubscriberHitsMuAvx512(hits_mu, n, occupants, mu);
  }
  SubscriberHitsMuPortable(hits_mu, n, occupants, mu);
}

}  // namespace ipscope::sim
