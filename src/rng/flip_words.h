// Keyed coin flips, one 64-bit word at a time.
//
// The slot-major activity kernels (sim/policy.cc) decide "slot b is active
// at step s" with one SubstreamTail draw per (slot, step):
//
//   bit b = (tail[b].At(s) >> 11) < below
//
// where below is the integer threshold UnitThreshold(p) = ceil(p * 2^53).
// FlipWord evaluates up to 64 of them, one row word, from the tails'
// folded keys (SubstreamTail::key()). Each bit is a pure integer function
// of (key, step, below): the AVX-512 target evaluates eight keys per
// instruction (_mm512_mullo_epi64 for SplitMix64's multiplies,
// _mm512_cmplt_epu64_mask for the compare), the portable target one at a
// time, and both return the same word. FlipWord picks the widest target
// the CPU runs, from rng::DetectKernelTarget, once at static
// initialization. There is no AVX2 target: AVX2 has no 64-bit multiply.
#pragma once

#include <cstdint>

namespace ipscope::rng {

// Bit b of the result, for b < n, is (SplitMix64Next(keys[b] ^ step * γ)
// >> 11) < below with γ = 0x9e3779b97f4a7c15, which is exactly
// (SubstreamTail::At(step) >> 11) < below for the tail whose key() is
// keys[b]. Bits n..63 are zero. Requires 0 <= n <= 64.
std::uint64_t FlipWord(const std::uint64_t* keys, int n, std::uint64_t step,
                       std::uint64_t below);

// The two targets behind FlipWord, identical in result. FlipWordAvx512 may
// only be called when FlipWordAvx512Available() is true.
std::uint64_t FlipWordPortable(const std::uint64_t* keys, int n,
                               std::uint64_t step, std::uint64_t below);
std::uint64_t FlipWordAvx512(const std::uint64_t* keys, int n,
                             std::uint64_t step, std::uint64_t below);
bool FlipWordAvx512Available();

}  // namespace ipscope::rng
