// check sweep — differential cases: optimized pipeline vs. check::reference.
//
// One CaseSpec describes one randomized world: simulation seed, world size,
// thread count, and an optional fault::Schedule spec applied to the store
// before analysis (so both sides see the same coverage gaps). RunCase
// builds the store once, runs every optimized analysis and its oracle
// counterpart, and returns the Diff. RunCheck drives a list of cases and
// the golden verification behind `ipscope_cli check`.
//
// The comparisons are exact (see diff.h); the single tolerance check is
// the capture–recapture estimate against the simulator's true active
// population, which is statistical by nature.
//
// `perturb` exists so the harness can prove it would catch a real bug: it
// flips one activity bit on the copy of the store handed to the optimized
// side only, which must surface as divergences. A sweep with perturbation
// that reports zero divergences is itself a harness failure.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "check/diff.h"

namespace ipscope::check {

struct CaseSpec {
  std::uint64_t seed = 1;
  int blocks = 300;     // sim::WorldConfig::target_client_blocks
  int threads = 1;      // shared-pool size for the optimized side
  std::string fault;    // fault::Schedule spec text; "" = fully covered
  int window_days = 7;
  int month_days = 28;
  // Per-group churn filter, scaled down from the paper's 1000 because the
  // sweep worlds are small.
  std::uint64_t group_min_ips = 64;
  bool perturb = false;

  std::string Name() const;
};

// Runs one differential case; increments check.cases_run. Throws
// std::invalid_argument on an unparseable fault spec.
Diff RunCase(const CaseSpec& spec);

// `ipscope_cli check`: runs every case, then verifies the committed
// goldens in `goldens_dir` against a fresh render at the canonical config
// (check/golden.h). Prints the per-case scorecard, the first divergences,
// each golden issue and the check.* counters to `out`. True iff no case
// diverged and the goldens are clean.
bool RunCheck(std::span<const CaseSpec> specs, const std::string& goldens_dir,
              std::ostream& out);

// The default sweep matrix: `seeds` x {1, `max_threads`} x {no fault,
// "drop-days=2"}.
std::vector<CaseSpec> DefaultSweep(std::span<const std::uint64_t> seeds,
                                   int blocks, int max_threads);

}  // namespace ipscope::check
