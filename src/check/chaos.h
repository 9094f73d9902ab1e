// The chaos smoke: the generate -> save -> corrupt -> salvage -> analyze
// pipeline run under a deterministic fault schedule (fault/schedule.h),
// checked stage by stage against the clean run and printed as a
// robustness scorecard. Every check is exact: salvage must recover the
// predicted prefix of blocks bit-identically, and churn, change detection
// and active-address totals on the faulted store must equal the clean
// data restricted to the same blocks and coverage.
#pragma once

#include <iosfwd>

#include "fault/schedule.h"
#include "sim/world.h"

namespace ipscope::check {

// Runs the pipeline on `config`'s world under `schedule` (churn compared
// over `window`-day windows) and prints the scorecard and the data-quality
// metrics to `out`. True iff every scorecard check passes.
bool RunChaos(const sim::WorldConfig& config, const fault::Schedule& schedule,
              int window, std::ostream& out);

}  // namespace ipscope::check
