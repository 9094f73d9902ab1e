// lint-corpus-as: src/security/corpus.cc
// Violation corpus: a production producer replaying a block step by step
// through the GenerateStep oracle instead of one GenerateBlock call.
#include "sim/policy.h"

namespace corpus {

int ActiveSteps(const ipscope::sim::BlockPlan& plan,
                const ipscope::sim::StepSpec& spec) {
  ipscope::activity::DayBits bits;
  int active = 0;
  for (int step = 0; step < spec.steps; ++step) {
    ipscope::sim::GenerateStep(plan, spec, step, bits, nullptr);  // finding
    active += bits != ipscope::activity::DayBits{} ? 1 : 0;
  }
  return active;
}

}  // namespace corpus
