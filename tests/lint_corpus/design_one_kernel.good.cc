// lint-corpus-as: src/security/corpus.cc
// Clean twin: the producer makes one GenerateBlock call. Naming the
// GenerateStep oracle in a comment or a string, or taking no call, is not a
// GenerateStep call.
#include <vector>

#include "sim/policy.h"

namespace corpus {

int ActiveSteps(const ipscope::sim::BlockPlan& plan,
                const ipscope::sim::StepSpec& spec) {
  std::vector<ipscope::activity::DayBits> rows(
      static_cast<std::size_t>(spec.steps));
  ipscope::sim::GenerateBlock(plan, spec, rows.data());
  const char* oracle = "GenerateStep(plan, spec, step, bits)";
  int active = oracle != nullptr ? 0 : 1;
  for (const ipscope::activity::DayBits& row : rows) {
    active += row != ipscope::activity::DayBits{} ? 1 : 0;
  }
  return active;
}

}  // namespace corpus
