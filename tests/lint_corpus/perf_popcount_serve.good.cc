// lint-corpus-as: src/serve/corpus.cc
// Clean twin: a serve function compiled for popcnt counts through
// activity::PopCountHw, the instruction's helper in activity/matrix.h.
#include "activity/matrix.h"

namespace corpus {

[[gnu::target("popcnt")]] int Shared(const ipscope::activity::DayBits& prev,
                                     const ipscope::activity::DayBits& next) {
  return ipscope::activity::PopCountHw(
      ipscope::activity::AndBits(prev, next));
}

}  // namespace corpus
