// lint-corpus-as: src/activity/corpus.cc
// Clean twin: whole-row word kernels instead of per-host bit probes, and
// a straight-line Get (fine — the rule only flags loops).
#include <cstdint>

namespace corpus {

struct Matrix {
  bool Get(int day, int host) const;
  const std::uint64_t* Row(int day) const;
};

int PopCount(const std::uint64_t* row);  // all 256 hosts of one day

int CountActive(const Matrix& m, int days) {
  int total = 0;
  for (int d = 0; d < days; ++d) total += PopCount(m.Row(d));
  return total;
}

bool ProbeOnce(const Matrix& m) { return m.Get(0, 0); }

}  // namespace corpus
