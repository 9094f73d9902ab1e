// lint-corpus-as: src/io/corpus.cc
// Clean twin: the one environment setting is read through the blessed
// wrapper; everything else arrives as a flag.
#include <string>

namespace corpus {

int DefaultThreads();  // par::DefaultThreads

std::string OutputDir(const std::string& out_flag, int* threads) {
  *threads = DefaultThreads();
  return out_flag.empty() ? "." : out_flag;
}

}  // namespace corpus
