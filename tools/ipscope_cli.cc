// ipscope command-line tool. All logic lives in src/cli/commands.cc so it
// can be unit-tested; this is only the process entry point.
//
// Every command accepts global --metrics-out/--trace-out flags (see the
// README's "Observability" section); `ipscope_cli chaos` runs the
// pipeline under an injected fault schedule.
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "cli/commands.h"
#include "cli/signals.h"

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  // SIGINT/SIGTERM set a drain flag instead of killing the process, so
  // long-running commands (serve, chaos-crash) stop at a safe boundary —
  // never mid-WriteFileAtomic — and still flush --metrics-out. A second
  // signal falls back to the default disposition (see src/cli/signals.h).
  ipscope::cli::InstallSignalHandlers();
  // cli::Run catches command-level failures itself; anything that still
  // escapes (parse-stage throws, allocation failure, a bug) must not
  // terminate() — print one structured line and exit 2 like other flag
  // and usage errors.
  try {
    return ipscope::cli::Main(args, std::cout, std::cerr);
  } catch (const std::exception& e) {
    std::cerr << "ipscope_cli: fatal: " << e.what() << "\n";
    return 2;
  } catch (...) {
    std::cerr << "ipscope_cli: fatal: unknown exception\n";
    return 2;
  }
}
