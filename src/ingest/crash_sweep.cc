#include "ingest/crash_sweep.h"

#include <sys/wait.h>
#include <unistd.h>

#include <system_error>

#include "fault/crash.h"
#include "fault/schedule.h"

namespace ipscope::ingest {

namespace {

// One point x case; returns the first failure, or "" when the cell passes.
std::string RunCell(const std::string& point, const CrashCase& c,
                    const std::filesystem::path& dir,
                    const RecoveryOpener& recover) {
  const int days = c.delta0.days();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  // The parent commits delta0 cleanly: the committed prefix every
  // pre-commit crash must roll back to.
  auto opened = Session::Open(dir.string(), days);
  if (!opened.ok()) return "open: " + opened.error().ToString();
  Session session = std::move(opened).value();
  auto first = session.Append(c.delta0, "delta0");
  if (!first.ok() || !first.value().applied) return "delta0 commit failed";

  pid_t pid = ::fork();
  if (pid < 0) return "fork failed";
  if (pid == 0) {
    // Child: arm the point through the schedule grammar (so the sweep also
    // exercises crash-at parsing), then run one Append. Reaching _exit(0)
    // means the armed point never fired, which the parent reports.
    fault::Schedule schedule;
    schedule.seed = c.seed;
    std::string parse_error;
    if (!fault::ParseSchedule("crash-at:" + point, &schedule, &parse_error)) {
      ::_exit(90);
    }
    fault::ArmFromSchedule(schedule);
    auto child = Session::Open(dir.string(), days);
    if (!child.ok()) ::_exit(91);
    auto append = child.value().Append(c.delta1, "delta1");
    ::_exit(append.ok() ? 0 : 92);
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status)) {
    return "child did not exit normally";
  }
  if (WEXITSTATUS(status) != fault::kCrashExitCode) {
    return "child exited " + std::to_string(WEXITSTATUS(status)) +
           ", expected crash code " + std::to_string(fault::kCrashExitCode);
  }

  // Recovery must land on exactly the committed prefix, which the parent
  // knows a priori: only post-commit crashes after the manifest rename, so
  // only it may keep delta1.
  const bool expect_delta1 = point == "post-commit";
  auto recovered = recover(dir.string(), days);
  if (!recovered.ok()) return "recovery: " + recovered.error().ToString();
  Session after = std::move(recovered).value();
  if (after.manifest().HasDelta("delta1") != expect_delta1) {
    return std::string("recovered manifest ") +
           (expect_delta1 ? "lost the committed delta"
                          : "kept the uncommitted delta");
  }
  auto loaded = after.Load();
  if (!loaded.ok()) return "recovered load: " + loaded.error().ToString();
  if (StoreBytes(loaded.value()) !=
      (expect_delta1 ? c.full_bytes : c.prefix_bytes)) {
    return "recovered store diverges from committed prefix";
  }

  // Crash-and-retry convergence: replaying both deltas must be a no-op for
  // committed ones and converge on the batch dataset.
  auto replay0 = after.Append(c.delta0, "delta0");
  if (!replay0.ok() || replay0.value().applied) {
    return "delta0 replay was not a no-op";
  }
  auto replay1 = after.Append(c.delta1, "delta1");
  if (!replay1.ok() || replay1.value().applied == expect_delta1) {
    return std::string("delta1 replay applied=") +
           (replay1.ok() && replay1.value().applied ? "true" : "false");
  }
  auto again = after.Append(c.delta1, "delta1");
  if (!again.ok() || again.value().applied) {
    return "second delta1 replay was not a no-op";
  }
  auto final_load = after.Load();
  if (!final_load.ok() || StoreBytes(final_load.value()) != c.full_bytes) {
    return "replayed store is not bit-identical to the batch build";
  }
  return {};
}

}  // namespace

std::vector<CrashCell> SweepCrashPoints(std::span<const CrashCase> cases,
                                        const std::filesystem::path& root,
                                        const RecoveryOpener& recover,
                                        const std::function<bool()>& stop) {
  std::vector<CrashCell> cells;
  for (const std::string& point : fault::CrashPoints()) {
    if (stop && stop()) break;
    for (const CrashCase& c : cases) {
      cells.push_back(CrashCell{
          point, c.seed,
          RunCell(point, c, root / (point + "-s" + std::to_string(c.seed)),
                  recover)});
    }
  }
  return cells;
}

}  // namespace ipscope::ingest
