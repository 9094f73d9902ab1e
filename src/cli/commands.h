// The ipscope command-line interface.
//
// The CLI works on serialized activity datasets so that generation (slow,
// simulator-bound) and analysis (fast, repeatable) can be separated:
//
//   ipscope_cli generate --blocks 4000 --out daily.ipscope
//   ipscope_cli summary daily.ipscope
//   ipscope_cli churn daily.ipscope --window 7
//   ipscope_cli blocks daily.ipscope --top 20 --sort stu
//   ipscope_cli render daily.ipscope --block 40.112.7.0/24
//   ipscope_cli events daily.ipscope --window 28
//   ipscope_cli generate --blocks 2000 --out d.ipscope --trace-out t.json
//   ipscope_cli reproduce --only fig4_churn,fig9_traffic --out results/
//
// All command logic lives here (stream-parameterized) so it is unit-tested;
// tools/ipscope_cli.cc is a thin main().
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace ipscope::cli {

// Thrown by the numeric flag accessors on malformed values (e.g.
// `--seed banana`) and by ValidateFlags on a flag the command does not
// know (e.g. `--blokcs`). Run() catches it and turns it into exit code 2
// with the message on stderr, so commands can parse flags without try
// blocks.
struct FlagError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// Parsed command line: subcommand, positional args, and --flag[=| ]value
// options. Bare "--flag" stores an empty value.
struct CommandLine {
  std::string command;
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;

  std::optional<std::string> Flag(const std::string& name) const;
  // Numeric accessors return `fallback` when the flag is absent and throw
  // FlagError when it is present but not a number.
  int IntFlag(const std::string& name, int fallback) const;
  std::uint64_t Uint64Flag(const std::string& name,
                           std::uint64_t fallback) const;
};

// Parses argv[1..]; returns nullopt (and writes a message to err) when the
// input is malformed.
std::optional<CommandLine> Parse(const std::vector<std::string>& args,
                                 std::ostream& err);

// Throws FlagError naming the first flag that `cmd.command` does not read
// (the global flags --threads, --metrics-out, --metrics-format and
// --trace-out are accepted by every command). Run() calls it before the
// command starts.
void ValidateFlags(const CommandLine& cmd);

// Executes a parsed command. Returns a process exit code.
int Run(const CommandLine& cmd, std::ostream& out, std::ostream& err);

// Convenience: parse + run.
int Main(const std::vector<std::string>& args, std::ostream& out,
         std::ostream& err);

}  // namespace ipscope::cli
