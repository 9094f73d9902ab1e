// The serve smoke: a client swarm against a live daemon over real TCP.
//
// RunServeSmoke serves a store on an ephemeral loopback port, hammers it
// from several connections with a request mix that touches every endpoint
// (typed-error paths included), and byte-compares each response with
// Server::DirectAnswer on an oracle copy of the same snapshot. It then
// reloads a changed snapshot (day 0 uncovered, so summary, churn and point
// answers all shift) and verifies again, and finally drains the daemon
// through the caller's drain path. `ipscope_cli serve-smoke` is a thin
// wrapper that builds the world and passes in its signal-driven drain.
//
// The loopback client below is the one the smoke swarm and the serve tests
// share: blocking, one request frame out, one response frame back.
#pragma once

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "activity/store.h"
#include "serve/server.h"

namespace ipscope::serve {

// A TCP connection to 127.0.0.1:`port`, or -1.
int ConnectLoopback(int port);

// Reads exactly `want` bytes (retrying EINTR); false on EOF or error.
bool ReadFully(int fd, char* buf, std::size_t want);

// Writes one request frame carrying `body` and returns the body of the
// response frame; "" on a transport error.
std::string Exchange(int fd, const std::string& body);

struct SmokeOptions {
  int clients = 4;  // concurrent connections
  int repeat = 1;   // rounds of the request mix per client and phase
  // The daemon's drain predicate, and how the smoke asks for the drain
  // once both phases are verified (the CLI raises SIGINT).
  std::function<bool()> should_stop;
  std::function<void()> drain;
};

// Runs both phases and the drain, printing progress to `out` and the first
// divergent responses to `err`. Returns 0 iff every response was
// bit-identical to the oracle and the daemon drained.
int RunServeSmoke(activity::ActivityStore store,
                  std::vector<BlockAttribution> attribution,
                  const SmokeOptions& options, std::ostream& out,
                  std::ostream& err);

}  // namespace ipscope::serve
