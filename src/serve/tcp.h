// Minimal TCP transport for the serve daemon.
//
// One listener thread-loop (RunTcpServer blocks the calling thread) polls
// the listening socket with a short timeout so the drain predicate is
// observed promptly, accepts connections, and hands each one to a
// connection thread. A connection reads length-prefixed frames
// (serve/frame.h), answers through Server::HandleFrame, and writes the
// response frame back; it exits on EOF, on any socket error, or once
// draining starts at the next frame boundary or the first poll tick that
// brings no byte, even mid-frame. A request already read gets its answer
// unless the peer stops reading it during a drain, and a stalled peer
// cannot hold the drain (the drain contract of src/cli/signals.h). A peer
// that resets the connection ends only that connection: sends never raise
// SIGPIPE.
//
// This is deliberately not an async i/o engine: the query engine below it
// is CPU-bound and already parallel (par::Pool), so a thread per
// connection with a bounded accept backlog is enough for the client
// swarms the bench drives. The accept loop joins finished connection
// threads before admitting a new one, so held threads stay bounded by
// max_connections however many connections the daemon has served. An
// accept that fails for lack of descriptors or memory is counted
// (serve.tcp.accept_errors) and backs off one poll tick instead of
// spinning on the still-readable listen socket.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "io/result.h"
#include "serve/server.h"

namespace ipscope::serve {

struct TcpOptions {
  std::string bind_address = "127.0.0.1";
  int port = 0;  // 0 = ephemeral; the chosen port is reported via on_listen
  int max_connections = 64;
  // Poll granularity for the accept loop and for connection reads; bounds
  // how long a drain request can go unnoticed.
  int poll_millis = 100;
};

struct TcpError {
  std::string message;
};

// Serves until `should_stop` returns true. `on_listen` (optional) is
// invoked once with the bound port before the first accept. Returns an
// error only for setup failures (bind/listen); per-connection errors are
// counted in the metrics registry and close that connection.
Result<std::uint64_t, TcpError> RunTcpServer(
    Server& server, const TcpOptions& options,
    const std::function<bool()>& should_stop,
    const std::function<void(int port)>& on_listen = nullptr);

}  // namespace ipscope::serve
