#include "serve/tcp.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "obs/registry.h"
#include "serve/frame.h"

namespace ipscope::serve {

namespace {

void CloseFd(int fd) {
  if (::close(fd) != 0) {
    obs::GlobalRegistry().GetCounter("serve.tcp.close_errors").Add();
  }
}

// Reads exactly `want` bytes into `buf`. Once a drain is requested, a
// poll tick that brings no byte ends the connection, even mid-frame: a
// peer that stalls cannot hold the drain, while a frame that is still
// streaming completes. Returns false on EOF, error, or drain.
bool ReadExactly(int fd, char* buf, std::size_t want,
                 const std::function<bool()>& should_stop, int poll_millis) {
  std::size_t got = 0;
  while (got < want) {
    struct pollfd pfd = {};
    pfd.fd = fd;
    pfd.events = POLLIN;
    int ready = ::poll(&pfd, 1, poll_millis);
    if (ready <= 0) {
      if (ready < 0 && errno != EINTR) return false;
      if (should_stop()) return false;  // timeout or signal: check drain
      continue;
    }
    ssize_t n = ::read(fd, buf + got, want - got);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;  // EOF or hard error
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

// Writes all of `bytes`. MSG_NOSIGNAL turns a write to a peer that has
// reset the connection into EPIPE instead of a SIGPIPE that kills the
// daemon. Sends never block: only when the socket buffer is full does it
// poll for room, and once a drain is requested a poll tick that frees none
// ends the connection, so a peer that stops reading cannot hold the drain
// (the ReadExactly contract). Returns false on error or drain.
bool WriteAll(int fd, const std::string& bytes,
              const std::function<bool()>& should_stop, int poll_millis) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                       MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n >= 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) return false;
    struct pollfd pfd = {};
    pfd.fd = fd;
    pfd.events = POLLOUT;
    int ready = ::poll(&pfd, 1, poll_millis);
    if (ready < 0 && errno != EINTR) return false;
    if (ready <= 0 && should_stop()) return false;
  }
  return true;
}

void ServeConnection(Server& server, int fd, std::size_t max_body,
                     const std::function<bool()>& should_stop,
                     int poll_millis) {
  auto& reg = obs::GlobalRegistry();
  std::string frame;
  while (!should_stop()) {
    frame.resize(kFrameHeaderBytes);
    if (!ReadExactly(fd, frame.data(), kFrameHeaderBytes, should_stop,
                     poll_millis)) {
      break;
    }
    // Decode just the header to learn the body length. Header-level
    // errors (bad magic, oversized) get an error response, then the
    // connection closes: a stream that lost framing cannot be resynced.
    auto header = DecodeFrame(frame, max_body);
    bool header_bad = !header.ok() &&
                      header.error().kind != FrameError::Kind::kTruncated;
    if (header_bad) {
      reg.GetCounter("serve.frames.bad").Add();
      WriteAll(fd,
               EncodeFrame(R"({"ok": false, "error": {"kind": "bad-frame", )"
                           R"("message": ")" +
                           obs::json::Escape(header.error().ToString()) +
                           "\"}}"),
               should_stop, poll_millis);
      break;
    }
    std::uint32_t body_len = 0;
    for (int i = 0; i < 4; ++i) {
      body_len |= static_cast<std::uint32_t>(static_cast<unsigned char>(
                      frame[4 + static_cast<std::size_t>(i)]))
                  << (8 * i);
    }
    frame.resize(kFrameHeaderBytes + body_len);
    if (body_len > 0 &&
        !ReadExactly(fd, frame.data() + kFrameHeaderBytes, body_len,
                     should_stop, poll_millis)) {
      break;  // peer died or stalled mid-frame
    }
    if (!WriteAll(fd, server.HandleFrame(frame), should_stop, poll_millis)) {
      break;  // peer gone, or stopped reading during a drain
    }
  }
  CloseFd(fd);
}

}  // namespace

Result<std::uint64_t, TcpError> RunTcpServer(
    Server& server, const TcpOptions& options,
    const std::function<bool()>& should_stop,
    const std::function<void(int port)>& on_listen) {
  int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    return TcpError{std::string("socket: ") + std::strerror(errno)};
  }
  int one = 1;
  if (::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) !=
      0) {
    TcpError err{std::string("setsockopt(SO_REUSEADDR): ") +
                 std::strerror(errno)};
    CloseFd(listen_fd);
    return err;
  }
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options.port));
  if (::inet_pton(AF_INET, options.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    CloseFd(listen_fd);
    return TcpError{"bad bind address: " + options.bind_address};
  }
  if (::bind(listen_fd, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    TcpError err{std::string("bind: ") + std::strerror(errno)};
    CloseFd(listen_fd);
    return err;
  }
  if (::listen(listen_fd, options.max_connections) != 0) {
    TcpError err{std::string("listen: ") + std::strerror(errno)};
    CloseFd(listen_fd);
    return err;
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd, reinterpret_cast<struct sockaddr*>(&addr),
                    &addr_len) == 0 &&
      on_listen) {
    on_listen(static_cast<int>(ntohs(addr.sin_port)));
  }

  auto& reg = obs::GlobalRegistry();
  std::uint64_t accepted = 0;
  struct Worker {
    std::thread thread;
    std::unique_ptr<std::atomic<bool>> done;
  };
  std::vector<Worker> workers;  // touched by this thread only
  // Joins the connection threads that have finished. Run before every
  // admission, so at most max_connections threads (and their stack
  // mappings) are ever held, not one per connection ever served.
  auto reap = [&workers] {
    for (std::size_t i = 0; i < workers.size();) {
      if (!workers[i].done->load(std::memory_order_acquire)) {
        ++i;
        continue;
      }
      workers[i].thread.join();
      workers[i] = std::move(workers.back());
      workers.pop_back();
    }
  };

  while (!should_stop()) {
    struct pollfd pfd = {};
    pfd.fd = listen_fd;
    pfd.events = POLLIN;
    int ready = ::poll(&pfd, 1, options.poll_millis);
    if (ready < 0) {
      if (errno == EINTR) continue;  // signal; loop re-checks should_stop
      break;
    }
    if (ready == 0) continue;
    int conn = ::accept(listen_fd, nullptr, nullptr);
    if (conn < 0) {
      const int err = errno;
      if (err == EINTR) continue;
      reg.GetCounter("serve.tcp.accept_errors").Add();
      if (err == EMFILE || err == ENFILE || err == ENOBUFS || err == ENOMEM) {
        // Out of descriptors or memory: the connection stays queued, so
        // poll would report the listen fd readable again at once. Back off
        // one tick instead of spinning; a drain is still noticed within it.
        std::this_thread::sleep_for(
            std::chrono::milliseconds(options.poll_millis));
      }
      continue;  // keep serving
    }
    reap();
    if (workers.size() >=
        static_cast<std::size_t>(options.max_connections)) {
      reg.GetCounter("serve.tcp.rejected").Add();
      CloseFd(conn);
      continue;
    }
    ++accepted;
    reg.GetCounter("serve.tcp.connections").Add();
    auto done = std::make_unique<std::atomic<bool>>(false);
    std::thread thread{[&server, conn, &options, &should_stop,
                        flag = done.get()] {
      ServeConnection(server, conn, server.max_frame_bytes(), should_stop,
                      options.poll_millis);
      flag->store(true, std::memory_order_release);
    }};
    workers.push_back(Worker{std::move(thread), std::move(done)});
  }
  CloseFd(listen_fd);
  // Drain: every connection thread exits at its next frame boundary or at
  // its first poll tick without a byte; requests already read complete.
  for (Worker& w : workers) w.thread.join();
  return accepted;
}

}  // namespace ipscope::serve
