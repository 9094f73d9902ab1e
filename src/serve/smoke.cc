#include "serve/smoke.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <future>
#include <mutex>
#include <optional>
#include <ostream>
#include <thread>

#include "geo/country.h"
#include "netbase/prefix.h"
#include "serve/frame.h"
#include "serve/tcp.h"

namespace ipscope::serve {

int ConnectLoopback(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);  // lint: close(best-effort teardown of a failed connect)
    return -1;
  }
  return fd;
}

bool ReadFully(int fd, char* buf, std::size_t want) {
  std::size_t got = 0;
  while (got < want) {
    ssize_t n = ::read(fd, buf + got, want - got);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

std::string Exchange(int fd, const std::string& body) {
  std::string frame = EncodeFrame(body);
  std::size_t sent = 0;
  while (sent < frame.size()) {
    ssize_t n = ::write(fd, frame.data() + sent, frame.size() - sent);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return {};
    }
    sent += static_cast<std::size_t>(n);
  }
  char header[kFrameHeaderBytes];
  if (!ReadFully(fd, header, sizeof(header))) return {};
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(header[4 + static_cast<size_t>(i)]))
           << (8 * i);
  }
  std::string response(len, '\0');
  if (len > 0 && !ReadFully(fd, response.data(), len)) return {};
  return response;
}

namespace {

// A deterministic request mix touching every endpoint (including the
// typed-error paths) for the store/attribution at hand.
std::vector<std::string> SmokeRequests(
    const activity::ActivityStore& store,
    const std::vector<BlockAttribution>& attribution) {
  std::vector<std::string> bodies;
  bodies.push_back(R"({"endpoint": "summary"})");
  bodies.push_back(R"({"endpoint": "churn", "window": 7})");
  bodies.push_back(R"({"endpoint": "churn", "window": 28})");
  bodies.push_back(R"({"endpoint": "patterns"})");
  auto keys = store.keys();
  for (std::size_t i = 0; i < 5 && !keys.empty(); ++i) {
    net::BlockKey key = keys[i * (keys.size() - 1) / 4];
    std::string block = net::BlockFromKey(key).ToString();
    bodies.push_back(R"({"endpoint": "point", "block": ")" + block + "\"}");
    bodies.push_back(R"({"endpoint": "point", "block": ")" + block +
                     R"(", "host": 17})");
  }
  if (!keys.empty()) {
    // An absent block: first key gap above the smallest key.
    net::BlockKey absent = keys.front() + 1;
    while (store.Find(absent) != nullptr) ++absent;
    bodies.push_back(R"({"endpoint": "point", "block": ")" +
                     net::BlockFromKey(absent).ToString() + "\"}");
    net::Prefix p16{net::IPv4Addr{(keys.front() << 8) & 0xFFFF0000u}, 16};
    bodies.push_back(R"({"endpoint": "prefix", "prefix": ")" +
                     p16.ToString() + "\"}");
    bodies.push_back(R"({"endpoint": "prefix", "prefix": ")" +
                     p16.ToString() + R"(", "day_first": 0, "day_last": 7})");
    bodies.push_back(R"({"endpoint": "patterns", "prefix": ")" +
                     p16.ToString() + "\"}");
  }
  if (!attribution.empty()) {
    const BlockAttribution& entry = attribution.front();
    bodies.push_back(R"({"endpoint": "as", "asn": )" +
                     std::to_string(entry.asn) + "}");
    if (entry.country >= 0) {
      bodies.push_back(
          R"({"endpoint": "country", "code": ")" +
          std::string(
              geo::Countries()[static_cast<std::size_t>(entry.country)]
                  .code) +
          "\"}");
    }
  }
  // Typed-error paths must be deterministic over the wire too.
  bodies.push_back(R"({"endpoint": "no-such-endpoint"})");
  bodies.push_back(R"({"endpoint": "point"})");  // missing required field
  return bodies;
}

// Runs the swarm once and byte-compares every response against the oracle
// (DirectAnswer on `oracle` at `want_snapshot`). Returns the number of
// divergent responses; writes the first few to `err`.
int SmokeVerifyPhase(int port, int clients,
                     const std::vector<std::string>& bodies, int repeat,
                     const activity::ActivityStore& oracle,
                     std::uint64_t want_snapshot,
                     const std::vector<BlockAttribution>& attribution,
                     std::ostream& err) {
  std::vector<std::string> expected;
  expected.reserve(bodies.size());
  for (const std::string& body : bodies) {
    expected.push_back(Server::DirectAnswer(oracle, want_snapshot,
                                                   attribution, body));
  }
  std::atomic<int> divergent{0};
  std::mutex err_mu;
  std::vector<std::thread> swarm;
  for (int c = 0; c < clients; ++c) {
    swarm.emplace_back([&, c] {
      int fd = ConnectLoopback(port);
      if (fd < 0) {
        ++divergent;
        std::lock_guard<std::mutex> lock{err_mu};
        err << "serve-smoke: client " << c << " failed to connect\n";
        return;
      }
      for (int r = 0; r < repeat; ++r) {
        for (std::size_t i = 0; i < bodies.size(); ++i) {
          std::string got = Exchange(fd, bodies[i]);
          if (got == expected[i]) continue;
          int seen = ++divergent;
          if (seen <= 3) {
            std::lock_guard<std::mutex> lock{err_mu};
            err << "serve-smoke: response diverges from oracle for "
                << bodies[i] << "\n  want: " << expected[i]
                << "\n  got:  " << (got.empty() ? "<transport error>" : got)
                << "\n";
          }
        }
      }
      if (::close(fd) != 0) {
        std::lock_guard<std::mutex> lock{err_mu};
        err << "serve-smoke: client close failed\n";
      }
    });
  }
  for (std::thread& t : swarm) t.join();
  return divergent.load();
}

}  // namespace

int RunServeSmoke(activity::ActivityStore store,
                  std::vector<BlockAttribution> attribution,
                  const SmokeOptions& options, std::ostream& out,
                  std::ostream& err) {
  // Oracle copies: the smoke diffs wire responses against direct calls on
  // these, per claimed snapshot id. Snapshot 2 is snapshot 1 with day 0
  // marked uncovered — summary/churn/point answers all shift, so an
  // aggregate carried over from snapshot 1 cannot masquerade as a fresh
  // answer (tests/serve_test.cc checks which bodies discriminate).
  activity::ActivityStore oracle_v1 = store;
  activity::ActivityStore reloaded = store;
  reloaded.SetDayCovered(0, false);
  activity::ActivityStore oracle_v2 = reloaded;

  Server server{std::move(store)};
  server.SetAttribution(attribution);

  TcpOptions tcp;
  tcp.max_connections = options.clients + 8;
  // RunTcpServer reports the port once it listens; it fails only before
  // that, so the daemon sets the port exactly once either way.
  std::promise<int> listening;
  std::optional<Result<std::uint64_t, TcpError>> served;
  std::thread daemon{[&] {
    served = RunTcpServer(server, tcp, options.should_stop,
                          [&](int bound) { listening.set_value(bound); });
    if (!served->ok()) listening.set_value(-1);
  }};
  const int port = listening.get_future().get();
  if (port < 0) {
    daemon.join();
    err << "serve-smoke: " << served->error().message << "\n";
    return 1;
  }
  out << "serve-smoke: listening on 127.0.0.1:" << port << ", "
      << options.clients << " clients\n";

  auto bodies = SmokeRequests(oracle_v1, attribution);
  int bad = SmokeVerifyPhase(port, options.clients, bodies, options.repeat,
                             oracle_v1, /*want_snapshot=*/1, attribution, err);
  out << "serve-smoke: phase 1 (snapshot 1): " << bodies.size() << " queries x "
      << options.clients << " clients x " << options.repeat << " rounds, "
      << bad << " divergent\n";

  std::uint64_t new_id = server.Reload(std::move(reloaded));
  int bad2 = SmokeVerifyPhase(port, options.clients, bodies, options.repeat,
                              oracle_v2, new_id, attribution, err);
  out << "serve-smoke: phase 2 (snapshot " << new_id
      << " after reload): " << bad2 << " divergent\n";

  options.drain();
  daemon.join();
  out << "serve-smoke: drained cleanly after " << served->value()
      << " connections\n";

  if (bad + bad2 > 0) {
    err << "serve-smoke: " << bad + bad2
        << " responses diverged from the direct-store oracle\n";
    return 1;
  }
  out << "serve-smoke: every response bit-identical to the oracle, before "
         "and after reload\n";
  return 0;
}

}  // namespace ipscope::serve
