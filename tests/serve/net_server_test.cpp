// NetServer + handle_fleet_request: the TCP front-end and its line protocol
// (docs/PROTOCOL.md).
//
// Two layers under test:
//  * handle_fleet_request as a pure request->response function — grammar,
//    error messages, and that responses carry exactly what the fleet computed
//    (pinned against direct SketchFleet calls);
//  * the socket layer — ephemeral-port bind, multiple concurrent client
//    connections on the shared pool, pipelined requests in one write, CRLF
//    tolerance, quit/shutdown connection handling, and stop() unblocking
//    everything. The TSan CI leg runs this suite.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "serve/net_server.hpp"
#include "serve/sketch_fleet.hpp"
#include "util/fault_injection.hpp"
#include "scratch_dir.hpp"

namespace covstream {
namespace {

// A blocking line-oriented test client. request() sends one LF-terminated
// line and reads back exactly one LF-terminated response.
class TestClient {
 public:
  explicit TestClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    connected_ = ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof addr) == 0;
  }
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return connected_; }

  void send_raw(const std::string& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t wrote = ::send(fd_, bytes.data() + sent,
                                   bytes.size() - sent, MSG_NOSIGNAL);
      ASSERT_GT(wrote, 0);
      sent += static_cast<std::size_t>(wrote);
    }
  }

  // One response line, without the trailing newline; "" on EOF.
  std::string read_line() {
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      char block[4096];
      const ssize_t got = ::read(fd_, block, sizeof block);
      if (got <= 0) return "";
      buffer_.append(block, static_cast<std::size_t>(got));
    }
  }

  std::string request(const std::string& line) {
    send_raw(line + "\n");
    return read_line();
  }

  // Half-close: we are done sending, but the read side stays open (the
  // half-open-socket tests drive the server's EOF handling with this).
  void shutdown_write() { ::shutdown(fd_, SHUT_WR); }

  // True once the server closed its side (read returns EOF).
  bool at_eof() {
    if (!buffer_.empty()) return false;
    char block[64];
    return ::read(fd_, block, sizeof block) == 0;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buffer_;
};

std::string churn_spill_dir() {
  return scratch_path("covstream_net_churn");
}

TEST(FleetProtocol, GrammarAndErrors) {
  SketchFleet fleet({});
  bool shutdown = false;
  EXPECT_EQ(handle_fleet_request(fleet, "ping", &shutdown), "ok pong");
  EXPECT_EQ(handle_fleet_request(fleet, "  ping  ", &shutdown), "ok pong");
  EXPECT_EQ(handle_fleet_request(fleet, "", &shutdown), "err empty request");
  EXPECT_EQ(handle_fleet_request(fleet, "bogus", &shutdown),
            "err unknown command 'bogus'");
  EXPECT_EQ(handle_fleet_request(fleet, "create t", &shutdown),
            "err usage: create <tenant> <n> <k> [eps] [seed]");
  EXPECT_EQ(handle_fleet_request(fleet, "create t 0 3", &shutdown),
            "err create: n and k must be positive 32-bit integers");
  EXPECT_EQ(handle_fleet_request(fleet, "create t 64 3 2.0", &shutdown),
            "err create: eps must be in (0, 1]");
  EXPECT_EQ(handle_fleet_request(fleet, "estimate ghost 1,2", &shutdown),
            "err unknown tenant 'ghost'");
  EXPECT_EQ(handle_fleet_request(fleet, "create t 64 3 0.3 7", &shutdown),
            "ok created t");
  EXPECT_EQ(handle_fleet_request(fleet, "create t 64 3", &shutdown),
            "err tenant 't' already exists");
  EXPECT_EQ(handle_fleet_request(fleet, "ingest t 1 2 3", &shutdown),
            "err usage: ingest <tenant> <set> <elem> [<set> <elem> ...]");
  EXPECT_EQ(handle_fleet_request(fleet, "ingest t 1 10 2 20", &shutdown),
            "ok ingested 2");
  EXPECT_EQ(handle_fleet_request(fleet, "ingest t 3 30 64 40", &shutdown),
            "err set id 64 outside universe [0, 64)");
  EXPECT_EQ(handle_fleet_request(fleet, "estimate t 1,x", &shutdown),
            "err estimate: bad id list");
  EXPECT_EQ(handle_fleet_request(fleet, "solve t 0", &shutdown),
            "err solve: k must be a positive 32-bit integer");
  EXPECT_EQ(handle_fleet_request(fleet, "evict t", &shutdown),
            "err no spill directory configured");
  EXPECT_EQ(handle_fleet_request(fleet, "drop t", &shutdown), "ok dropped t");
  EXPECT_EQ(handle_fleet_request(fleet, "tenants", &shutdown), "ok tenants ");
  EXPECT_FALSE(shutdown);
  EXPECT_EQ(handle_fleet_request(fleet, "shutdown", &shutdown), "ok bye");
  EXPECT_TRUE(shutdown);
}

TEST(FleetProtocol, ResponsesMatchDirectFleetCalls) {
  SketchFleet::Options fleet_options;
  fleet_options.spill_dir = scratch_path("covstream_protocol_stats");
  SketchFleet fleet(fleet_options);
  bool shutdown = false;
  ASSERT_EQ(handle_fleet_request(fleet, "create t 64 4 0.3 7", &shutdown),
            "ok created t");

  // Same edges through the protocol and straight into a twin tenant — the
  // wire answers must be the protocol rendering of identical numbers.
  std::string error;
  StreamingOptions options;
  options.eps = 0.3;
  options.seed = 7;
  ASSERT_TRUE(fleet.create("twin", options.sketch_params(64, 4), &error));
  std::string ingest_line = "ingest t";
  std::vector<Edge> edges;
  for (int i = 0; i < 400; ++i) {
    const SetId set = static_cast<SetId>((i * 7) % 64);
    const ElemId elem = static_cast<ElemId>((i * 131) % 997);
    ingest_line += ' ';
    ingest_line += std::to_string(set);
    ingest_line += ' ';
    ingest_line += std::to_string(elem);
    edges.push_back(Edge{set, elem});
  }
  ASSERT_EQ(handle_fleet_request(fleet, ingest_line, &shutdown),
            "ok ingested 400");
  ASSERT_TRUE(fleet.ingest("twin", edges, &error)) << error;

  const std::vector<SetId> family = {1, 8, 21};
  const std::optional<double> expected_estimate =
      fleet.estimate("twin", family, &error);
  ASSERT_TRUE(expected_estimate.has_value()) << error;
  char rendered[64];
  std::snprintf(rendered, sizeof rendered, "%.1f", *expected_estimate);
  std::string expected_line = "ok estimate ";
  expected_line += rendered;
  EXPECT_EQ(handle_fleet_request(fleet, "estimate t 1,8,21", &shutdown),
            expected_line);

  const std::optional<KCoverResult> expected_solve =
      fleet.solve("twin", 4, &error);
  ASSERT_TRUE(expected_solve.has_value()) << error;
  std::string sets;
  for (const SetId s : expected_solve->solution) {
    if (!sets.empty()) sets += ',';
    sets += std::to_string(s);
  }
  std::snprintf(rendered, sizeof rendered, "%.1f",
                expected_solve->estimated_coverage);
  expected_line = "ok solve ";
  expected_line += rendered;
  expected_line += " sets=" + sets;
  EXPECT_EQ(handle_fleet_request(fleet, "solve t 4", &shutdown), expected_line);

  const std::string tenant_stats = handle_fleet_request(fleet, "stats t", &shutdown);
  EXPECT_NE(tenant_stats.find("ok tenant t version=2 resident=1"),
            std::string::npos)
      << tenant_stats;
  EXPECT_NE(tenant_stats.find("edges=400 sets=64"), std::string::npos)
      << tenant_stats;
  // The sketch's shape closes the line: the twin's numbers, rendered.
  const std::shared_ptr<const SubsampleSketch> twin = fleet.handle("twin", &error);
  ASSERT_NE(twin, nullptr) << error;
  std::snprintf(rendered, sizeof rendered, "%.6g", twin->p_star());
  const std::string shape =
      " sets=64 retained=" + std::to_string(twin->retained_elements()) +
      " stored_edges=" + std::to_string(twin->stored_edges()) +
      " p_star=" + rendered;
  EXPECT_TRUE(tenant_stats.ends_with(shape)) << tenant_stats;
  EXPECT_GT(twin->retained_elements(), 0u);
  // Evicted, the shape reads 0, as words= does.
  ASSERT_EQ(handle_fleet_request(fleet, "evict t", &shutdown), "ok evicted t");
  EXPECT_TRUE(handle_fleet_request(fleet, "stats t", &shutdown)
                  .ends_with(" resident=0 words=0 edges=400 sets=64 retained=0 "
                             "stored_edges=0 p_star=0"));
  EXPECT_EQ(handle_fleet_request(fleet, "tenants", &shutdown),
            "ok tenants t,twin");
  ASSERT_EQ(handle_fleet_request(fleet, "drop t", &shutdown), "ok dropped t");
}

TEST(NetServer, EndToEndOverTcp) {
  SketchFleet fleet({});
  ThreadPool pool(4);
  NetServer server(fleet, pool, {});  // port 0: kernel picks
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  ASSERT_NE(server.port(), 0);

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  EXPECT_EQ(client.request("ping"), "ok pong");
  EXPECT_EQ(client.request("create t 64 4"), "ok created t");
  EXPECT_EQ(client.request("ingest t 3 100 3 101 9 100"), "ok ingested 3");
  // The response must be the fleet's own number, rendered per protocol.
  std::string fleet_error;
  const std::optional<double> direct =
      fleet.estimate("t", std::vector<SetId>{3, 9}, &fleet_error);
  ASSERT_TRUE(direct.has_value()) << fleet_error;
  char rendered[64];
  std::snprintf(rendered, sizeof rendered, "%.1f", *direct);
  std::string expected_line = "ok estimate ";
  expected_line += rendered;
  EXPECT_EQ(client.request("estimate t 3,9"), expected_line);

  // Pipelining: several requests in one write come back as one response
  // line each, in order; CRLF line endings are tolerated.
  client.send_raw("ping\r\nstats t\r\nping\n");
  EXPECT_EQ(client.read_line(), "ok pong");
  EXPECT_NE(client.read_line().find("ok tenant t"), std::string::npos);
  EXPECT_EQ(client.read_line(), "ok pong");

  // The reactor counters ride on the server section of the `stats` wire
  // response (docs/PROTOCOL.md): the gauge reads 1 (this connection), the
  // batching counters exist even when nothing coalesced yet.
  const std::string server_stats = client.request("stats");
  for (const char* field :
       {" open_connections=1", " epoll_wakeups=", " batched_requests=",
        " coalesced_ingest_lines="}) {
    EXPECT_NE(server_stats.find(field), std::string::npos)
        << "stats missing `" << field << "`: " << server_stats;
  }

  EXPECT_EQ(server.counters().open_connections, 1u);  // gauge: connected

  EXPECT_EQ(client.request("quit"), "ok bye");
  EXPECT_TRUE(client.at_eof());

  const NetServer::Counters counters = server.counters();
  EXPECT_EQ(counters.connections_accepted, 1u);
  EXPECT_EQ(counters.requests_served, 9u);  // quit counts as a request too
  EXPECT_GE(counters.epoll_wakeups, 1u);
  server.stop();
  EXPECT_EQ(server.counters().open_connections, 0u);  // gauge: drained
}

TEST(NetServer, OverlongUnframedLineIsRejected) {
  SketchFleet fleet({});
  ThreadPool pool(2);
  NetServer::Options options;
  options.max_line_bytes = 1024;
  NetServer server(fleet, pool, options);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  client.send_raw(std::string(2048, 'x'));  // no newline anywhere
  EXPECT_EQ(client.read_line(), "err request line too long");
  EXPECT_TRUE(client.at_eof());
  server.stop();
}

TEST(NetServer, ShutdownCommandReleasesWaiter) {
  SketchFleet fleet({});
  ThreadPool pool(2);
  NetServer server(fleet, pool, {});
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  std::atomic<bool> released{false};
  std::thread waiter([&] {
    server.wait_shutdown();
    released.store(true);
  });
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  EXPECT_EQ(client.request("ping"), "ok pong");
  EXPECT_FALSE(released.load());
  EXPECT_EQ(client.request("shutdown"), "ok bye");
  EXPECT_TRUE(client.at_eof());
  waiter.join();
  EXPECT_TRUE(released.load());
  server.stop();
}

TEST(NetServer, ConcurrentClientsWithEvictionChurn) {
  // Four clients, each its own connection and tenant, hammering
  // create/ingest/estimate/solve/evict under a tight fleet budget — every
  // response must be `ok`. This is the socket-layer companion of
  // Fleet.ConcurrentChurnIsSafeAndPerTenantDeterministic and the suite the
  // CI TSan leg leans on hardest.
  SketchFleet::Options fleet_options;
  fleet_options.spill_dir = churn_spill_dir();
  fleet_options.memory_budget_words = 5000;
  SketchFleet fleet(fleet_options);
  ThreadPool pool(6);
  NetServer server(fleet, pool, {});
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  const std::uint16_t port = server.port();

  constexpr int kClients = 4;
  constexpr int kRounds = 25;
  std::atomic<int> bad_responses{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      TestClient client(port);
      if (!client.connected()) {
        ++bad_responses;
        return;
      }
      const std::string mine = "client" + std::to_string(c);
      auto expect_ok = [&](const std::string& line) {
        const std::string response = client.request(line);
        if (response.rfind("ok ", 0) != 0) {
          ++bad_responses;
          ADD_FAILURE() << "request '" << line << "' -> '" << response << "'";
        }
      };
      expect_ok("create " + mine + " 48 4 0.3");
      for (int round = 0; round < kRounds; ++round) {
        std::string ingest = "ingest " + mine;
        for (int i = 0; i < 32; ++i) {
          const int edge = round * 32 + i;
          ingest += ' ';
          ingest += std::to_string((edge * 13 + c) % 48);
          ingest += ' ';
          ingest += std::to_string((edge * 31) % 4096);
        }
        expect_ok(ingest);
        expect_ok("estimate " + mine + " 1,5,17");
        if (round % 5 == 0) expect_ok("solve " + mine + " 3");
        if (round % 7 == 0) expect_ok("evict " + mine);
      }
      expect_ok("stats " + mine);
      const std::string bye = client.request("quit");
      if (bye != "ok bye") ++bad_responses;
    });
  }
  for (std::thread& thread : clients) thread.join();
  EXPECT_EQ(bad_responses.load(), 0);
  EXPECT_EQ(server.counters().connections_accepted,
            static_cast<std::uint64_t>(kClients));
  EXPECT_GT(fleet.stats().evictions, 0u);
  server.stop();
}

TEST(NetServer, MalformedLinesGetErrorsNotDisconnects) {
  // Fuzz-shaped garbage on the wire must come back as `err ...` lines on a
  // connection that keeps working — a hostile or buggy client can cost
  // itself, never the server.
  SketchFleet fleet({});
  ThreadPool pool(2);
  NetServer server(fleet, pool, {});
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  // Embedded NUL: the NUL is token bytes, not a terminator — a C-string
  // dispatch would see "pi" and misroute; the whole 5-byte token must fail
  // the command lookup.
  client.send_raw(std::string("pi\0ng\n", 6));
  EXPECT_EQ(client.read_line().rfind("err unknown command", 0), 0u);
  // Binary garbage line.
  client.send_raw(std::string("\x01\x02\xfe\xff \x7f\n", 7));
  EXPECT_EQ(client.read_line().rfind("err ", 0), 0u);
  // Whitespace-only line: empty request, not a crash.
  EXPECT_EQ(client.request("   "), "err empty request");
  // An overlong-but-terminated line is still one request (the max_line_bytes
  // bound only caps UNTERMINATED buffering) and gets an error, not a cut.
  client.send_raw(std::string(8000, 'z') + "\n");
  EXPECT_EQ(client.read_line().rfind("err unknown command", 0), 0u);
  // The connection survived all of it.
  EXPECT_EQ(client.request("ping"), "ok pong");
  EXPECT_EQ(client.request("quit"), "ok bye");
  server.stop();
}

TEST(NetServer, PartialFinalLineAtEofIsDroppedNotExecuted) {
  SketchFleet fleet({});
  ThreadPool pool(2);
  NetServer server(fleet, pool, {});
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  EXPECT_EQ(client.request("create t 64 4"), "ok created t");
  // A request with no terminating newline, then EOF: the line never
  // completed, so it must not run — the server closes without a response.
  client.send_raw("drop t");
  client.shutdown_write();
  EXPECT_EQ(client.read_line(), "");  // EOF, no response line

  // The unterminated drop did not execute.
  TestClient probe(server.port());
  ASSERT_TRUE(probe.connected());
  EXPECT_EQ(probe.request("tenants"), "ok tenants t");
  server.stop();
}

TEST(NetServer, IdleConnectionsAreTimedOut) {
  SketchFleet fleet({});
  ThreadPool pool(2);
  NetServer::Options options;
  options.idle_timeout_ms = 100;
  NetServer server(fleet, pool, options);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  // An active client is not disturbed...
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  EXPECT_EQ(client.request("ping"), "ok pong");
  // ...but one that goes silent (half-open peer, stalled script) is told
  // why and closed, freeing the pool slot.
  EXPECT_EQ(client.read_line(), "err idle timeout");
  EXPECT_TRUE(client.at_eof());
  EXPECT_EQ(server.counters().idle_closed, 1u);
  server.stop();
}

TEST(NetServer, ConnectionsPastTheBoundGetErrBusy) {
  SketchFleet fleet({});
  ThreadPool pool(2);
  NetServer::Options options;
  options.max_connections = 1;
  NetServer server(fleet, pool, options);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  TestClient first(server.port());
  ASSERT_TRUE(first.connected());
  // The ping round trip guarantees the first connection is counted active
  // before the second one reaches the acceptor.
  EXPECT_EQ(first.request("ping"), "ok pong");

  TestClient second(server.port());
  ASSERT_TRUE(second.connected());
  EXPECT_EQ(second.read_line(), "err busy");
  EXPECT_TRUE(second.at_eof());

  // Shedding protected the first client instead of degrading it.
  EXPECT_EQ(first.request("ping"), "ok pong");
  const std::string stats = first.request("stats");
  EXPECT_NE(stats.find("shed_busy=1"), std::string::npos) << stats;
  EXPECT_EQ(first.request("quit"), "ok bye");
  EXPECT_TRUE(first.at_eof());

  // The freed slot admits a new client. The server's accounting decrements
  // just after the close the client observed, so retry (bounded) rather
  // than assume the slot freed instantly.
  std::string third_response;
  for (int attempt = 0; attempt < 100; ++attempt) {
    TestClient third(server.port());
    ASSERT_TRUE(third.connected());
    third_response = third.request("ping");
    if (third_response == "ok pong") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(third_response, "ok pong");
  EXPECT_GE(server.counters().shed_busy, 1u);
  server.stop();
}

TEST(NetServer, StalePipelinedRequestsAreDeadlineRejected) {
  // Deterministic slow request: the net.dispatch failpoint sleeps 150ms
  // inside the FIRST dispatch, so the pipelined requests behind it age past
  // the 50ms deadline while it runs — no wall-clock guessing.
  FaultInjector::instance().clear();
  ASSERT_TRUE(FaultInjector::instance().configure("net.dispatch=sleep150@1"));

  SketchFleet fleet({});
  ThreadPool pool(2);
  NetServer::Options options;
  options.request_deadline_ms = 50;
  NetServer server(fleet, pool, options);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  // One write, three requests, one arrival stamp.
  client.send_raw("ping\nping\nping\n");
  EXPECT_EQ(client.read_line(), "ok pong");  // served (slept, but started fresh)
  EXPECT_EQ(client.read_line(), "err deadline exceeded");
  EXPECT_EQ(client.read_line(), "err deadline exceeded");
  // A fresh write gets a fresh arrival stamp and is served normally.
  EXPECT_EQ(client.request("ping"), "ok pong");
  // quit is a control line: exempt from the deadline, always runs.
  EXPECT_EQ(client.request("quit"), "ok bye");
  EXPECT_EQ(server.counters().deadline_rejected, 2u);
  server.stop();
  FaultInjector::instance().clear();
}

TEST(NetServer, StopUnblocksIdleConnections) {
  SketchFleet fleet({});
  ThreadPool pool(3);
  NetServer server(fleet, pool, {});
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  // Two clients sitting idle mid-connection; stop() must shut both down and
  // return (the pool tasks drain), not hang waiting for client EOF.
  TestClient first(server.port());
  TestClient second(server.port());
  ASSERT_TRUE(first.connected());
  ASSERT_TRUE(second.connected());
  EXPECT_EQ(first.request("ping"), "ok pong");
  EXPECT_EQ(second.request("ping"), "ok pong");
  server.stop();
  EXPECT_TRUE(first.at_eof());
  EXPECT_TRUE(second.at_eof());
}

}  // namespace
}  // namespace covstream
