// Reactor + batching coverage for the fleet front door (DESIGN.md §5.15).
//
// What the epoll rewrite bought, pinned as tests:
//  * NetServerMux — connection multiplexing: 1000+ simultaneously open idle
//    connections on a 4-slot pool (impossible when one connection pinned one
//    pool slot), slow-loris partial-line writers not starving active
//    clients, and the open_connections gauge tracking accepts and closes;
//  * NetServerBatch — per-tenant request coalescing: pipelined batches
//    produce byte-identical, in-order responses vs the serial
//    one-line-at-a-time path (including mid-batch err lines and deadline
//    rejections), and the batching counters surface on the `stats` wire.
// Suite names start with NetServer so the existing ASan/TSan CI leg filters
// (`NetServer*`) pick them up.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "serve/net_server.hpp"
#include "serve/sketch_fleet.hpp"

namespace covstream {
namespace {

// A blocking line-oriented test client (same shape as net_server_test.cpp's).
class MuxClient {
 public:
  explicit MuxClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    connected_ = ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof addr) == 0;
  }
  ~MuxClient() { close(); }

  bool connected() const { return connected_; }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  void send_raw(const std::string& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t wrote = ::send(fd_, bytes.data() + sent,
                                   bytes.size() - sent, MSG_NOSIGNAL);
      ASSERT_GT(wrote, 0);
      sent += static_cast<std::size_t>(wrote);
    }
  }

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

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buffer_;
};

/// Raises RLIMIT_NOFILE's soft limit toward `want` fds. False when the hard
/// limit cannot host the test (skip, don't fail: the environment is at
/// fault, not the server).
bool ensure_fd_limit(std::size_t want) {
  rlimit limit{};
  if (::getrlimit(RLIMIT_NOFILE, &limit) != 0) return false;
  if (limit.rlim_cur != RLIM_INFINITY && limit.rlim_cur >= want) return true;
  if (limit.rlim_max != RLIM_INFINITY && limit.rlim_max < want) return false;
  rlimit raised = limit;
  raised.rlim_cur = limit.rlim_max == RLIM_INFINITY
                        ? static_cast<rlim_t>(want)
                        : std::min<rlim_t>(limit.rlim_max, want);
  if (::setrlimit(RLIMIT_NOFILE, &raised) != 0) return false;
  return raised.rlim_cur >= want;
}

std::uint64_t open_connections(const NetServer& server) {
  return server.counters().open_connections;
}

/// Polls `probe` (a counter getter) until it returns `want` or ~2s pass.
template <typename Probe>
bool poll_until(Probe&& probe, std::uint64_t want) {
  for (int spin = 0; spin < 400; ++spin) {
    if (probe() == want) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return probe() == want;
}

// The acceptance-criteria test: a 4-slot pool sustains >= 1000 open idle
// connections while an active client keeps getting answered. Pre-reactor
// the 5th connection would have queued forever behind the 4 pool slots.
TEST(NetServerMux, ThousandIdleConnectionsOnFourSlotPool) {
  constexpr std::size_t kIdle = 1050;
  if (!ensure_fd_limit(kIdle + 256)) {
    GTEST_SKIP() << "RLIMIT_NOFILE too low for a 1000-connection test";
  }
  SketchFleet fleet({});
  ThreadPool pool(4);
  NetServer::Options options;
  options.backlog = 1024;  // 1050 sequential connects must not overflow SYN
  NetServer server(fleet, pool, options);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  std::vector<int> idle_fds;
  idle_fds.reserve(kIdle);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server.port());
  for (std::size_t i = 0; i < kIdle; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0) << "fd exhaustion at connection " << i;
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof addr),
              0)
        << "connect " << i << " failed: " << std::strerror(errno);
    idle_fds.push_back(fd);
  }
  // Every connect above completed its TCP handshake, but accept runs on the
  // reactor — wait until it has registered them all.
  ASSERT_TRUE(poll_until([&] { return open_connections(server); }, kIdle));

  // With 1050 connections open and 4 pool threads, an active client still
  // gets every answer — idle connections hold no pool slot.
  MuxClient active(server.port());
  ASSERT_TRUE(active.connected());
  EXPECT_EQ(active.request("create t 64 4 0.3 7"), "ok created t");
  for (int round = 0; round < 50; ++round) {
    EXPECT_EQ(active.request("ping"), "ok pong");
  }
  EXPECT_EQ(active.request("ingest t 1 10 2 20"), "ok ingested 2");
  EXPECT_EQ(active.request("estimate t 1,2"), "ok estimate 2.0");
  EXPECT_EQ(open_connections(server), kIdle + 1);
  EXPECT_GE(server.counters().connections_accepted, kIdle + 1);

  for (const int fd : idle_fds) ::close(fd);
  ASSERT_TRUE(poll_until([&] { return open_connections(server); }, 1));
  EXPECT_EQ(active.request("ping"), "ok pong");
  server.stop();
}

// A client dribbling one byte at a time (never completing its line) must
// cost the server nothing but buffer space: concurrent active clients keep
// being served, and the loris still gets its answer once the line completes.
TEST(NetServerMux, SlowLorisPartialLinesDoNotStarveActiveClients) {
  SketchFleet fleet({});
  ThreadPool pool(2);
  NetServer server(fleet, pool, {});
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  MuxClient loris(server.port());
  ASSERT_TRUE(loris.connected());
  MuxClient stuck(server.port());  // never completes, closes abruptly
  ASSERT_TRUE(stuck.connected());
  stuck.send_raw("pin");

  const std::string drip = "ping\n";
  std::atomic<bool> active_done{false};
  std::thread active_thread([&] {
    MuxClient active(server.port());
    ASSERT_TRUE(active.connected());
    for (int round = 0; round < 200; ++round) {
      ASSERT_EQ(active.request("ping"), "ok pong");
    }
    active_done.store(true);
  });
  for (const char c : drip) {
    loris.send_raw(std::string(1, c));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(loris.read_line(), "ok pong");
  stuck.close();  // abrupt close with a partial line buffered: no response
  active_thread.join();
  EXPECT_TRUE(active_done.load());
  server.stop();
}

TEST(NetServerMux, OpenConnectionsGaugeTracksAcceptsAndCloses) {
  SketchFleet fleet({});
  ThreadPool pool(2);
  NetServer server(fleet, pool, {});
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  auto first = std::make_unique<MuxClient>(server.port());
  auto second = std::make_unique<MuxClient>(server.port());
  auto third = std::make_unique<MuxClient>(server.port());
  ASSERT_TRUE(first->connected() && second->connected() && third->connected());
  ASSERT_TRUE(poll_until([&] { return open_connections(server); }, 3));
  EXPECT_EQ(server.counters().connections_accepted, 3u);

  second.reset();  // abrupt client-side close
  ASSERT_TRUE(poll_until([&] { return open_connections(server); }, 2));
  EXPECT_EQ(first->request("ping"), "ok pong");  // survivors unaffected

  EXPECT_EQ(third->request("quit"), "ok bye");  // protocol-level close
  ASSERT_TRUE(poll_until([&] { return open_connections(server); }, 1));
  server.stop();
  EXPECT_EQ(open_connections(server), 0u);
}

std::vector<FleetBatchRequest> as_batch(const std::vector<std::string>& lines) {
  std::vector<FleetBatchRequest> batch;
  const auto now = std::chrono::steady_clock::now();
  for (const std::string& line : lines) {
    batch.push_back(FleetBatchRequest{line, now});
  }
  return batch;
}

/// The pre-reactor dispatch loop: one handle_fleet_request per line, quit
/// closing the connection and discarding the rest of the pipeline.
std::string serial_responses(SketchFleet& fleet,
                             const std::vector<std::string>& lines) {
  std::string responses;
  for (const std::string& line : lines) {
    if (line == "quit") {
      responses += "ok bye\n";
      break;
    }
    bool shutdown = false;
    responses += handle_fleet_request(fleet, line, &shutdown);
    responses += '\n';
    if (shutdown) break;
  }
  return responses;
}

void seed_twin(SketchFleet& fleet) {
  std::string error;
  bool shutdown = false;
  ASSERT_EQ(handle_fleet_request(fleet, "create a 64 4 0.3 9", &shutdown),
            "ok created a");
  ASSERT_EQ(handle_fleet_request(fleet, "create b 32 2 0.3 9", &shutdown),
            "ok created b");
}

// The byte-for-byte acceptance criterion: a pipelined batch produces exactly
// the bytes the serial path produces, in order — through coalesced estimate
// runs, coalesced ingest runs, mid-run range errors, parse errors, unknown
// tenants, and a mid-pipeline quit.
TEST(NetServerBatch, PipelinedBatchMatchesSerialExecution) {
  SketchFleet batched_fleet({});
  SketchFleet serial_fleet({});
  seed_twin(batched_fleet);
  seed_twin(serial_fleet);

  const std::vector<std::string> lines = {
      // ingest run for tenant a (coalesces into one admission)...
      "ingest a 1 10 2 20 3 30",
      "ingest a 4 40",
      "ingest a 1 11 1 12",
      // ...broken by a parse error (answered individually, identically),
      "ingest a 5 oops",
      // tenant switch: new run of one for b,
      "ingest b 1 100",
      // estimate run for a with a mid-run out-of-range err line,
      "estimate a 1,2",
      "estimate a 70",
      "estimate a 3,4",
      "estimate a ",
      // a parse error breaks the run but answers identically,
      "estimate a 1,x",
      "estimate a 1",
      // an ingest run for b whose middle line is out of range: the refused
      // admission re-runs each line alone,
      "ingest b 2 200",
      "ingest b 32 300",
      "ingest b 3 300",
      // unknown-tenant estimate run: every member gets the same error,
      "estimate ghost 1",
      "estimate ghost 2",
      // non-coalescable interleavings,
      "ping",
      "solve a 2",
      "stats a",
      "tenants",
      "bogus request",
      "",
      // and a quit that discards the rest of the pipeline.
      "quit",
      "ping",
  };

  // Byte-identity holds everywhere except the `version=` counter inside
  // `stats` responses: a coalesced ingest run is one admitted batch and so
  // one version bump where serial bumps per line (docs/PROTOCOL.md's ingest
  // row documents this). Blank it on both sides, compare everything else.
  const auto strip_versions = [](std::string s) {
    for (std::size_t at = s.find("version="); at != std::string::npos;
         at = s.find("version=", at + 1)) {
      std::size_t end = at + 8;
      while (end < s.size() &&
             std::isdigit(static_cast<unsigned char>(s[end]))) {
        ++end;
      }
      s.replace(at, end - at, "version=*");
    }
    return s;
  };
  const std::string serial = serial_responses(serial_fleet, lines);
  const FleetBatchResult result =
      execute_fleet_batch(batched_fleet, as_batch(lines), 0);
  EXPECT_EQ(strip_versions(result.responses), strip_versions(serial));
  EXPECT_TRUE(result.close);
  EXPECT_FALSE(result.shutdown);
  // 24 lines: quit stops the batch, the trailing ping is never served.
  EXPECT_EQ(result.served, lines.size() - 1);
  // Coalesced runs: ingest a x3, estimate a x3 ("1,2","70","3,4"),
  // estimate ghost x2. ("estimate a " parses as an empty family and opens a
  // fresh run, but its run has length 1 — not counted; nor are b's ingest
  // lines, which re-ran singly.)
  EXPECT_EQ(result.coalesced_ingest_lines, 3u);
  EXPECT_EQ(result.batched_requests, 3u + 3u + 2u);

  // The fleets converged to the same sketch state (again modulo the version
  // counter — content, estimates, and solves must match).
  for (const char* probe : {"estimate a 1,2,3,4", "estimate b 1",
                            "estimate b 1,2,3", "solve a 3", "stats a",
                            "stats b"}) {
    bool shutdown = false;
    EXPECT_EQ(strip_versions(handle_fleet_request(batched_fleet, probe,
                                                  &shutdown)),
              strip_versions(handle_fleet_request(serial_fleet, probe,
                                                  &shutdown)))
        << "post-state diverged on: " << probe;
  }
}

// Regression: a coalesced same-tenant ingest run of length >= 2 terminated
// by a DIFFERENT tenant's *valid* ingest line (not a parse error) must roll
// that line's already-parsed edges back out of the run's admission batch —
// they belong to the next run, which re-parses the line from scratch. The
// wire responses are identical either way; only the post-batch sketch state
// exposes a leak, so probe both tenants against the serial twin.
TEST(NetServerBatch, IngestRunTenantSwitchDoesNotLeakEdgesAcrossTenants) {
  SketchFleet batched_fleet({});
  SketchFleet serial_fleet({});
  seed_twin(batched_fleet);
  seed_twin(serial_fleet);

  const std::vector<std::string> lines = {
      "ingest a 1 10 2 20",
      "ingest a 3 30",
      "ingest b 1 100 2 200",  // ends a's run of 2: must not contaminate a
      "ingest b 4 400",        // ...and still opens b's own coalesced run
  };
  const std::string serial = serial_responses(serial_fleet, lines);
  const FleetBatchResult result =
      execute_fleet_batch(batched_fleet, as_batch(lines), 0);
  EXPECT_EQ(result.responses, serial);
  EXPECT_EQ(result.served, lines.size());
  EXPECT_EQ(result.coalesced_ingest_lines, 4u);  // a's run of 2 + b's run of 2

  // With the rollback bug, a's admission also carried b's edges (sets 1/2
  // gain elements 100/200), so a's estimates diverge while b's still match
  // (b's line re-executes at the start of the next run either way).
  for (const char* probe :
       {"estimate a 1", "estimate a 2", "estimate a 1,2,3", "estimate b 1",
        "estimate b 1,2,4", "solve a 2", "solve b 2"}) {
    bool shutdown = false;
    EXPECT_EQ(handle_fleet_request(batched_fleet, probe, &shutdown),
              handle_fleet_request(serial_fleet, probe, &shutdown))
        << "post-state diverged on: " << probe;
  }
}

// Deadline shedding inside a batch: an expired member is rejected at its
// position without executing, and without derailing its neighbors. (The
// socket-level variant lives in net_server_test.cpp; this one pins the batch
// executor deterministically by backdating arrivals.)
TEST(NetServerBatch, DeadlineRejectionsMidBatchKeepOrder) {
  SketchFleet fleet({});
  seed_twin(fleet);
  const auto now = std::chrono::steady_clock::now();
  const auto stale = now - std::chrono::milliseconds(500);
  std::vector<FleetBatchRequest> batch = {
      {"estimate a 1", now},
      {"estimate a 2", stale},  // expired mid-run: run splits around it
      {"estimate a 3", now},
      {"ingest a 1 10", stale},
      {"quit", stale},  // control lines are exempt from the deadline
  };
  const FleetBatchResult result = execute_fleet_batch(fleet, batch, 100);
  EXPECT_EQ(result.responses,
            "ok estimate 0.0\n"
            "err deadline exceeded\n"
            "ok estimate 0.0\n"
            "err deadline exceeded\n"
            "ok bye\n");
  EXPECT_EQ(result.deadline_rejected, 2u);
  EXPECT_EQ(result.served, 5u);
  EXPECT_TRUE(result.close);
}

// Socket-level batching: with a batch window armed, one pipelined write
// lands as one dispatch whose runs coalesce — responses in order, counters
// on the `stats` wire (PROTOCOL.md).
TEST(NetServerBatch, SocketPipelinedCoalescingKeepsOrderAndCounts) {
  SketchFleet fleet({});
  ThreadPool pool(2);
  NetServer::Options options;
  options.batch_window_us = 5000;  // collect the whole pipeline first
  NetServer server(fleet, pool, options);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  MuxClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_EQ(client.request("create t 64 4 0.3 7"), "ok created t");

  client.send_raw(
      "ingest t 1 10 2 20\n"
      "ingest t 3 30\n"
      "estimate t 1,2\n"
      "estimate t 3\n"
      "estimate t 1,2,3\n"
      "ping\n");
  EXPECT_EQ(client.read_line(), "ok ingested 2");
  EXPECT_EQ(client.read_line(), "ok ingested 1");
  EXPECT_EQ(client.read_line(), "ok estimate 2.0");
  EXPECT_EQ(client.read_line(), "ok estimate 1.0");
  EXPECT_EQ(client.read_line(), "ok estimate 3.0");
  EXPECT_EQ(client.read_line(), "ok pong");

  const NetServer::Counters counters = server.counters();
  EXPECT_EQ(counters.coalesced_ingest_lines, 2u);
  EXPECT_EQ(counters.batched_requests, 5u);  // 2 ingest + 3 estimate
  EXPECT_GE(counters.epoll_wakeups, 1u);

  // The same numbers surface on the wire, for operators (satellite:
  // PROTOCOL.md `stats` row).
  const std::string stats = client.request("stats");
  for (const char* field :
       {" open_connections=1", " epoll_wakeups=", " batched_requests=5",
        " coalesced_ingest_lines=2", " estimate_batches=1",
        " batched_estimates=3"}) {
    EXPECT_NE(stats.find(field), std::string::npos)
        << "stats missing `" << field << "`: " << stats;
  }
  server.stop();
}

// SketchFleet::estimate_batch directly: one handle acquisition answers the
// whole run, per-family errors match serial estimate() byte-for-byte, and
// whole-batch failures (unknown tenant) fail once for all.
TEST(NetServerBatch, EstimateBatchMatchesSerialEstimates) {
  SketchFleet fleet({});
  seed_twin(fleet);
  bool shutdown = false;
  ASSERT_EQ(handle_fleet_request(fleet, "ingest a 1 10 2 20", &shutdown),
            "ok ingested 2");

  const std::vector<std::vector<SetId>> families = {{1}, {2, 70}, {1, 2}, {}};
  std::vector<SketchFleet::EstimateOutcome> outcomes;
  std::string error;
  ASSERT_TRUE(fleet.estimate_batch("a", families, &outcomes, &error)) << error;
  ASSERT_EQ(outcomes.size(), families.size());
  for (std::size_t i = 0; i < families.size(); ++i) {
    std::string serial_error;
    const std::optional<double> serial =
        fleet.estimate("a", families[i], &serial_error);
    EXPECT_EQ(outcomes[i].value.has_value(), serial.has_value());
    if (serial.has_value()) {
      EXPECT_EQ(*outcomes[i].value, *serial) << "family " << i;
    } else {
      EXPECT_EQ(outcomes[i].error, serial_error) << "family " << i;
    }
  }
  EXPECT_FALSE(fleet.estimate_batch("ghost", families, &outcomes, &error));
  EXPECT_EQ(error, "unknown tenant 'ghost'");

  const SketchFleet::FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.estimate_batches, 1u);
  EXPECT_EQ(stats.batched_estimates, 4u);
}

}  // namespace
}  // namespace covstream
