// [serve-qps] Multi-tenant serve front-end throughput (DESIGN.md §5.12,
// §5.15).
//
// Two tiers of benchmark:
//  * function-level (BM_Mixed*, BM_Estimate*, BM_Solve*) — the fleet request
//    path the server runs per line (command parse, registry lookup, handle
//    grab, estimate/solve/stats), driving handle_fleet_request directly with
//    no sockets in the way;
//  * socket-level (BM_Socket*) — the full epoll-reactor path over real
//    loopback TCP: serial round trips (the unbatched baseline), pipelined
//    writes whose same-tenant runs coalesce through execute_fleet_batch, and
//    the same pipelined load with hundreds of idle connections parked on the
//    reactor plus extra active clients contending — the regime the reactor
//    rewrite targets (idle connections must be ~free, batching must beat
//    serial round trips).
//
// Reported per benchmark: qps (requests/s), p50_us / p99_us request latency
// (sampled per request with a steady clock; for pipelined rounds the round
// trip is divided by the pipeline depth). Results land in
// BENCH_serve_qps.json; tools/bench_diff.py keys on the `qps` counter, knows
// it is higher-is-better, and flags p99 regressions.
#include <benchmark/benchmark.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "parallel/thread_pool.hpp"

#include "benchmark_json_main.hpp"
#include "serve/net_server.hpp"
#include "serve/sketch_fleet.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace covstream {
namespace {

constexpr SetId kNumSets = 64;
constexpr int kTenants = 8;

SketchParams tenant_params() {
  SketchParams params;
  params.num_sets = kNumSets;
  params.k = 4;
  params.eps = 0.3;
  params.budget_mode = BudgetMode::kExplicit;
  params.explicit_budget = 400;
  params.hash_seed = 99;
  return params;
}

std::vector<Edge> make_edges(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Edge> edges;
  edges.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    edges.push_back(
        Edge{static_cast<SetId>(rng.next_below(std::uint64_t{kNumSets})),
             rng.next_below(std::uint64_t{1} << 14)});
  }
  return edges;
}

/// A fleet with kTenants warm tenants, each holding a saturated sketch.
void populate(SketchFleet& fleet) {
  std::string error;
  for (int t = 0; t < kTenants; ++t) {
    const std::string name = "bench" + std::to_string(t);
    COVSTREAM_CHECK(fleet.create(name, tenant_params(), &error));
    COVSTREAM_CHECK(
        fleet.ingest(name, make_edges(20000, 0xBE7C + t), &error));
  }
}

/// The deterministic request schedule: mostly estimates across all tenants
/// with rotating families, a warm-cache solve every 64th request, a fleet
/// stats scan every 256th. One string per request, reused across the run so
/// the benchmark times dispatch, not std::string construction.
std::vector<std::string> mixed_schedule() {
  const char* families[] = {"1,7,13,40", "2,11,29", "0,5,17,33,62", "8,21"};
  std::vector<std::string> requests;
  requests.reserve(1024);
  for (int j = 0; j < 1024; ++j) {
    const std::string tenant = "bench" + std::to_string(j % kTenants);
    if (j % 256 == 255) {
      requests.push_back("stats");
    } else if (j % 64 == 63) {
      requests.push_back("solve " + tenant + " 4");
    } else {
      requests.push_back("estimate " + tenant + " " +
                         families[(j / kTenants) % 4]);
    }
  }
  return requests;
}

/// Runs `state`'s iterations over `requests`, one request per iteration,
/// recording per-request latency; publishes qps + p50/p99 counters.
void drive(benchmark::State& state, SketchFleet& fleet,
           const std::vector<std::string>& requests) {
  bool shutdown = false;
  std::vector<double> latency_us;
  latency_us.reserve(1 << 20);
  std::size_t at = 0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(
        handle_fleet_request(fleet, requests[at], &shutdown));
    const auto stop = std::chrono::steady_clock::now();
    latency_us.push_back(
        std::chrono::duration<double, std::micro>(stop - start).count());
    at = (at + 1) % requests.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["qps"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  state.counters["p50_us"] = quantile(latency_us, 0.50);
  state.counters["p99_us"] = quantile(latency_us, 0.99);
}

/// The headline number: mixed traffic during live ingest. A background
/// thread feeds one tenant continuously (its sketch is saturated, so the
/// admission filter rejects most edges — steady realistic write pressure,
/// not a memcpy storm), while the measured thread runs the mixed schedule
/// against all tenants.
void BM_MixedDuringLiveIngest(benchmark::State& state) {
  SketchFleet fleet({});
  populate(fleet);
  const std::vector<std::string> requests = mixed_schedule();
  std::atomic<bool> stop{false};
  std::thread ingester([&] {
    std::string error;
    std::uint64_t seed = 0x146E57;
    while (!stop.load(std::memory_order_relaxed)) {
      const std::vector<Edge> batch = make_edges(512, seed++);
      if (!fleet.ingest("bench0", batch, &error)) break;
    }
  });
  drive(state, fleet, requests);
  stop.store(true, std::memory_order_relaxed);
  ingester.join();
}

/// Pure read path: the estimate fast path (handle grab + coverage merge),
/// no writer running. The gap to the mixed number is the cost of sharing
/// the machine with the admit path.
void BM_EstimateOnly(benchmark::State& state) {
  SketchFleet fleet({});
  populate(fleet);
  std::vector<std::string> requests;
  for (int t = 0; t < kTenants; ++t) {
    requests.push_back("estimate bench" + std::to_string(t) + " 1,7,13,40");
  }
  drive(state, fleet, requests);
}

/// Warm-cache solves: every request after the first per tenant reuses the
/// warm solver on the tenant's published handle — index and scratch reused.
void BM_SolveWarmCache(benchmark::State& state) {
  SketchFleet fleet({});
  populate(fleet);
  std::vector<std::string> requests;
  for (int t = 0; t < kTenants; ++t) {
    requests.push_back("solve bench" + std::to_string(t) + " 4");
  }
  drive(state, fleet, requests);
}

// ---------------------------------------------------------------------------
// Socket mode: the full reactor path over loopback TCP.

/// A blocking loopback client for driving the real server. Failure is a
/// CHECK: a bench with a broken transport must die loudly, not publish 0.
class BenchClient {
 public:
  explicit BenchClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    COVSTREAM_CHECK(fd_ >= 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    COVSTREAM_CHECK(::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                              sizeof addr) == 0);
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  ~BenchClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  BenchClient(const BenchClient&) = delete;
  BenchClient& operator=(const BenchClient&) = delete;

  void send_all(const std::string& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t wrote = ::send(fd_, bytes.data() + sent,
                                   bytes.size() - sent, MSG_NOSIGNAL);
      COVSTREAM_CHECK(wrote > 0);
      sent += static_cast<std::size_t>(wrote);
    }
  }

  /// Reads until `lines` newlines arrived (responses are one line each).
  void read_lines(int lines) {
    int seen = 0;
    char block[8192];
    while (seen < lines) {
      const ssize_t got = ::read(fd_, block, sizeof block);
      COVSTREAM_CHECK(got > 0);
      for (ssize_t i = 0; i < got; ++i) {
        if (block[i] == '\n') ++seen;
      }
    }
  }

 private:
  int fd_ = -1;
};

/// One pipelined payload per tenant: `depth` same-tenant estimate lines in a
/// single write, so the reactor's dispatch coalesces the whole round into
/// one SketchFleet::estimate_batch (depth 1 degenerates to the serial
/// request/response baseline).
std::vector<std::string> pipelined_rounds(int depth) {
  const char* families[] = {"1,7,13,40", "2,11,29", "0,5,17,33,62", "8,21"};
  std::vector<std::string> rounds;
  for (int t = 0; t < kTenants; ++t) {
    std::string payload;
    for (int j = 0; j < depth; ++j) {
      payload += "estimate bench" + std::to_string(t) + " " +
                 families[j % 4] + "\n";
    }
    rounds.push_back(std::move(payload));
  }
  return rounds;
}

/// Measures round trips of `depth`-deep pipelined writes against a real
/// server with `idle_conns` connections parked on the reactor and
/// `contenders` extra clients running the same load in the background.
/// Per-request latency is the round trip divided by depth.
void socket_drive(benchmark::State& state, int depth, std::size_t idle_conns,
                  int contenders) {
  SketchFleet fleet({});
  populate(fleet);
  ThreadPool pool(4);
  NetServer::Options options;
  options.backlog = 1024;  // idle_conns sequential connects must not overflow
  NetServer server(fleet, pool, options);
  std::string error;
  COVSTREAM_CHECK(server.start(&error));

  std::vector<int> idle;
  idle.reserve(idle_conns);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server.port());
  for (std::size_t i = 0; i < idle_conns; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    COVSTREAM_CHECK(fd >= 0);
    COVSTREAM_CHECK(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                              sizeof addr) == 0);
    idle.push_back(fd);
  }

  const std::vector<std::string> rounds = pipelined_rounds(depth);
  std::atomic<bool> stop{false};
  std::vector<std::thread> others;
  for (int c = 0; c < contenders; ++c) {
    others.emplace_back([&, c] {
      BenchClient contender(server.port());
      std::size_t at = static_cast<std::size_t>(c) % rounds.size();
      while (!stop.load(std::memory_order_relaxed)) {
        contender.send_all(rounds[at]);
        contender.read_lines(depth);
        at = (at + 1) % rounds.size();
      }
    });
  }

  BenchClient client(server.port());
  std::vector<double> latency_us;
  latency_us.reserve(1 << 20);
  std::size_t at = 0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    client.send_all(rounds[at]);
    client.read_lines(depth);
    const auto end = std::chrono::steady_clock::now();
    latency_us.push_back(
        std::chrono::duration<double, std::micro>(end - start).count() /
        depth);
    at = (at + 1) % rounds.size();
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& thread : others) thread.join();
  for (const int fd : idle) ::close(fd);

  const std::int64_t requests = state.iterations() * depth;
  state.SetItemsProcessed(requests);
  state.counters["qps"] = benchmark::Counter(static_cast<double>(requests),
                                             benchmark::Counter::kIsRate);
  state.counters["p50_us"] = quantile(latency_us, 0.50);
  state.counters["p99_us"] = quantile(latency_us, 0.99);
  server.stop();
}

/// The unbatched baseline: one request per write, one response per read —
/// what every request paid before the reactor/batching rewrite.
void BM_SocketSerial(benchmark::State& state) {
  socket_drive(state, /*depth=*/1, /*idle_conns=*/0, /*contenders=*/0);
}

/// 16-deep pipelined writes: same-tenant runs coalesce into one
/// estimate_batch per round — one handle grab and two syscalls amortized
/// over 16 requests. The QPS gap to BM_SocketSerial is what batching buys.
void BM_SocketPipelined(benchmark::State& state) {
  socket_drive(state, /*depth=*/16, /*idle_conns=*/0, /*contenders=*/0);
}

/// The reactor's headline claim: 512 idle connections parked on the epoll
/// loop plus two extra pipelining clients must not meaningfully dent the
/// measured client's throughput (idle connections hold no pool slot).
void BM_SocketPipelinedManyIdle(benchmark::State& state) {
  socket_drive(state, /*depth=*/16, /*idle_conns=*/512, /*contenders=*/2);
}

// UseRealTime: with a background ingester sharing the machine, wall clock is
// the honest QPS denominator (CPU-time rates would credit the reader for
// cycles the writer consumed).
BENCHMARK(BM_MixedDuringLiveIngest)->Unit(benchmark::kMicrosecond)->UseRealTime();
BENCHMARK(BM_EstimateOnly)->Unit(benchmark::kMicrosecond)->UseRealTime();
BENCHMARK(BM_SolveWarmCache)->Unit(benchmark::kMicrosecond)->UseRealTime();
// Socket benchmarks block in read(); real time is the only meaningful rate.
BENCHMARK(BM_SocketSerial)->Unit(benchmark::kMicrosecond)->UseRealTime();
BENCHMARK(BM_SocketPipelined)->Unit(benchmark::kMicrosecond)->UseRealTime();
BENCHMARK(BM_SocketPipelinedManyIdle)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

}  // namespace
}  // namespace covstream

int main(int argc, char** argv) {
  return covstream::bench::run_benchmark_json_main(argc, argv,
                                                   "BENCH_serve_qps.json");
}
