#include "serve/net_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <deque>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <utility>

#include "parallel/thread_pool.hpp"
#include "util/fault_injection.hpp"

namespace covstream {

namespace {

std::vector<std::string_view> split_tokens(std::string_view line) {
  std::vector<std::string_view> tokens;
  std::size_t at = 0;
  while (at < line.size()) {
    while (at < line.size() && line[at] == ' ') ++at;
    std::size_t end = at;
    while (end < line.size() && line[end] != ' ') ++end;
    if (end > at) tokens.push_back(line.substr(at, end - at));
    at = end;
  }
  return tokens;
}

std::optional<std::uint64_t> parse_u64(std::string_view token) {
  if (token.empty()) return std::nullopt;
  std::uint64_t value = 0;
  for (const char c : token) {
    if (c < '0' || c > '9') return std::nullopt;
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (~0ULL - digit) / 10) return std::nullopt;  // overflow
    value = value * 10 + digit;
  }
  return value;
}

std::optional<double> parse_f64(std::string_view token) {
  const std::string text(token);
  char* rest = nullptr;
  const double value = std::strtod(text.c_str(), &rest);
  if (rest == text.c_str() || *rest != '\0') return std::nullopt;
  return value;
}

/// "1,2,5" -> ids (empty string -> empty family); nullopt on junk. Range
/// checking against the tenant's universe happens inside the fleet.
std::optional<std::vector<SetId>> parse_id_list(std::string_view text) {
  std::vector<SetId> ids;
  std::size_t at = 0;
  while (at < text.size()) {
    std::size_t end = text.find(',', at);
    if (end == std::string_view::npos) end = text.size();
    if (end > at) {
      const std::optional<std::uint64_t> id = parse_u64(text.substr(at, end - at));
      if (!id || *id > 0xffffffffULL) return std::nullopt;
      ids.push_back(static_cast<SetId>(*id));
    }
    at = end + 1;
  }
  return ids;
}

std::string err(const std::string& message) { return "err " + message; }

/// Estimates print with one decimal; p* spans many decades on a long
/// stream, so stats print it with "%.6g" significant digits instead.
std::string format_double(double value, const char* format = "%.1f") {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, format, value);
  return buffer;
}

/// True iff `line` is a fully valid `estimate <tenant> <id,id,...>` request
/// (a candidate for run coalescing). Anything else — wrong arity, junk id
/// list — goes through handle_fleet_request individually so its error
/// response is byte-identical to the serial path.
bool parse_estimate_line(std::string_view line, std::string* tenant,
                         std::vector<SetId>* family) {
  const std::vector<std::string_view> tokens = split_tokens(line);
  if (tokens.size() != 3 || tokens[0] != "estimate") return false;
  std::optional<std::vector<SetId>> ids = parse_id_list(tokens[2]);
  if (!ids) return false;
  tenant->assign(tokens[1]);
  *family = std::move(*ids);
  return true;
}

/// True iff `line` is a fully valid `ingest <tenant> <set> <elem> ...`
/// request; appends the parsed edges to *edges.
bool parse_ingest_line(std::string_view line, std::string* tenant,
                       std::vector<Edge>* edges) {
  const std::vector<std::string_view> tokens = split_tokens(line);
  if (tokens.size() < 4 || (tokens.size() - 2) % 2 != 0 ||
      tokens[0] != "ingest") {
    return false;
  }
  const std::size_t base = edges->size();
  edges->reserve(base + (tokens.size() - 2) / 2);
  for (std::size_t i = 2; i + 1 < tokens.size(); i += 2) {
    const std::optional<std::uint64_t> set = parse_u64(tokens[i]);
    const std::optional<std::uint64_t> elem = parse_u64(tokens[i + 1]);
    if (!set || *set > 0xffffffffULL || !elem) {
      edges->resize(base);
      return false;
    }
    edges->push_back(Edge{static_cast<SetId>(*set), *elem});
  }
  tenant->assign(tokens[1]);
  return true;
}

void evaluate_dispatch_failpoint() {
  // Failpoint for deterministic slow-request tests (sleep action) and
  // crash_smoke.py kill points: one relaxed load when nothing is armed.
  if (FaultInjector::instance().armed()) {
    (void)FaultInjector::instance().evaluate("net.dispatch");
  }
}

}  // namespace

std::string handle_fleet_request(SketchFleet& fleet, std::string_view line,
                                 bool* shutdown_requested, ThreadPool* pool,
                                 const NetServer* server) {
  const std::vector<std::string_view> tokens = split_tokens(line);
  if (tokens.empty()) return err("empty request");
  const std::string_view cmd = tokens[0];
  std::string error;

  if (cmd == "ping") return "ok pong";

  if (cmd == "shutdown") {
    if (shutdown_requested != nullptr) *shutdown_requested = true;
    return "ok bye";
  }

  if (cmd == "create") {
    // create <tenant> <n> <k> [eps] [seed]
    if (tokens.size() < 4 || tokens.size() > 6) {
      return err("usage: create <tenant> <n> <k> [eps] [seed]");
    }
    const std::optional<std::uint64_t> n = parse_u64(tokens[2]);
    const std::optional<std::uint64_t> k = parse_u64(tokens[3]);
    if (!n || *n == 0 || *n > 0xffffffffULL || !k || *k == 0 ||
        *k > 0xffffffffULL) {
      return err("create: n and k must be positive 32-bit integers");
    }
    StreamingOptions options;
    options.eps = 0.15;
    options.seed = 1;
    if (tokens.size() >= 5) {
      const std::optional<double> eps = parse_f64(tokens[4]);
      if (!eps || *eps <= 0.0 || *eps > 1.0) {
        return err("create: eps must be in (0, 1]");
      }
      options.eps = *eps;
    }
    if (tokens.size() == 6) {
      const std::optional<std::uint64_t> seed = parse_u64(tokens[5]);
      if (!seed) return err("create: bad seed");
      options.seed = *seed;
    }
    const SketchParams params = options.sketch_params(
        static_cast<SetId>(*n), static_cast<std::uint32_t>(*k));
    if (!fleet.create(std::string(tokens[1]), params, &error)) return err(error);
    return "ok created " + std::string(tokens[1]);
  }

  if (cmd == "ingest") {
    // ingest <tenant> <set> <elem> [<set> <elem> ...]
    if (tokens.size() < 4 || (tokens.size() - 2) % 2 != 0) {
      return err("usage: ingest <tenant> <set> <elem> [<set> <elem> ...]");
    }
    std::vector<Edge> edges;
    edges.reserve((tokens.size() - 2) / 2);
    for (std::size_t i = 2; i + 1 < tokens.size(); i += 2) {
      const std::optional<std::uint64_t> set = parse_u64(tokens[i]);
      const std::optional<std::uint64_t> elem = parse_u64(tokens[i + 1]);
      if (!set || *set > 0xffffffffULL || !elem) {
        return err("ingest: bad <set> <elem> pair");
      }
      edges.push_back(Edge{static_cast<SetId>(*set), *elem});
    }
    if (!fleet.ingest(std::string(tokens[1]), edges, &error)) return err(error);
    return "ok ingested " + std::to_string(edges.size());
  }

  if (cmd == "estimate") {
    // estimate <tenant> <id,id,...>
    if (tokens.size() != 3) return err("usage: estimate <tenant> <id,id,...>");
    const std::optional<std::vector<SetId>> family = parse_id_list(tokens[2]);
    if (!family) return err("estimate: bad id list");
    const std::optional<double> value =
        fleet.estimate(std::string(tokens[1]), *family, &error);
    if (!value) return err(error);
    return "ok estimate " + format_double(*value);
  }

  if (cmd == "solve") {
    // solve <tenant> <k>
    if (tokens.size() != 3) return err("usage: solve <tenant> <k>");
    const std::optional<std::uint64_t> k = parse_u64(tokens[2]);
    if (!k || *k == 0 || *k > 0xffffffffULL) {
      return err("solve: k must be a positive 32-bit integer");
    }
    const std::optional<KCoverResult> result = fleet.solve(
        std::string(tokens[1]), static_cast<std::uint32_t>(*k), &error);
    if (!result) return err(error);
    std::string sets;
    for (const SetId s : result->solution) {
      if (!sets.empty()) sets += ',';
      sets += std::to_string(s);
    }
    return "ok solve " + format_double(result->estimated_coverage) +
           " sets=" + sets;
  }

  if (cmd == "save") {
    if (tokens.size() != 3) return err("usage: save <tenant> <path>");
    if (!fleet.save(std::string(tokens[1]), std::string(tokens[2]), &error)) {
      return err(error);
    }
    return "ok saved " + std::string(tokens[2]);
  }

  if (cmd == "evict") {
    if (tokens.size() != 2) return err("usage: evict <tenant>");
    if (!fleet.evict(std::string(tokens[1]), &error)) return err(error);
    return "ok evicted " + std::string(tokens[1]);
  }

  if (cmd == "drop") {
    if (tokens.size() != 2) return err("usage: drop <tenant>");
    if (!fleet.drop(std::string(tokens[1]), &error)) return err(error);
    return "ok dropped " + std::string(tokens[1]);
  }

  if (cmd == "flush") {
    if (tokens.size() != 1) return err("usage: flush");
    std::size_t flushed = 0;
    if (!fleet.flush_all(&flushed, &error)) return err(error);
    return "ok flushed " + std::to_string(flushed);
  }

  if (cmd == "fault") {
    // Testing-only admin command: arm/disarm failpoints in-process so
    // crash_smoke.py can kill the server at an exact write boundary. Gated
    // on COVSTREAM_FAILPOINTS being present in the server's environment —
    // a production server cannot be fault-armed over the wire.
    FaultInjector& faults = FaultInjector::instance();
    if (!faults.admin_enabled()) {
      return err("fault injection disabled (set COVSTREAM_FAILPOINTS)");
    }
    if (tokens.size() == 2 && tokens[1] == "clear") {
      faults.clear();
      return "ok fault cleared";
    }
    if (tokens.size() != 2) return err("usage: fault <spec>|clear");
    if (!faults.configure(tokens[1], &error)) return err("fault: " + error);
    return "ok fault armed";
  }

  if (cmd == "stats") {
    if (tokens.size() == 2) {
      const std::optional<SketchFleet::TenantStats> stats =
          fleet.tenant_stats(std::string(tokens[1]));
      if (!stats) return err("unknown tenant '" + std::string(tokens[1]) + "'");
      return "ok tenant " + std::string(tokens[1]) +
             " version=" + std::to_string(stats->version) +
             " resident=" + (stats->resident ? std::string("1") : std::string("0")) +
             " words=" + std::to_string(stats->space_words) +
             " edges=" + std::to_string(stats->edges_ingested) +
             " sets=" + std::to_string(stats->num_sets) +
             " retained=" + std::to_string(stats->retained_elements) +
             " stored_edges=" + std::to_string(stats->stored_edges) +
             " p_star=" + format_double(stats->p_star, "%.6g");
    }
    if (tokens.size() != 1) return err("usage: stats [<tenant>]");
    const SketchFleet::FleetStats stats = fleet.stats();
    std::string response =
        "ok stats tenants=" + std::to_string(stats.tenants) +
        " resident=" + std::to_string(stats.resident) +
        " words=" + std::to_string(stats.resident_words) +
        " budget=" + std::to_string(stats.budget_words) +
        " evictions=" + std::to_string(stats.evictions) +
        " reloads=" + std::to_string(stats.reloads) +
        " cache_hits=" + std::to_string(stats.solver_cache_hits) +
        " cache_misses=" + std::to_string(stats.solver_cache_misses) +
        " degraded=" + (stats.degraded ? std::string("1") : std::string("0")) +
        " spill_failures=" + std::to_string(stats.spill_failures) +
        " quarantined=" + std::to_string(stats.quarantined) +
        " flushed=" + std::to_string(stats.flushed_tenants) +
        " estimate_batches=" + std::to_string(stats.estimate_batches) +
        " batched_estimates=" + std::to_string(stats.batched_estimates);
    if (pool != nullptr) {
      response += " pool_pending=" + std::to_string(pool->pending_tasks());
    }
    if (server != nullptr) {
      const NetServer::Counters counters = server->counters();
      response += " shed_busy=" + std::to_string(counters.shed_busy) +
                  " idle_closed=" + std::to_string(counters.idle_closed) +
                  " deadline_rejected=" +
                  std::to_string(counters.deadline_rejected) +
                  " open_connections=" +
                  std::to_string(counters.open_connections) +
                  " epoll_wakeups=" + std::to_string(counters.epoll_wakeups) +
                  " batched_requests=" +
                  std::to_string(counters.batched_requests) +
                  " coalesced_ingest_lines=" +
                  std::to_string(counters.coalesced_ingest_lines);
    }
    return response;
  }

  if (cmd == "tenants") {
    if (tokens.size() != 1) return err("usage: tenants");
    std::string names;
    for (const std::string& name : fleet.tenant_names()) {
      if (!names.empty()) names += ',';
      names += name;
    }
    return "ok tenants " + names;
  }

  return err("unknown command '" + std::string(cmd) + "'");
}

FleetBatchResult execute_fleet_batch(SketchFleet& fleet,
                                     std::span<const FleetBatchRequest> batch,
                                     std::uint32_t request_deadline_ms,
                                     ThreadPool* pool,
                                     const NetServer* server) {
  FleetBatchResult result;
  const auto expired = [request_deadline_ms](const FleetBatchRequest& req) {
    if (request_deadline_ms == 0) return false;
    // Shed, don't serve: a pipelined request that already waited past its
    // deadline is stale — executing it wastes the pool on work the client
    // gave up on. Control lines (quit/shutdown) always run.
    if (req.line == "quit" || req.line == "shutdown") return false;
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - req.arrival)
               .count() > static_cast<std::int64_t>(request_deadline_ms);
  };

  std::size_t i = 0;
  std::string tenant;
  std::string run_tenant;
  while (i < batch.size()) {
    const std::string& line = batch[i].line;
    if (expired(batch[i])) {
      result.responses += "err deadline exceeded\n";
      ++result.deadline_rejected;
      ++result.served;
      ++i;
      continue;
    }
    if (line == "quit") {
      result.responses += "ok bye\n";
      ++result.served;
      result.close = true;
      break;
    }
    evaluate_dispatch_failpoint();

    // Same-tenant estimate run: every member answers from ONE acquired
    // handle (one reload check, at most one view build, one pointer grab)
    // instead of re-acquiring per request. All members read the same
    // published version — a legal linearization, since the protocol orders
    // only within a connection.
    std::vector<SetId> family;
    if (parse_estimate_line(line, &tenant, &family)) {
      std::vector<std::vector<SetId>> families;
      families.push_back(std::move(family));
      std::size_t j = i + 1;
      while (j < batch.size() && !expired(batch[j])) {
        std::vector<SetId> next_family;
        if (!parse_estimate_line(batch[j].line, &run_tenant, &next_family) ||
            run_tenant != tenant) {
          break;
        }
        evaluate_dispatch_failpoint();
        families.push_back(std::move(next_family));
        ++j;
      }
      if (families.size() == 1) {
        bool ignored = false;
        result.responses += handle_fleet_request(fleet, line, &ignored, pool, server);
        result.responses += '\n';
        ++result.served;
        i = j;
        continue;
      }
      std::vector<SketchFleet::EstimateOutcome> outcomes;
      std::string error;
      if (!fleet.estimate_batch(tenant, families, &outcomes, &error)) {
        // Whole-batch failure (unknown tenant / failed reload): the serial
        // path would have returned the same error for every member.
        for (std::size_t m = 0; m < families.size(); ++m) {
          result.responses += "err " + error + "\n";
        }
      } else {
        for (const SketchFleet::EstimateOutcome& outcome : outcomes) {
          if (outcome.value.has_value()) {
            result.responses += "ok estimate " + format_double(*outcome.value) + "\n";
          } else {
            result.responses += "err " + outcome.error + "\n";
          }
        }
      }
      result.batched_requests += families.size();
      result.served += families.size();
      i = j;
      continue;
    }

    // Same-tenant ingest run: the edges of every member fold into ONE
    // update_chunk admission batch (one reload check, one version bump —
    // PROTOCOL.md documents the per-admitted-batch version
    // semantics), feeding the chunk-shaped AVX2 admit kernels their
    // preferred large chunks. Responses stay one `ok ingested <n>` per
    // line with that line's own edge count.
    std::vector<Edge> edges;
    if (parse_ingest_line(line, &tenant, &edges)) {
      std::vector<std::size_t> line_counts{edges.size()};
      std::size_t j = i + 1;
      while (j < batch.size() && !expired(batch[j])) {
        const std::size_t before = edges.size();
        if (!parse_ingest_line(batch[j].line, &run_tenant, &edges)) {
          break;
        }
        if (run_tenant != tenant) {
          // Tenant switch: the line's edges were already appended above and
          // belong to the NEXT run (it re-parses from i = j) — roll back so
          // they are not admitted into this tenant's sketch.
          edges.resize(before);
          break;
        }
        evaluate_dispatch_failpoint();
        line_counts.push_back(edges.size() - before);
        ++j;
      }
      if (line_counts.size() == 1) {
        bool ignored = false;
        result.responses += handle_fleet_request(fleet, line, &ignored, pool, server);
        result.responses += '\n';
        ++result.served;
        i = j;
        continue;
      }
      std::string error;
      if (fleet.ingest(tenant, edges, &error)) {
        for (const std::size_t count : line_counts) {
          result.responses += "ok ingested " + std::to_string(count) + "\n";
        }
        result.batched_requests += line_counts.size();
        result.coalesced_ingest_lines += line_counts.size();
      } else {
        // A refused admission admitted nothing, so the run's lines re-run
        // one at a time: each gets exactly its serial answer, and one line
        // with an out-of-range set id cannot fail its neighbours.
        for (std::size_t m = i; m < j; ++m) {
          bool ignored = false;
          result.responses +=
              handle_fleet_request(fleet, batch[m].line, &ignored, pool, server);
          result.responses += '\n';
        }
      }
      result.served += line_counts.size();
      i = j;
      continue;
    }

    bool shutdown = false;
    result.responses += handle_fleet_request(fleet, line, &shutdown, pool, server);
    result.responses += '\n';
    ++result.served;
    if (shutdown) {
      result.shutdown = true;
      result.close = true;
      break;
    }
    ++i;
  }
  return result;
}

// ---------------------------------------------------------------------------
// Reactor
// ---------------------------------------------------------------------------

struct NetServer::Conn {
  int fd = -1;
  std::uint64_t serial = 0;

  // --- reactor-thread-only state ---
  std::string rdbuf;                      // unparsed bytes (no complete line)
  std::deque<FleetBatchRequest> pending;  // parsed lines awaiting dispatch
  bool dispatching = false;  // one batch in flight (ordering guarantee)
  bool peer_eof = false;
  bool overlong = false;        // unframed line ran past max_line_bytes
  bool dead = false;            // fd closed, erased from conns_
  bool in_window_wait = false;  // queued in window_wait_
  std::uint32_t armed_events = 0;
  std::int64_t last_activity_ms = 0;  // idle-timeout clock
  std::chrono::steady_clock::time_point first_pending;  // batch-window clock

  // --- shared with dispatch tasks (guarded by mutex) ---
  std::mutex mutex;
  std::string outbuf;
  bool closed = false;  // set (with the fd close) under mutex by the reactor
  bool close_after_flush = false;
  bool write_failed = false;
};

void NetServer::TimerWheel::init(std::int64_t tick, std::size_t slots,
                                 std::int64_t now_ms) {
  tick_ms = tick;
  cursor = 0;
  cursor_ms = now_ms;
  buckets.assign(slots, {});
}

void NetServer::TimerWheel::schedule(int fd, std::uint64_t serial,
                                     std::int64_t expiry_ms) {
  const std::int64_t delta = expiry_ms - cursor_ms;
  std::int64_t ticks = delta <= 0 ? 1 : (delta + tick_ms - 1) / tick_ms;
  // Past-horizon entries park in the farthest bucket; firing lazily
  // re-schedules them against the real deadline, so accuracy is kept.
  ticks = std::clamp<std::int64_t>(
      ticks, 1, static_cast<std::int64_t>(buckets.size()) - 1);
  buckets[(cursor + static_cast<std::size_t>(ticks)) % buckets.size()]
      .emplace_back(fd, serial);
}

template <typename Fire>
void NetServer::TimerWheel::advance(std::int64_t now_ms, Fire&& fire) {
  while (cursor_ms + tick_ms <= now_ms) {
    cursor = (cursor + 1) % buckets.size();
    cursor_ms += tick_ms;
    std::vector<std::pair<int, std::uint64_t>> fired;
    fired.swap(buckets[cursor]);
    for (const auto& [fd, serial] : fired) fire(fd, serial);
  }
}

NetServer::NetServer(SketchFleet& fleet, ThreadPool& pool, Options options)
    : fleet_(fleet), pool_(pool), options_(options) {
  if (options_.max_batch_requests == 0) options_.max_batch_requests = 1;
}

NetServer::~NetServer() { stop(); }

bool NetServer::start(std::string* error) {
  COVSTREAM_CHECK(listen_fd_ == -1);
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    if (error != nullptr) *error = std::strerror(errno);
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listen_fd_, options_.backlog) != 0) {
    if (error != nullptr) *error = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  port_ = ntohs(bound.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    if (error != nullptr) *error = std::strerror(errno);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    ::close(listen_fd_);
    epoll_fd_ = wake_fd_ = listen_fd_ = -1;
    return false;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  listen_registered_ = true;
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  if (options_.idle_timeout_ms > 0) {
    // Tick at ~1/8 of the timeout: expiry lands at most one tick late,
    // and a 60 s production timeout wakes the loop only every 500 ms.
    const std::int64_t tick = std::clamp<std::int64_t>(
        static_cast<std::int64_t>(options_.idle_timeout_ms) / 8, 1, 500);
    wheel_.init(tick, 32, steady_ms());
  }
  pending_cap_ = std::max<std::size_t>(options_.max_batch_requests * 4, 64);
  reactor_ = std::thread([this] { reactor_loop(); });
  return true;
}

std::int64_t NetServer::steady_ms() const {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void NetServer::wake_reactor() {
  const std::uint64_t token = 1;
  (void)!::write(wake_fd_, &token, sizeof token);
}

void NetServer::reactor_loop() {
  constexpr int kMaxEvents = 128;
  std::vector<epoll_event> events(kMaxEvents);
  for (;;) {
    if (stopping_.load(std::memory_order_acquire)) {
      if (listen_registered_) {
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
        listen_registered_ = false;
      }
      // Close every connection whose dispatch is not in flight (undelivered
      // pipeline lines are discarded — the old per-connection loop did the
      // same on stop()); the rest close as their completions drain.
      std::vector<std::shared_ptr<Conn>> snapshot;
      snapshot.reserve(conns_.size());
      for (const auto& [fd, conn] : conns_) snapshot.push_back(conn);
      for (const std::shared_ptr<Conn>& conn : snapshot) {
        if (!conn->dispatching) close_conn(conn);
      }
      if (conns_.empty()) return;
    }

    int timeout_ms = stopping_.load(std::memory_order_relaxed) ? 20 : -1;
    if (!window_wait_.empty()) {
      const auto now = std::chrono::steady_clock::now();
      std::int64_t min_left_us = options_.batch_window_us;
      for (const std::shared_ptr<Conn>& conn : window_wait_) {
        if (conn->dead || conn->pending.empty()) continue;
        const std::int64_t waited =
            std::chrono::duration_cast<std::chrono::microseconds>(
                now - conn->first_pending)
                .count();
        min_left_us = std::min<std::int64_t>(
            min_left_us, static_cast<std::int64_t>(options_.batch_window_us) -
                             waited);
      }
      const int left_ms =
          static_cast<int>((std::max<std::int64_t>(min_left_us, 0) + 999) / 1000);
      const int want = std::max(left_ms, 1);
      timeout_ms = timeout_ms < 0 ? want : std::min(timeout_ms, want);
    }
    if (options_.idle_timeout_ms > 0 && !conns_.empty()) {
      const int tick = static_cast<int>(wheel_.tick_ms);
      timeout_ms = timeout_ms < 0 ? tick : std::min(timeout_ms, tick);
    }

    const int n = ::epoll_wait(epoll_fd_, events.data(), kMaxEvents, timeout_ms);
    epoll_wakeups_.fetch_add(1, std::memory_order_relaxed);
    if (n < 0 && errno != EINTR) return;  // epoll fd gone — only on teardown

    for (int i = 0; i < std::max(n, 0); ++i) {
      const int fd = events[i].data.fd;
      const std::uint32_t ev = events[i].events;
      if (fd == wake_fd_) {
        std::uint64_t token;
        while (::read(wake_fd_, &token, sizeof token) > 0) {
        }
        continue;
      }
      if (fd == listen_fd_) {
        if (listen_registered_) on_accept_ready();
        continue;
      }
      const auto it = conns_.find(fd);
      if (it == conns_.end()) continue;  // closed earlier in this event batch
      const std::shared_ptr<Conn> conn = it->second;
      if (ev & (EPOLLIN | EPOLLERR | EPOLLHUP)) on_readable(conn);
      if (!conn->dead && (ev & (EPOLLOUT | EPOLLERR | EPOLLHUP))) {
        on_writable(conn);
      }
    }

    // Dispatch completions: the task's last touch of the connection was
    // pushing it here; the reactor owns it again from this point.
    std::vector<std::shared_ptr<Conn>> done;
    {
      const std::lock_guard<std::mutex> lock(done_mutex_);
      done.swap(done_);
    }
    for (const std::shared_ptr<Conn>& conn : done) on_dispatch_done(conn);

    process_window_wait();

    if (options_.idle_timeout_ms > 0) {
      const std::int64_t now_ms = steady_ms();
      wheel_.advance(now_ms, [this, now_ms](int fd, std::uint64_t serial) {
        const auto it = conns_.find(fd);
        if (it == conns_.end() || it->second->serial != serial) {
          return;  // closed (or the fd was reused): entry is stale, drop it
        }
        const std::shared_ptr<Conn> conn = it->second;
        if (conn->dispatching || !conn->pending.empty()) {
          // Not idle — mid-request. Check again a full timeout later.
          wheel_.schedule(fd, serial, now_ms + options_.idle_timeout_ms);
          return;
        }
        const std::int64_t deadline =
            conn->last_activity_ms +
            static_cast<std::int64_t>(options_.idle_timeout_ms);
        if (deadline > now_ms) {
          wheel_.schedule(fd, serial, deadline);  // activity since scheduling
          return;
        }
        {
          const std::lock_guard<std::mutex> lock(conn->mutex);
          conn->outbuf += "err idle timeout\n";
          try_send_locked(*conn);  // best-effort, like the shed path
        }
        {
          const std::lock_guard<std::mutex> lock(mutex_);
          ++counters_.idle_closed;
        }
        close_conn(conn);
      });
    }
  }
}

void NetServer::on_accept_ready() {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno == EMFILE || errno == ENFILE) {
        // fd exhaustion: the backlog is NOT drained, and a level-triggered
        // listen fd with waiting connections makes every epoll_wait return
        // immediately — the loop would spin hot until an fd frees. Park the
        // listen fd instead; close_conn() re-arms it when one does (pending
        // clients wait in the kernel backlog meanwhile).
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
        listen_registered_ = false;
        return;
      }
      return;  // EAGAIN (backlog drained) or a transient per-connection error
    }
    if (stopping_.load(std::memory_order_relaxed)) {
      ::close(fd);
      continue;
    }
    if (options_.max_connections > 0 &&
        conns_.size() >= options_.max_connections) {
      // Load shedding: past the bound a connection only risks fd
      // exhaustion. Tell the client so — one best-effort nonblocking line,
      // a non-reading client must not stall the reactor — and close.
      static const char kBusy[] = "err busy\n";
      (void)::send(fd, kBusy, sizeof kBusy - 1, MSG_NOSIGNAL | MSG_DONTWAIT);
      ::close(fd);
      const std::lock_guard<std::mutex> lock(mutex_);
      ++counters_.shed_busy;
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    const std::shared_ptr<Conn> conn = std::make_shared<Conn>();
    conn->fd = fd;
    conn->serial = next_serial_++;
    conn->last_activity_ms = steady_ms();
    conn->armed_events = EPOLLIN;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    conns_.emplace(fd, conn);
    if (options_.idle_timeout_ms > 0) {
      wheel_.schedule(fd, conn->serial,
                      conn->last_activity_ms + options_.idle_timeout_ms);
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.connections_accepted;
    ++counters_.open_connections;
  }
}

void NetServer::on_readable(const std::shared_ptr<Conn>& conn) {
  if (conn->dead || conn->peer_eof || conn->overlong) return;
  char block[16384];
  bool saw_eof = false;
  std::size_t got_total = 0;
  for (;;) {
    if (conn->pending.size() >= pending_cap_) break;  // backpressure
    const ssize_t got = ::read(conn->fd, block, sizeof block);
    if (got < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      saw_eof = true;  // reset/broken: same close path as EOF
      break;
    }
    if (got == 0) {
      saw_eof = true;
      break;
    }
    conn->rdbuf.append(block, static_cast<std::size_t>(got));
    got_total += static_cast<std::size_t>(got);
    // Fairness: yield to other connections after 256 KiB; level-triggered
    // epoll re-reports this fd on the next loop if bytes remain.
    if (got_total >= (1u << 18)) break;
  }
  if (got_total > 0) {
    conn->last_activity_ms = steady_ms();
    // One arrival stamp per read event: every request completed by this
    // batch of bytes ages from here for the request deadline.
    const auto arrival = std::chrono::steady_clock::now();
    std::size_t start = 0;
    for (;;) {
      const std::size_t nl = conn->rdbuf.find('\n', start);
      if (nl == std::string::npos) break;
      std::string_view line(conn->rdbuf.data() + start, nl - start);
      while (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      start = nl + 1;
      if (conn->pending.empty()) conn->first_pending = arrival;
      conn->pending.push_back(FleetBatchRequest{std::string(line), arrival});
    }
    conn->rdbuf.erase(0, start);
    if (conn->rdbuf.size() > options_.max_line_bytes) {
      // Unframed garbage: no newline within the line bound. The error is
      // emitted only after earlier pipelined responses flush (settle()), so
      // responses stay in request order.
      conn->overlong = true;
      conn->rdbuf.clear();
    }
  }
  if (saw_eof) {
    conn->peer_eof = true;
    conn->rdbuf.clear();  // partial final line is dropped, never executed
  }
  settle(conn);
}

void NetServer::on_writable(const std::shared_ptr<Conn>& conn) {
  if (conn->dead) return;
  {
    const std::lock_guard<std::mutex> lock(conn->mutex);
    try_send_locked(*conn);
  }
  settle(conn);
}

void NetServer::on_dispatch_done(const std::shared_ptr<Conn>& conn) {
  if (conn->dead) return;  // closed while dispatching (write failure)
  conn->dispatching = false;
  settle(conn);
}

/// Post-event fixpoint for one connection: emit deferred overlong/EOF
/// outcomes once the pipeline drains, close when flushed, start the next
/// dispatch, and re-arm epoll to match what the connection now needs.
void NetServer::settle(const std::shared_ptr<Conn>& conn) {
  if (conn->dead) return;
  bool closing;
  {
    const std::lock_guard<std::mutex> lock(conn->mutex);
    closing = conn->close_after_flush || conn->write_failed;
  }
  if (closing) {
    // quit/shutdown mid-pipeline: the rest of the buffer is discarded.
    conn->pending.clear();
  } else if (!conn->dispatching && conn->pending.empty()) {
    if (conn->overlong) {
      const std::lock_guard<std::mutex> lock(conn->mutex);
      conn->outbuf += "err request line too long\n";
      conn->close_after_flush = true;
      try_send_locked(*conn);
      closing = true;
    } else if (conn->peer_eof) {
      const std::lock_guard<std::mutex> lock(conn->mutex);
      conn->close_after_flush = true;
      closing = true;
    }
  }
  bool close_now = false;
  {
    const std::lock_guard<std::mutex> lock(conn->mutex);
    if (conn->write_failed) {
      close_now = true;
    } else if (conn->close_after_flush && conn->outbuf.empty() &&
               !conn->dispatching) {
      close_now = true;
    }
  }
  if (close_now) {
    close_conn(conn);
    return;
  }
  if (!closing) maybe_dispatch(conn);
  update_epoll(*conn);
}

void NetServer::maybe_dispatch(const std::shared_ptr<Conn>& conn) {
  if (conn->dead || conn->dispatching || conn->pending.empty()) return;
  if (stopping_.load(std::memory_order_relaxed)) return;
  const bool ready =
      options_.batch_window_us == 0 || conn->peer_eof ||
      conn->pending.size() >= options_.max_batch_requests ||
      std::chrono::steady_clock::now() - conn->first_pending >=
          std::chrono::microseconds(options_.batch_window_us);
  if (!ready) {
    if (!conn->in_window_wait) {
      conn->in_window_wait = true;
      window_wait_.push_back(conn);
    }
    return;
  }
  submit_batch(conn);
}

void NetServer::process_window_wait() {
  if (window_wait_.empty()) return;
  std::vector<std::shared_ptr<Conn>> waiting;
  waiting.swap(window_wait_);
  for (const std::shared_ptr<Conn>& conn : waiting) {
    conn->in_window_wait = false;
    if (conn->dead || conn->dispatching || conn->pending.empty()) continue;
    maybe_dispatch(conn);  // re-queues itself if the window is still open
  }
}

void NetServer::submit_batch(const std::shared_ptr<Conn>& conn) {
  const std::size_t n =
      std::min(conn->pending.size(), options_.max_batch_requests);
  // shared_ptr because ThreadPool tasks are std::function (copyable).
  const auto batch = std::make_shared<std::vector<FleetBatchRequest>>();
  batch->reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    batch->push_back(std::move(conn->pending.front()));
    conn->pending.pop_front();
  }
  if (!conn->pending.empty()) {
    conn->first_pending = conn->pending.front().arrival;
  }
  conn->dispatching = true;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++inflight_tasks_;
  }
  pool_.submit([this, conn, batch] { run_dispatch(conn, *batch); });
}

void NetServer::run_dispatch(const std::shared_ptr<Conn>& conn,
                             const std::vector<FleetBatchRequest>& batch) {
  const FleetBatchResult result = execute_fleet_batch(
      fleet_, batch, options_.request_deadline_ms, &pool_, this);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    counters_.requests_served += result.served;
    counters_.deadline_rejected += result.deadline_rejected;
    counters_.batched_requests += result.batched_requests;
    counters_.coalesced_ingest_lines += result.coalesced_ingest_lines;
  }
  {
    const std::lock_guard<std::mutex> lock(conn->mutex);
    conn->outbuf += result.responses;
    if (result.close) conn->close_after_flush = true;
    try_send_locked(*conn);
  }
  if (result.shutdown) {
    // Only AFTER the `ok bye` bytes are pushed toward the socket: the woken
    // wait_shutdown() caller typically calls stop(), whose teardown of every
    // open fd would otherwise race the response send and eat it.
    const std::lock_guard<std::mutex> lock(mutex_);
    shutdown_requested_ = true;
    cv_.notify_all();
  }
  {
    const std::lock_guard<std::mutex> lock(done_mutex_);
    done_.push_back(conn);
  }
  wake_reactor();
  // Last touch of the server: stop() may return (and the process tear the
  // server down) as soon as this count hits zero.
  const std::lock_guard<std::mutex> lock(mutex_);
  --inflight_tasks_;
  cv_.notify_all();
}

bool NetServer::try_send_locked(Conn& conn) {
  if (conn.closed) {
    conn.outbuf.clear();
    return true;
  }
  while (!conn.outbuf.empty()) {
    const ssize_t wrote = ::send(conn.fd, conn.outbuf.data(), conn.outbuf.size(),
                                 MSG_NOSIGNAL | MSG_DONTWAIT);
    if (wrote > 0) {
      conn.outbuf.erase(0, static_cast<std::size_t>(wrote));
      continue;
    }
    if (wrote < 0 && errno == EINTR) continue;
    if (wrote < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;  // kernel buffer full: the reactor arms EPOLLOUT
    }
    conn.write_failed = true;
    conn.outbuf.clear();
    return false;
  }
  return true;
}

void NetServer::update_epoll(Conn& conn) {
  if (conn.dead) return;
  bool outbuf_nonempty;
  bool closing;
  {
    const std::lock_guard<std::mutex> lock(conn.mutex);
    outbuf_nonempty = !conn.outbuf.empty();
    closing = conn.close_after_flush || conn.write_failed;
  }
  std::uint32_t want = 0;
  const bool paused = conn.pending.size() >= pending_cap_;
  if (!conn.peer_eof && !conn.overlong && !closing && !paused) want |= EPOLLIN;
  if (outbuf_nonempty) want |= EPOLLOUT;
  if (want == conn.armed_events) return;
  // Fully deregister at want == 0 (e.g. EOF seen, dispatch still in flight):
  // EPOLLHUP is delivered regardless of the requested mask, and a
  // level-triggered hangup on a registered fd would spin the loop.
  if (want == 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
  } else {
    epoll_event ev{};
    ev.events = want;
    ev.data.fd = conn.fd;
    ::epoll_ctl(epoll_fd_,
                conn.armed_events == 0 ? EPOLL_CTL_ADD : EPOLL_CTL_MOD, conn.fd,
                &ev);
  }
  conn.armed_events = want;
}

void NetServer::close_conn(const std::shared_ptr<Conn>& conn) {
  if (conn->dead) return;
  conn->dead = true;
  if (conn->armed_events != 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
    conn->armed_events = 0;
  }
  {
    // Under the conn mutex so no dispatch task is mid-send on the fd when it
    // closes (and the fd number can be reused by a new accept).
    const std::lock_guard<std::mutex> lock(conn->mutex);
    conn->closed = true;
    ::close(conn->fd);
  }
  conns_.erase(conn->fd);
  conn->pending.clear();
  if (!listen_registered_ && !stopping_.load(std::memory_order_relaxed)) {
    // Accepting was parked on EMFILE/ENFILE; this close freed an fd, so
    // re-arm the listen fd and let the kernel backlog drain.
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = listen_fd_;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) == 0) {
      listen_registered_ = true;
    }
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  --counters_.open_connections;
}

void NetServer::wait_shutdown() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [this] { return shutdown_requested_; });
}

void NetServer::request_shutdown() {
  const std::lock_guard<std::mutex> lock(mutex_);
  shutdown_requested_ = true;
  cv_.notify_all();
}

void NetServer::stop() {
  if (stopping_.exchange(true)) {
    // Second caller (e.g. the destructor after an explicit stop()): the
    // first stop already drained everything.
    if (reactor_.joinable()) reactor_.join();
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return inflight_tasks_ == 0; });
    return;
  }
  if (reactor_.joinable()) {
    wake_reactor();
    reactor_.join();
  }
  {
    // The reactor exited only after every connection closed, but a closed
    // connection's final dispatch can still be running — wait it out so the
    // fds below (which its completion path writes to) stay valid until the
    // last task is gone, and so callers keep the old "stop() waited for the
    // pool tasks" contract.
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return inflight_tasks_ == 0; });
    shutdown_requested_ = true;
    cv_.notify_all();
  }
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
  if (wake_fd_ >= 0) {
    ::close(wake_fd_);
    wake_fd_ = -1;
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

NetServer::Counters NetServer::counters() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Counters counters = counters_;
  counters.epoll_wakeups = epoll_wakeups_.load(std::memory_order_relaxed);
  return counters;
}

}  // namespace covstream
