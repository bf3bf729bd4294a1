// wire_ingest: open- and closed-loop load against a running
// `covstream_cli --cmd=serve --port=N`, with every answer checked against
// in-process reference sketches fed the same acknowledged edges.
//
// One process, one thread per connection (at most four). In an open-loop
// phase each connection sends on a fixed schedule whatever the server
// does, so a stall shows as latency of the requests due behind it: latency
// runs from a request's scheduled send time to the arrival of its
// response. How late the generator itself ran is reported as lag; a phase
// whose lag exceeds the workload's limit measured the generator, not the
// server, and is void. In a closed-loop phase a connection sends its next
// request when the previous answer arrives.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <deque>
#include <memory>
#include <thread>
#include <unordered_map>

#include "core/streaming_kcover.hpp"
#include "core/subsample_sketch.hpp"
#include "tool.hpp"

namespace perfbench {

IngestWorkload ingest_workload(const std::string& scale) {
  const bool tiny = scale == "tiny";
  if (!tiny && scale != "full") die("--scale must be full or tiny");
  // Default-budget tenants (create t 1000 20), saturated in setup: every
  // 64-edge line pays admission plus a whole-sketch publish copy. The
  // reference rate keeps the two pool threads about 15% busy, so its
  // latencies are mostly service time; queueing would amplify every slow
  // spell of a shared host.
  IngestWorkload w;
  w.tenants = 4;
  w.n = tiny ? 100 : 1000;
  w.k = tiny ? 5 : 20;
  // make_zipf's model at a tenth of file_kcover's set sizes and universe:
  // about 0.7M distinct pairs per tenant, 0.3M of them ingested in setup.
  w.shape = tiny ? ZipfShape{w.n, 50'000, 150, 1500, 0.8, 1.1}
                 : ZipfShape{w.n, 300'000, 600, 6000, 0.8, 1.1};
  w.warmup_edges = tiny ? 12'000 : 300'000;
  w.warmup_line_edges = 2048;
  w.family_sets = w.k;
  w.reference_rate = tiny ? 200 : 400;
  w.ladder_start = tiny ? 200 : 1600;
  w.ladder_cap = tiny ? 400 : 51200;
  w.p99_limit_ms = 50;
  w.lag_limit_ms = 25;
  w.replay_reps = tiny ? 40 : 200;
  return w;
}

std::string tenant_name(std::size_t tenant) {
  std::string name = "t";  // not "t" + ...: gcc 12 flags that with -Wrestrict
  name += std::to_string(tenant);
  return name;
}

EdgeCycle tenant_source(const IngestWorkload& w, std::uint64_t tenant_seed) {
  return EdgeCycle(w.shape, mix64(tenant_seed ^ 0xed9e5ULL));
}

std::uint64_t tenant_seed(std::uint64_t run_seed, std::size_t tenant) {
  // Wire seeds are parsed as u64 decimal; keep them below 2^53 so every
  // client library round-trips them exactly.
  return mix64(run_seed * 0x100000001b3ULL + tenant) >> 11;
}

covstream::SketchParams tenant_params(const IngestWorkload& w,
                                      std::uint64_t seed) {
  covstream::StreamingOptions options;
  options.eps = w.eps;
  options.seed = seed;
  return options.sketch_params(w.n, w.k);
}

std::string create_line(const IngestWorkload& w, std::size_t tenant,
                        std::uint64_t seed) {
  char eps[32];
  std::snprintf(eps, sizeof eps, "%g", w.eps);
  return "create " + tenant_name(tenant) + " " + std::to_string(w.n) + " " +
         std::to_string(w.k) + " " + eps + " " + std::to_string(seed);
}

std::string ingest_line(const std::string& tenant, const std::vector<Edge>& edges) {
  // to_chars, not snprintf: at the top ladder rungs the generator formats
  // over a million edges a second on the cores the server runs on.
  std::string line = "ingest " + tenant;
  line.reserve(line.size() + edges.size() * 24);
  char buffer[24];  // a u64 is at most 20 digits
  for (const Edge& edge : edges) {
    line += ' ';
    line.append(buffer, std::to_chars(buffer, buffer + sizeof buffer, edge.set).ptr);
    line += ' ';
    line.append(buffer, std::to_chars(buffer, buffer + sizeof buffer, edge.elem).ptr);
  }
  return line;
}

std::string family_text(const std::vector<SetId>& family) {
  std::string text;
  for (const SetId s : family) {
    if (!text.empty()) text += ',';
    text += std::to_string(s);
  }
  return text;
}

std::string format_value(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.1f", value);
  return buffer;
}

namespace {

// kPing probes the network/reactor path alone (trace mode only): `ping`
// crosses the socket, the reactor and a pool thread but no fleet layer.
enum Kind { kIngest = 0, kEstimate = 1, kPing = 2, kStats = 3, kKinds = 4 };
const char* const kKindNames[kKinds] = {"ingest", "estimate", "ping", "stats"};
const char* const kClientSpan[kKinds] = {"client.ingest", "client.estimate",
                                         "client.ping", "client.stats"};
constexpr std::uint64_t kPingEvery = 16;


// ------------------------------------------------------------- the socket --
class Conn {
 public:
  explicit Conn(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) die("socket: " + std::string(std::strerror(errno)));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      die("connect to port " + std::to_string(port) + ": " + std::strerror(errno));
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
  }
  ~Conn() { ::close(fd_); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  void queue(const std::string& line) {
    out_ += line;
    out_ += '\n';
  }
  bool want_write() const { return sent_ < out_.size(); }

  /// Sends what the socket takes without blocking; false if the peer is gone.
  bool flush() {
    while (sent_ < out_.size()) {
      const ssize_t n = ::send(fd_, out_.data() + sent_, out_.size() - sent_,
                               MSG_NOSIGNAL);
      if (n > 0) {
        sent_ += static_cast<std::size_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        return false;
      }
    }
    if (sent_ == out_.size()) {
      out_.clear();
      sent_ = 0;
    }
    return true;
  }

  /// Waits up to `timeout_ns` for the socket, then hands every complete
  /// response line to `on_line`. False if the peer closed or failed.
  template <typename OnLine>
  bool pump(std::int64_t timeout_ns, OnLine&& on_line) {
    pollfd pfd{fd_, static_cast<short>(POLLIN | (want_write() ? POLLOUT : 0)), 0};
    timespec ts{static_cast<time_t>(timeout_ns / 1'000'000'000),
                static_cast<long>(timeout_ns % 1'000'000'000)};
    if (::ppoll(&pfd, 1, &ts, nullptr) < 0 && errno != EINTR) return false;
    if (!flush()) return false;
    char buffer[1 << 16];
    for (;;) {
      const ssize_t n = ::recv(fd_, buffer, sizeof buffer, 0);
      if (n > 0) {
        in_.append(buffer, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) return false;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno != EINTR) return false;
    }
    std::size_t start = 0;
    for (std::size_t nl; (nl = in_.find('\n', start)) != std::string::npos;
         start = nl + 1) {
      on_line(std::string_view(in_).substr(start, nl - start));
    }
    in_.erase(0, start);
    return true;
  }

  /// Closed-loop helper for setup: sends `lines` keeping at most `window`
  /// in flight; returns the responses in order.
  std::vector<std::string> exchange(const std::vector<std::string>& lines,
                                    std::size_t window) {
    std::vector<std::string> responses;
    std::size_t next = 0;
    while (responses.size() < lines.size()) {
      while (next < lines.size() && next - responses.size() < window) {
        queue(lines[next++]);
      }
      if (!pump(50'000'000, [&](std::string_view line) {
            responses.emplace_back(line);
          })) {
        die("server closed the connection during setup");
      }
    }
    return responses;
  }

 private:
  int fd_ = -1;
  std::string out_;
  std::size_t sent_ = 0;
  std::string in_;
};

// ------------------------------------------------------------- bookkeeping --
struct Failures {
  std::mutex mutex;
  std::uint64_t count = 0;
  std::vector<std::string> first;
  void add(const std::string& what, std::uint64_t how_many = 1) {
    const std::lock_guard<std::mutex> lock(mutex);
    count += how_many;
    if (first.size() < 5) first.push_back(what);
  }
};

/// `stats` wire line -> key/value map of its numeric fields.
std::map<std::string, double> parse_stats(std::string_view line) {
  std::map<std::string, double> out;
  std::size_t pos = 0;
  while (pos < line.size()) {
    const std::size_t end = std::min(line.find(' ', pos), line.size());
    const std::string_view token = line.substr(pos, end - pos);
    const std::size_t eq = token.find('=');
    if (eq != std::string_view::npos) {
      out[std::string(token.substr(0, eq))] =
          std::strtod(std::string(token.substr(eq + 1)).c_str(), nullptr);
    }
    pos = end + 1;
  }
  return out;
}

/// Estimate quality: mean relative error of the sketch's estimates against
/// the exact coverage of the same acknowledged edges, over every
/// kAccuracyEvery-th checked estimate of each tenant (the mean is steady
/// long before every estimate is counted).
constexpr std::uint64_t kAccuracyEvery = 4;

struct Accuracy {
  std::mutex mutex;
  double rel_err_sum = 0.0;
  std::uint64_t count = 0;
  void add(double estimate, std::size_t exact) {
    if (exact == 0) return;
    const double rel = std::abs(estimate - static_cast<double>(exact)) /
                       static_cast<double>(exact);
    const std::lock_guard<std::mutex> lock(mutex);
    rel_err_sum += rel;
    ++count;
  }
};

/// Exact set -> elements membership of one tenant's acknowledged edges.
/// Elements get dense ids on arrival, so a family's coverage is one stamped
/// pass over its members rather than a sort.
class ExactCover {
 public:
  explicit ExactCover(SetId n) : members_(n) {}
  void add(const std::vector<Edge>& edges) {
    for (const Edge& e : edges) {
      const auto [it, fresh] = ids_.try_emplace(e.elem, static_cast<std::uint32_t>(ids_.size()));
      if (fresh) stamp_.push_back(0);
      members_[e.set].push_back(it->second);
    }
  }
  std::size_t coverage(const std::vector<SetId>& family) {
    ++generation_;
    std::size_t covered = 0;
    for (const SetId s : family) {
      for (const std::uint32_t id : members_[s]) {
        if (stamp_[id] != generation_) {
          stamp_[id] = generation_;
          ++covered;
        }
      }
    }
    return covered;
  }

 private:
  std::vector<std::vector<std::uint32_t>> members_;
  std::unordered_map<ElemId, std::uint32_t> ids_;
  std::vector<std::uint32_t> stamp_;
  std::uint32_t generation_ = 0;
};

struct Pending {
  Kind kind;
  std::int64_t scheduled_ns;
};

struct PhaseSpec {
  std::string name;
  double rate = 0.0;  // requests/s over all load connections
  double seconds = 0.0;
  bool spans = false;  // record client spans (traced live phase)
  double stats_every_s = 0.0;  // sample `stats` on connection 0 (0 = never)
  /// Closed loop on the first `closed_conns` connections: each sends its
  /// next request when the previous answer arrives (`rate` unused). 0 runs
  /// the open loop at `rate` on every connection.
  std::size_t closed_conns = 0;
};

struct PhaseResult {
  std::vector<double> latency_ms[kKinds];
  std::vector<double> lag_ms;
  std::uint64_t sent = 0;
  std::uint64_t answered = 0;
  std::uint64_t backlog_end = 0;  // unanswered when the schedule ended
  std::int64_t first_due = 0;
  std::int64_t last_answer = 0;
  std::vector<double> pool_pending;
  std::map<std::string, double> stats_delta;  // fleet `stats` after - before
  std::vector<Span> spans;  // client round trips, when the phase keeps spans

  /// Folds another connection's (or another round's) share into this one.
  void absorb(const PhaseResult& r) {
    for (int k = 0; k < kKinds; ++k) {
      latency_ms[k].insert(latency_ms[k].end(), r.latency_ms[k].begin(),
                           r.latency_ms[k].end());
    }
    lag_ms.insert(lag_ms.end(), r.lag_ms.begin(), r.lag_ms.end());
    pool_pending.insert(pool_pending.end(), r.pool_pending.begin(), r.pool_pending.end());
    spans.insert(spans.end(), r.spans.begin(), r.spans.end());
    sent += r.sent;
    answered += r.answered;
    backlog_end += r.backlog_end;
    if (r.first_due != 0) {
      first_due = first_due == 0 ? r.first_due : std::min(first_due, r.first_due);
    }
    last_answer = std::max(last_answer, r.last_answer);
    for (const auto& [key, value] : r.stats_delta) stats_delta[key] += value;
  }
};

bool expect_prefix(std::string_view line, std::string_view prefix) {
  return line.substr(0, prefix.size()) == prefix;
}

// ----------------------------------------------------------- wire_ingest --
/// One tenant's line sequence: 64-edge ingest lines with a read-your-writes
/// estimate as every estimate_every-th line. Deterministic from the seed, so
/// the checker regenerates it instead of storing the edges.
class IngestSequence {
 public:
  IngestSequence(const IngestWorkload& w, std::size_t tenant, std::uint64_t run_seed)
      : w_(w),
        name_(tenant_name(tenant)),
        seed_(tenant_seed(run_seed, tenant)),
        source_(tenant_source(w, seed_)),
        family_rng_(mix64(seed_ ^ 0xfa111e5ULL)) {}

  std::uint64_t seed() const { return seed_; }
  const std::string& name() const { return name_; }
  EdgeCycle& source() { return source_; }

  /// Next measured request: kIngest with *edges filled, or kEstimate with
  /// *family filled.
  Kind step(std::vector<Edge>* edges, std::vector<SetId>* family) {
    const bool estimate = ++count_ % w_.estimate_every == 0;
    if (estimate) {
      *family = random_family(family_rng_, w_.n, w_.family_sets);
      return kEstimate;
    }
    source_.fill(*edges, w_.line_edges);
    return kIngest;
  }

 private:
  const IngestWorkload& w_;
  std::string name_;
  std::uint64_t seed_;
  EdgeCycle source_;
  SeededRng family_rng_;
  std::uint64_t count_ = 0;
};

/// One connection's requests (one tenant's sequence, plus a `ping` as every
/// kPingEvery-th request when `pings`) and their answers.
class IngestWork {
 public:
  IngestWork(const IngestWorkload& w, std::size_t tenant, std::uint64_t seed,
             bool pings, Failures& failures)
      : seq_(w, tenant, seed),
        pings_(pings),
        failures_(failures),
        ingest_ack_("ok ingested " + std::to_string(w.line_edges)) {
    std::vector<Edge> skip;
    seq_.source().fill(skip, w.warmup_edges);  // setup consumed these
  }
  /// Builds the next request's line; returns its kind.
  Kind next(std::string* line) {
    if (pings_ && ++sent_ % kPingEvery == kPingEvery / 2) {
      *line = "ping";
      return kPing;
    }
    const Kind kind = seq_.step(&edges_, &family_);
    ++requests_;
    *line = kind == kIngest
                ? ingest_line(seq_.name(), edges_)
                : "estimate " + seq_.name() + " " + family_text(family_);
    return kind;
  }
  /// Takes the answer to a request this connection sent.
  void answer(Kind kind, std::string_view line) {
    if (kind == kEstimate) {
      estimates_.emplace_back(line);
    } else if (line != (kind == kPing ? std::string_view("ok pong") : ingest_ack_)) {
      failures_.add(seq_.name() + ": " + kKindNames[kind] + " answered '" +
                    std::string(line) + "'");
    }
  }
  /// Steps of the tenant's sequence sent (pings excluded).
  std::uint64_t requests() const { return requests_; }
  std::vector<std::string>& estimates() { return estimates_; }

 private:
  IngestSequence seq_;
  bool pings_;
  Failures& failures_;
  std::string ingest_ack_;
  std::vector<Edge> edges_;
  std::vector<SetId> family_;
  std::uint64_t sent_ = 0;
  std::uint64_t requests_ = 0;
  std::vector<std::string> estimates_;
};

/// Replays one tenant's sequence into a reference sketch and compares every
/// estimate answer. Returns the number of estimates checked.
std::uint64_t check_ingest_tenant(const IngestWorkload& w, std::size_t tenant,
                                  std::uint64_t seed, std::uint64_t requests,
                                  const std::vector<std::string>& answers,
                                  Failures& failures, Accuracy& accuracy) {
  IngestSequence seq(w, tenant, seed);
  covstream::SubsampleSketch ref(tenant_params(w, seq.seed()));
  ExactCover exact(w.n);
  std::vector<Edge> edges;
  for (std::size_t done = 0; done < w.warmup_edges; done += w.warmup_line_edges) {
    seq.source().fill(edges, std::min(w.warmup_line_edges, w.warmup_edges - done));
    ref.update_chunk(edges);
    exact.add(edges);
  }
  std::vector<SetId> family;
  std::size_t next_answer = 0;
  for (std::uint64_t r = 0; r < requests; ++r) {
    if (seq.step(&edges, &family) == kIngest) {
      ref.update_chunk(edges);
      exact.add(edges);
      continue;
    }
    if (next_answer >= answers.size()) break;  // unanswered: counted already
    const double value = ref.estimate_coverage(family);
    if (next_answer % kAccuracyEvery == 0) accuracy.add(value, exact.coverage(family));
    const std::string expected = "ok estimate " + format_value(value);
    if (answers[next_answer] != expected) {
      failures.add(seq.name() + ": estimate #" + std::to_string(next_answer) +
                   " answered '" + answers[next_answer] + "', reference '" +
                   expected + "'");
    }
    ++next_answer;
  }
  return next_answer;
}

// ---------------------------------------------------- the load generator --
struct Loadgen {
  explicit Loadgen(const IngestWorkload& workload) : w(workload) {}

  const IngestWorkload& w;
  std::vector<std::unique_ptr<Conn>> conns;
  std::vector<std::unique_ptr<IngestWork>> works;
  Failures failures;
  std::atomic<bool> broken{false};

  /// Runs one phase on connection `c` (called on that connection's thread).
  void run_phase(std::size_t c, const PhaseSpec& spec, std::int64_t start_ns,
                 PhaseResult& out) {
    const bool closed_loop = spec.closed_conns > 0;
    if (closed_loop && c >= spec.closed_conns) return;
    Conn& conn = *conns[c];
    IngestWork& work = *works[c];
    const double rate = spec.rate / static_cast<double>(conns.size());
    const std::int64_t interval =
        static_cast<std::int64_t>(1e9 / std::max(rate, 1e-3));
    const std::int64_t end_ns = start_ns + static_cast<std::int64_t>(spec.seconds * 1e9);
    // Stagger connections inside one interval so they do not fire in step.
    std::int64_t next_due = start_ns + interval * static_cast<std::int64_t>(c) /
                                           static_cast<std::int64_t>(conns.size());
    const std::int64_t stats_interval =
        c == 0 && spec.stats_every_s > 0
            ? static_cast<std::int64_t>(spec.stats_every_s * 1e9) : 0;
    std::int64_t next_stats = stats_interval > 0 ? start_ns + stats_interval : 0;
    std::deque<Pending> pending;
    out.first_due = next_due;
    bool schedule_done = false;
    std::string line;
    const std::int64_t drain_deadline = end_ns + 15'000'000'000LL;
    while (!broken.load(std::memory_order_relaxed)) {
      std::int64_t now = now_ns();
      if (closed_loop && pending.empty()) next_due = std::min(now, end_ns);
      while (!schedule_done && next_due <= now && !(closed_loop && !pending.empty())) {
        if (next_due >= end_ns) {
          schedule_done = true;
          out.backlog_end = pending.size();
          break;
        }
        const Kind kind = work.next(&line);
        conn.queue(line);
        pending.push_back({kind, next_due});
        out.lag_ms.push_back(static_cast<double>(now - next_due) * 1e-6);
        ++out.sent;
        next_due += interval;
      }
      if (stats_interval > 0 && !schedule_done && next_stats <= now) {
        conn.queue("stats");
        pending.push_back({kStats, now});
        next_stats += stats_interval;
      }
      if (schedule_done && pending.empty()) break;
      if (now > drain_deadline) {
        failures.add("connection " + std::to_string(c) + ": " +
                         std::to_string(pending.size()) + " requests timed out",
                     pending.size());
        broken = true;
        break;
      }
      const std::int64_t wait =
          schedule_done ? 2'000'000 : std::max<std::int64_t>(0, next_due - now);
      const bool alive = conn.pump(std::min<std::int64_t>(wait, 2'000'000),
                                   [&](std::string_view response) {
        if (pending.empty()) {
          failures.add("unsolicited response '" + std::string(response) + "'");
          return;
        }
        const Pending p = pending.front();
        pending.pop_front();
        const std::int64_t at = now_ns();
        if (p.kind == kStats) {
          const auto stats = parse_stats(response);
          const auto it = stats.find("pool_pending");
          if (it != stats.end()) out.pool_pending.push_back(it->second);
          return;
        }
        if (!expect_prefix(response, "ok ")) {
          failures.add(std::string(kKindNames[p.kind]) + " answered '" +
                       std::string(response) + "'");
        }
        out.latency_ms[p.kind].push_back(static_cast<double>(at - p.scheduled_ns) * 1e-6);
        out.last_answer = at;
        ++out.answered;
        if (spec.spans) {
          out.spans.push_back({0, 0, 0, kClientSpan[p.kind], p.scheduled_ns, at});
        }
        work.answer(p.kind, response);
      });
      if (!alive) {
        failures.add("connection " + std::to_string(c) + " lost");
        broken = true;
        break;
      }
    }
  }

  std::map<std::string, double> stats_now() {
    const std::vector<std::string> r = conns[0]->exchange({"stats"}, 1);
    if (!expect_prefix(r[0], "ok stats")) die("stats answered '" + r[0] + "'");
    return parse_stats(r[0]);
  }

  /// Runs one phase on every connection, each on its own thread, all
  /// starting at one instant; `stats` is read before and after.
  PhaseResult run(const PhaseSpec& spec) {
    const std::map<std::string, double> before = stats_now();
    const std::int64_t start = now_ns() + 5'000'000;
    std::vector<PhaseResult> per_conn(conns.size());
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < conns.size(); ++c) {
      threads.emplace_back([&, c] { run_phase(c, spec, start, per_conn[c]); });
    }
    for (std::thread& t : threads) t.join();
    PhaseResult merged;
    for (const PhaseResult& r : per_conn) merged.absorb(r);
    if (!broken) {
      for (const auto& [key, value] : stats_now()) {
        const auto it = before.find(key);
        merged.stats_delta[key] = value - (it == before.end() ? 0.0 : it->second);
      }
    }
    return merged;
  }
};

std::vector<double> all_latencies(const PhaseResult& r) {
  std::vector<double> all;
  for (int k = 0; k < kStats; ++k) {
    all.insert(all.end(), r.latency_ms[k].begin(), r.latency_ms[k].end());
  }
  return all;
}

/// A phase meets the workload's limit when the p99 over all its requests is
/// within the latency limit, the generator kept to its schedule, and no more
/// than one limit's worth of requests was still queued when the schedule
/// ended (a growing backlog).
bool phase_passes(const IngestWorkload& w, const PhaseSpec& spec,
                  const PhaseResult& r) {
  const double backlog_allowed = 8.0 + spec.rate * w.p99_limit_ms * 1e-3;
  return r.answered == r.sent && quantile(all_latencies(r), 0.99) <= w.p99_limit_ms &&
         quantile(r.lag_ms, 0.99) <= w.lag_limit_ms &&
         static_cast<double>(r.backlog_end) <= backlog_allowed;
}

std::string phase_json(const PhaseSpec& spec, const PhaseResult& r, bool pass) {
  JsonOut out;
  out.str("name", spec.name).num("rate", spec.rate).num("seconds", spec.seconds);
  out.num("pass", pass ? 1.0 : 0.0);
  out.num("sent", static_cast<double>(r.sent))
      .num("answered", static_cast<double>(r.answered))
      .num("backlog_end", static_cast<double>(r.backlog_end))
      .num("lag_p50_ms", quantile(r.lag_ms, 0.5))
      .num("lag_p99_ms", quantile(r.lag_ms, 0.99));
  const double span_s = static_cast<double>(r.last_answer - r.first_due) * 1e-9;
  out.num("achieved_rps", span_s > 0 ? static_cast<double>(r.answered) / span_s : 0.0);
  for (int k = 0; k < kStats; ++k) {
    if (r.latency_ms[k].empty()) continue;
    out.raw(kKindNames[k],
            JsonOut()
                .num("n", static_cast<double>(r.latency_ms[k].size()))
                .num("p50_ms", quantile(r.latency_ms[k], 0.5))
                .num("p75_ms", quantile(r.latency_ms[k], 0.75))
                .num("p90_ms", quantile(r.latency_ms[k], 0.90))
                .num("p95_ms", quantile(r.latency_ms[k], 0.95))
                .num("p99_ms", quantile(r.latency_ms[k], 0.99))
                .done());
  }
  out.num("all_p50_ms", quantile(all_latencies(r), 0.5));
  out.num("all_p99_ms", quantile(all_latencies(r), 0.99));
  double pending_sum = 0.0;
  for (const double v : r.pool_pending) pending_sum += v;
  out.num("pool_pending_mean",
          r.pool_pending.empty() ? 0.0 : pending_sum / static_cast<double>(r.pool_pending.size()));
  JsonOut delta;
  for (const auto& [key, value] : r.stats_delta) delta.num(key, value);
  out.raw("stats_delta", delta.done());
  return out.done();
}

/// Creates every tenant and grows it with the warm-up edges (closed loop,
/// spread over the connections). Dies on any non-ok answer.
void setup_fleet(const IngestWorkload& w, std::uint64_t seed,
                 std::vector<std::unique_ptr<Conn>>& conns) {
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < conns.size(); ++c) {
    threads.emplace_back([&, c] {
      for (std::size_t t = c; t < w.tenants; t += conns.size()) {
        const std::uint64_t tseed = tenant_seed(seed, t);
        std::vector<std::string> lines{create_line(w, t, tseed)};
        EdgeCycle source = tenant_source(w, tseed);
        std::vector<Edge> edges;
        for (std::size_t done = 0; done < w.warmup_edges; done += w.warmup_line_edges) {
          source.fill(edges, std::min(w.warmup_line_edges, w.warmup_edges - done));
          lines.push_back(ingest_line(tenant_name(t), edges));
        }
        const std::vector<std::string> answers = conns[c]->exchange(lines, 4);
        for (std::size_t i = 0; i < answers.size(); ++i) {
          if (!expect_prefix(answers[i], "ok ")) {
            die("setup line " + std::to_string(i) + " for " + tenant_name(t) +
                " answered '" + answers[i] + "'");
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

}  // namespace

int cmd_wire(Flags& flags) {
  const IngestWorkload w = ingest_workload(flags.str("scale"));
  const std::string mode = flags.str("mode");
  const std::uint64_t seed = flags.u64("seed");
  const std::uint16_t port = static_cast<std::uint16_t>(flags.u64("port"));
  if (mode != "setup" && mode != "run" && mode != "trace") die("unknown --mode " + mode);
  // --mode=setup only creates and warms the tenants.
  const bool measure = mode != "setup";
  const double seconds = measure ? flags.f64("seconds") : 0.0;
  const bool corrupt = measure && flags.u64("corrupt") != 0;
  const std::string spans_path = measure ? flags.str("spans") : "";
  flags.finish();

  Loadgen gen(w);
  for (int c = 0; c < 4; ++c) gen.conns.push_back(std::make_unique<Conn>(port));
  const std::int64_t setup_start = now_ns();
  setup_fleet(w, seed, gen.conns);
  const double setup_s = static_cast<double>(now_ns() - setup_start) * 1e-9;
  if (!measure) {
    std::printf("%s\n", JsonOut().num("setup_s", setup_s).done().c_str());
    return 0;
  }

  for (std::size_t t = 0; t < w.tenants; ++t) {
    gen.works.push_back(
        std::make_unique<IngestWork>(w, t, seed, mode == "trace", gen.failures));
  }

  // Run mode: kRounds rounds, each an open-loop slice at the reference rate
  // (the latency metrics), a closed-loop slice on one connection (the
  // single-stream baseline) and one on all four (concurrent throughput).
  // run.py takes the median over the rounds' slices, so a slow spell of the
  // shared host that spans a few slices does not set a figure. The
  // offered-rate ladder runs last, so its overload rungs cannot disturb the
  // slices: it doubles from its first rate until a rung misses the limit,
  // then makes kBisections geometric bisections between the highest passing
  // and lowest failing rate.
  constexpr int kRounds = 8;
  constexpr int kBisections = 3;
  const double round_s = 0.70 * seconds / kRounds;
  const PhaseSpec reference{"reference", w.reference_rate, 0.55 * round_s, false, 0.0, 0};
  const PhaseSpec serial{"serial", 0.0, 0.15 * round_s, false, 0.0, 1};
  const PhaseSpec concurrent{"concurrent", 0.0, 0.30 * round_s, false, 0.0, gen.conns.size()};
  const double rung_s = 0.30 * seconds / 8;
  // Trace mode: the reference phase, alternately plain and with client spans
  // kept (both sampling `stats` and mixing in pings, so they differ only by
  // the span recording); the alternation spreads slow spells of the host
  // over both sides. Each side's rounds fold into one result.
  const PhaseSpec untraced{"untraced", w.reference_rate, 0.25 * seconds, false, 0.25, 0};
  const PhaseSpec traced{"traced", w.reference_rate, 0.25 * seconds, true, 0.25, 0};

  std::vector<PhaseSpec> phases;
  std::vector<PhaseResult> results;
  std::vector<bool> passed;
  const auto run = [&](const PhaseSpec& spec) -> bool {
    if (gen.broken) return false;
    const std::uint64_t failed_before = gen.failures.count;
    phases.push_back(spec);
    results.push_back(gen.run(spec));
    passed.push_back(phase_passes(w, spec, results.back()) &&
                     gen.failures.count == failed_before);
    return passed.back();
  };
  if (mode == "trace") {
    for (int round = 0; round < 2; ++round) {
      run(untraced);
      run(traced);
    }
  } else {
    double rate = w.ladder_start;
    double pass_rate = 0.0;  // highest ladder rate that met the limit so far
    double fail_rate = 0.0;  // lowest ladder rate that missed it
    int bisections = 0;
    for (int round = 0; round < kRounds; ++round) {
      run(reference);
      run(serial);
      run(concurrent);
    }
    for (bool ladder_done = false; !ladder_done && !gen.broken;) {
      (run({"ladder", rate, rung_s, false, 0.0, 0}) ? pass_rate : fail_rate) = rate;
      const bool doubling = fail_rate == 0.0 && rate < w.ladder_cap;
      if (doubling) {
        rate *= 2.0;
      } else if (fail_rate > 0.0 && bisections < kBisections) {
        rate = pass_rate > 0.0 ? std::sqrt(pass_rate * fail_rate) : fail_rate / 2.0;
        ++bisections;
      } else {
        ladder_done = true;
      }
    }
  }
  {
    // Fold trace mode's alternating rounds into one result per side.
    std::vector<PhaseSpec> folded_specs;
    std::vector<PhaseResult> folded;
    std::vector<bool> folded_passed;
    for (std::size_t p = 0; p < phases.size(); ++p) {
      std::size_t slot = 0;
      while (slot < folded_specs.size() &&
             (mode != "trace" || folded_specs[slot].name != phases[p].name)) {
        ++slot;
      }
      if (slot == folded_specs.size()) {
        folded_specs.push_back(phases[p]);
        folded.emplace_back();
        folded_passed.push_back(passed[p]);
      } else {
        folded_specs[slot].seconds += phases[p].seconds;
        folded_passed[slot] = folded_passed[slot] && passed[p];
      }
      folded[slot].absorb(results[p]);
    }
    phases = std::move(folded_specs);
    results = std::move(folded);
    passed = std::move(folded_passed);
  }
  if (!spans_path.empty()) {
    // Spans were kept per connection in memory; one request per span here.
    Tracer tracer;
    for (const PhaseResult& r : results) {
      for (const Span& span : r.spans) {
        tracer.close(tracer.open(), 0, tracer.spans().size() + 1, span.name,
                     span.start_ns, span.end_ns);
      }
    }
    if (!tracer.write_json(spans_path)) die("cannot write " + spans_path);
  }

  // Untimed: check every answer against the reference sketches.
  std::uint64_t attempted = 0;
  for (const PhaseResult& r : results) attempted += r.sent;
  if (corrupt) {
    // The benchmark's own tests flip one answer to prove the check trips.
    std::vector<std::string>& answers = gen.works[0]->estimates();
    if (!answers.empty()) answers[0] += "1";
  }
  Accuracy accuracy;
  std::vector<std::thread> checkers;
  for (std::size_t t = 0; t < w.tenants; ++t) {
    checkers.emplace_back([&, t] {
      check_ingest_tenant(w, t, seed, gen.works[t]->requests(), gen.works[t]->estimates(),
                          gen.failures, accuracy);
    });
  }
  for (std::thread& t : checkers) t.join();

  std::string phases_json = "[";
  for (std::size_t p = 0; p < phases.size(); ++p) {
    phases_json += (p ? ", " : "") + phase_json(phases[p], results[p], passed[p]);
  }
  phases_json += "]";
  std::string errors = "[";
  for (std::size_t i = 0; i < gen.failures.first.size(); ++i) {
    errors += (i ? ", \"" : "\"") + json_escape(gen.failures.first[i]) + "\"";
  }
  errors += "]";
  std::printf("%s\n", JsonOut()
                          .num("setup_s", setup_s)
                          .num("p99_limit_ms", w.p99_limit_ms)
                          .num("attempted", static_cast<double>(attempted))
                          .num("failed", static_cast<double>(gen.failures.count))
                          .num("estimate_accuracy",
                               1.0 - accuracy.rel_err_sum /
                                         static_cast<double>(std::max<std::uint64_t>(1, accuracy.count)))
                          .num("estimates_checked", static_cast<double>(accuracy.count))
                          .raw("errors", errors)
                          .raw("phases", phases_json)
                          .done()
                          .c_str());
  return 0;
}

}  // namespace perfbench
