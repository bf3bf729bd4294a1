// TCP front-end for the sketch fleet (DESIGN.md §5.12/§5.15,
// docs/PROTOCOL.md).
//
// A line-oriented request/response protocol over loopback TCP: every request
// is one LF-terminated line, every response one line starting `ok` or `err`.
// The server binds 127.0.0.1 only (it is a local front door, not an internet
// service).
//
// The connection layer is an event-driven reactor: ONE thread runs an epoll
// loop (level-triggered, every fd O_NONBLOCK) that owns accepting, all
// connection read/write buffers, line framing, idle timeouts (a coarse timer
// wheel, not per-connection poll()), and overload shedding. An idle
// connection costs one epoll registration and a few hundred bytes — NOT a
// ThreadPool slot — so thousands of mostly-idle clients coexist with a
// 4-thread pool. Only parsed, COMPLETE request lines ever reach the pool:
// the reactor hands each connection's ready lines to execute_fleet_batch()
// as one pool task (never more than one in flight per connection, so
// responses stay in request order), and the task hands the response bytes
// back to the connection's write buffer, draining backpressure through
// EPOLLOUT.
//
// Within one dispatched batch, consecutive pipelined requests for the same
// tenant coalesce (DESIGN.md §5.15): runs of `estimate` lines execute
// against a single acquired handle via SketchFleet::estimate_batch, and runs
// of `ingest` lines fold their edges into one admission chunk (one
// update_chunk call, one version bump). Responses are still one line per
// request, in order — the wire grammar is unchanged.
//
// The request handler itself (handle_fleet_request) is a pure function from
// a request line to a response line, exposed separately so the serve_qps
// bench can drive the identical dispatch path in-process and measure the
// serve hot path without kernel sockets in the loop.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/sketch_fleet.hpp"

namespace covstream {

class ThreadPool;
class NetServer;

/// Executes one protocol request line against `fleet` and returns the
/// response line (no trailing newline). Sets *shutdown_requested on the
/// `shutdown` command (the response is still returned and must be sent).
/// `pool` (nullable) only enriches the `stats` response with the pool
/// backlog; `server` (nullable) enriches it with connection counters.
/// `quit` is a connection-level command handled by the caller, not here.
/// See docs/PROTOCOL.md for the normative grammar.
std::string handle_fleet_request(SketchFleet& fleet, std::string_view line,
                                 bool* shutdown_requested,
                                 ThreadPool* pool = nullptr,
                                 const NetServer* server = nullptr);

/// One parsed, complete request line awaiting dispatch. `arrival` is when
/// the line's bytes were read off the socket — the request-deadline clock.
struct FleetBatchRequest {
  std::string line;  // CR-stripped, no trailing newline
  std::chrono::steady_clock::time_point arrival;
};

/// What execute_fleet_batch produced for one batch of pipelined requests.
struct FleetBatchResult {
  /// Concatenated response lines, each '\n'-terminated, in request order.
  std::string responses;
  std::size_t served = 0;             // lines answered (incl. rejections)
  std::size_t deadline_rejected = 0;  // lines shed past their deadline
  /// Requests answered as part of a coalesced same-tenant run of length
  /// >= 2 (the run executed against one acquired handle / one admission).
  std::size_t batched_requests = 0;
  /// `ingest` lines whose edges were folded into a shared update_chunk.
  std::size_t coalesced_ingest_lines = 0;
  bool close = false;     // quit/shutdown: stop serving this connection
  bool shutdown = false;  // some line was `shutdown`
};

/// Executes a batch of pipelined request lines in order, coalescing
/// consecutive same-tenant runs (see the header comment). Requests after a
/// `quit`/`shutdown` line are NOT executed (the connection is closing — same
/// contract as the pre-reactor per-line loop). `request_deadline_ms == 0`
/// disables deadline shedding. Exposed for the equality tests and the
/// serve_qps bench; NetServer dispatches through exactly this function.
FleetBatchResult execute_fleet_batch(SketchFleet& fleet,
                                     std::span<const FleetBatchRequest> batch,
                                     std::uint32_t request_deadline_ms,
                                     ThreadPool* pool = nullptr,
                                     const NetServer* server = nullptr);

class NetServer {
 public:
  struct Options {
    /// TCP port on 127.0.0.1; 0 asks the kernel for an ephemeral port
    /// (read it back via port() — tests do).
    std::uint16_t port = 0;
    int backlog = 64;
    /// A request line longer than this is answered with `err` and the
    /// connection closed (protects the server from unframed garbage).
    std::size_t max_line_bytes = 1 << 16;
    /// Overload protection (DESIGN.md §5.13); 0 disables each knob.
    /// A connection idle (no bytes) longer than this is told
    /// `err idle timeout` and closed by the reactor's timer wheel —
    /// half-open clients cost one epoll registration, briefly.
    std::uint32_t idle_timeout_ms = 0;
    /// A pipelined request that waited in the connection buffer longer
    /// than this is answered `err deadline exceeded` WITHOUT executing
    /// (load shedding: stale requests are not worth their cost).
    std::uint32_t request_deadline_ms = 0;
    /// Open-connection bound: past it, new connections get one `err busy`
    /// line and an immediate close. With the reactor an open connection is
    /// cheap, so this guards fd exhaustion, not pool slots (0 = unlimited).
    std::size_t max_connections = 0;
    /// How long the reactor holds a connection's first undispatched request
    /// hoping more pipelined lines arrive to coalesce with it. 0 dispatches
    /// as soon as the read that completed the line is drained.
    std::uint32_t batch_window_us = 0;
    /// Most request lines handed to one pool task; longer pipelines split
    /// into consecutive batches (order still guaranteed per connection).
    std::size_t max_batch_requests = 256;
  };

  /// The fleet and pool must outlive the server. stop() is called by the
  /// destructor if the caller did not.
  NetServer(SketchFleet& fleet, ThreadPool& pool, Options options);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds + listens + starts the reactor. False (with *error) on
  /// bind/listen/epoll failure.
  bool start(std::string* error);

  /// The bound port (valid after start()).
  std::uint16_t port() const { return port_; }

  /// Blocks until some client issued `shutdown` (or stop() was called).
  void wait_shutdown();

  /// Releases wait_shutdown() waiters as if a client sent `shutdown` —
  /// the hook a SIGTERM handler thread uses for graceful drain-and-flush.
  void request_shutdown();

  /// Stops accepting, closes every connection, and waits for in-flight
  /// dispatch tasks to finish. Idempotent. Must not be called from a pool
  /// task (a dispatch cannot wait for itself).
  void stop();

  struct Counters {
    std::uint64_t connections_accepted = 0;
    std::uint64_t requests_served = 0;
    std::uint64_t shed_busy = 0;          // connections refused with err busy
    std::uint64_t idle_closed = 0;        // connections closed by idle timeout
    std::uint64_t deadline_rejected = 0;  // requests shed past their deadline
    std::uint64_t epoll_wakeups = 0;      // reactor loop iterations
    std::uint64_t batched_requests = 0;   // requests served via coalesced runs
    std::uint64_t coalesced_ingest_lines = 0;  // ingest lines sharing a chunk
    std::uint64_t open_connections = 0;   // gauge: currently open connections
  };
  Counters counters() const;

 private:
  struct Conn;

  /// Coarse-bucket timer wheel for idle timeouts (reactor-thread only).
  /// Entries are (fd, conn serial); firing re-checks the connection's real
  /// deadline and lazily re-inserts, so refreshing activity costs nothing.
  struct TimerWheel {
    std::int64_t tick_ms = 0;
    std::size_t cursor = 0;
    std::int64_t cursor_ms = 0;  // wheel time the cursor has consumed
    std::vector<std::vector<std::pair<int, std::uint64_t>>> buckets;

    void init(std::int64_t tick, std::size_t slots, std::int64_t now_ms);
    void schedule(int fd, std::uint64_t serial, std::int64_t expiry_ms);
    template <typename Fire>
    void advance(std::int64_t now_ms, Fire&& fire);
  };

  void reactor_loop();
  void on_accept_ready();
  void on_readable(const std::shared_ptr<Conn>& conn);
  void on_writable(const std::shared_ptr<Conn>& conn);
  void on_dispatch_done(const std::shared_ptr<Conn>& conn);
  void settle(const std::shared_ptr<Conn>& conn);
  void maybe_dispatch(const std::shared_ptr<Conn>& conn);
  void process_window_wait();
  void submit_batch(const std::shared_ptr<Conn>& conn);
  void run_dispatch(const std::shared_ptr<Conn>& conn,
                    const std::vector<FleetBatchRequest>& batch);
  void close_conn(const std::shared_ptr<Conn>& conn);
  void update_epoll(Conn& conn);
  /// Drains conn->outbuf with nonblocking sends (conn->mutex held by the
  /// caller). Returns false when the peer is gone (write error).
  static bool try_send_locked(Conn& conn);
  void wake_reactor();
  std::int64_t steady_ms() const;

  SketchFleet& fleet_;
  ThreadPool& pool_;
  Options options_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::uint16_t port_ = 0;
  std::size_t pending_cap_ = 64;  // parsed-line backpressure bound
  std::thread reactor_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> epoll_wakeups_{0};

  // Reactor-thread-only state.
  /// Whether listen_fd_ is registered with epoll. on_accept_ready()
  /// deregisters it on EMFILE/ENFILE (a level-triggered readable listen fd
  /// with an undrainable backlog would spin the loop hot); close_conn()
  /// re-registers once an fd frees. Also cleared permanently on stop().
  bool listen_registered_ = false;
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;
  std::vector<std::shared_ptr<Conn>> window_wait_;  // undispatched, batching
  TimerWheel wheel_;
  std::uint64_t next_serial_ = 1;

  // Dispatch tasks push completed connections here and write wake_fd_.
  std::mutex done_mutex_;
  std::vector<std::shared_ptr<Conn>> done_;

  mutable std::mutex mutex_;  // counters_, shutdown flag, inflight_tasks_
  std::condition_variable cv_;
  bool shutdown_requested_ = false;
  std::size_t inflight_tasks_ = 0;
  Counters counters_;
};

}  // namespace covstream
