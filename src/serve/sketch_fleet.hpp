// Multi-tenant sketch fleet: many named sketches behind one registry, one
// memory budget, and at most one published view per tenant (DESIGN.md
// §5.12).
//
// The paper's sketches are O~(n) words each, which is what makes a FLEET of
// them viable: thousands of live tenants fit one machine as long as somebody
// arbitrates the total. SketchFleet is that somebody:
//
//   * every tenant is a named live sketch, mutated only under the tenant's
//     work mutex, plus at most one published handle: the immutable
//     SketchView of one version. An ingest admits its batch, bumps the
//     version and drops the handle — it copies nothing. The first read of
//     the new version builds its view from the live sketch under work and
//     publishes it; every later read of that version grabs the handle under
//     a pointer-swap-only mutex and computes outside all locks, so it never
//     blocks and never observes a mutating sketch;
//   * a fleet-wide memory budget (Options::memory_budget_words) is enforced
//     after every footprint-growing operation: while over budget, the
//     least-recently-used resident tenant is evicted — serialized to a
//     snapshot file (docs/FORMATS.md wire format) under Options::spill_dir
//     and its in-memory state freed. The next operation touching an evicted
//     tenant transparently reloads it; snapshot round trips are bit-for-bit
//     (DESIGN.md §5.9), so an evicted-then-reloaded tenant answers every
//     estimate and solve exactly like a never-evicted one (pinned by
//     tests/serve/fleet_test.cpp);
//   * the handle is the tenant's only read state: estimates count the
//     view's set->slot CSR, and the first solve of a version builds a warm
//     Solver (CoverageIndex + GreedyScratch, DESIGN.md §5.10) on the same
//     view, which later solves of that version reuse. View and solver are
//     freed with their handle — on the next ingest, eviction or drop — so
//     there is at most one of each per tenant. Two tenants solve in
//     parallel, two solves of one version queue behind each other, and no
//     solve blocks an admit.
//
// Lock order (deadlock freedom): registry_mutex_ and a tenant's work mutex
// may both be held only in the order work-then-registry (accounting updates)
// or registry-then-try_lock(work) (eviction scans) — the eviction scan never
// blocks on a busy tenant, it skips it. A handle's solve mutex is taken with
// no tenant lock held, and only registry_mutex_ is taken under it.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/streaming_kcover.hpp"
#include "core/subsample_sketch.hpp"
#include "solve/solver.hpp"

namespace covstream {

/// Tenant names become spill-file names and wire tokens, so they are
/// restricted to [A-Za-z0-9_.-], non-empty, at most 64 bytes.
bool valid_tenant_name(const std::string& name);

class SketchFleet {
 public:
  struct Options {
    /// Total resident sketch footprint allowed across tenants, in 8-byte
    /// words (live sketch + published view per resident tenant). 0 means
    /// unlimited — no eviction ever happens.
    std::size_t memory_budget_words = 0;
    /// Directory for eviction spill files (created on demand). Required when
    /// memory_budget_words > 0 or persistent is set.
    std::string spill_dir;
    /// Persistent mode (DESIGN.md §5.13): the spill dir is the source of
    /// truth. The constructor scans it — restoring the roster from the
    /// manifest, quarantining corrupt/orphaned files, sweeping crash
    /// leftovers — and create/drop/flush_all keep the manifest current.
    bool persistent = false;
    /// While degraded (spills failing under budget pressure), retry the
    /// spill sweep at most this often. 0 retries on every mutation.
    std::uint64_t spill_retry_backoff_ms = 500;
  };

  explicit SketchFleet(Options options);
  ~SketchFleet();

  SketchFleet(const SketchFleet&) = delete;
  SketchFleet& operator=(const SketchFleet&) = delete;

  /// Registers a fresh, empty tenant. False (with *error) on invalid params,
  /// a bad name, or a duplicate.
  bool create(const std::string& name, const SketchParams& params,
              std::string* error);

  /// Registers a tenant around an already-built sketch (the distributed
  /// coordinator adopts its merged sketch to serve estimate/solve over the
  /// existing line protocol — DESIGN.md §5.14). Same name/duplicate rules as
  /// create(); `edges_ingested` seeds the stats counter. In persistent mode
  /// the adopted state is dirty until the first flush (the manifest alone
  /// only reconstructs an empty tenant).
  bool adopt(const std::string& name, SubsampleSketch&& sketch,
             std::uint64_t edges_ingested, std::string* error);

  /// Applies one edge batch to the tenant's live sketch, bumps its version
  /// and drops its handle, so the next read builds the new version's view
  /// (read-your-writes). Copies nothing. Reloads an evicted tenant first. A
  /// set id outside the tenant's universe rejects the whole batch before
  /// anything is admitted.
  bool ingest(const std::string& name, std::span<const Edge> edges,
              std::string* error);

  /// Coverage estimate from the view of the tenant's current version. The
  /// version's first read builds that view under the work mutex; later
  /// reads grab it with a pointer copy and never block. Set ids outside the
  /// tenant's universe are an error.
  std::optional<double> estimate(const std::string& name,
                                 std::span<const SetId> family,
                                 std::string* error);

  /// Outcome of one family inside estimate_batch: value on success,
  /// otherwise the exact error string estimate() would have produced.
  struct EstimateOutcome {
    std::optional<double> value;
    std::string error;
  };

  /// Answers many coverage estimates for one tenant from ONE acquired handle
  /// — the amortization the front door's per-tenant request coalescing rides
  /// on (DESIGN.md §5.15): one reload check, at most one view build and one
  /// handle_mutex pointer grab however long the pipelined run is, and every
  /// member reads the same published version. Returns false (with *error)
  /// only when the whole batch fails — unknown tenant or failed reload;
  /// otherwise *out has exactly families.size() entries, each either a
  /// value or the per-family range error, byte-identical to serial
  /// estimate() calls.
  bool estimate_batch(const std::string& name,
                      std::span<const std::vector<SetId>> families,
                      std::vector<EstimateOutcome>* out, std::string* error);

  /// Greedy max-k-cover on the current version's view, through the warm
  /// solver its handle carries (built by the version's first solve).
  std::optional<KCoverResult> solve(const std::string& name, std::uint32_t k,
                                    std::string* error);

  /// Saves the tenant's current sketch as a snapshot file: a copy taken
  /// under the work mutex (handle()), written with no lock held.
  bool save(const std::string& name, const std::string& path,
            std::string* error);

  /// Forces the tenant out to its spill file now (testing and operator
  /// control; the arbiter does the same thing on its own when over budget).
  /// Requires a spill_dir. A subsequent operation reloads transparently.
  bool evict(const std::string& name, std::string* error);

  /// Unregisters the tenant, freeing its memory (handle and warm solver
  /// included, once in-flight reads let go) and deleting its spill file.
  bool drop(const std::string& name, std::string* error);

  /// drop() that hands back the tenant's live sketch (reloaded first if
  /// evicted) instead of freeing it — the inverse of adopt(). A caller done
  /// with the tenant keeps the sketch without copying it, as the CLI's
  /// ingest does with the sketch its file pass built.
  std::optional<SubsampleSketch> take(const std::string& name,
                                      std::string* error);

  /// A copy of the tenant's live sketch, taken under its work mutex
  /// (reloads if evicted); null + *error on unknown tenants. O(sketch): the
  /// one place the fleet copies a sketch. Exposed for save, checkpoints,
  /// embedding and the equality tests.
  std::shared_ptr<const SubsampleSketch> handle(const std::string& name,
                                                std::string* error);

  /// Durably writes every dirty tenant to its spill file (tenants stay
  /// resident) and rewrites the manifest (persistent mode). *flushed counts
  /// tenants written. False when any tenant or the manifest failed — the
  /// rest were still attempted; *error holds the first failure. Requires a
  /// spill_dir.
  bool flush_all(std::size_t* flushed, std::string* error);

  struct TenantStats {
    std::uint64_t version = 0;
    bool resident = false;
    std::size_t space_words = 0;  // 0 while evicted
    std::uint64_t edges_ingested = 0;
    SetId num_sets = 0;
    // The sketch's shape, for reading how exact its answers are; 0 while
    // evicted, like space_words.
    std::size_t retained_elements = 0;
    std::size_t stored_edges = 0;
    double p_star = 0.0;
  };
  std::optional<TenantStats> tenant_stats(const std::string& name) const;

  struct FleetStats {
    std::size_t tenants = 0;
    std::size_t resident = 0;
    std::size_t resident_words = 0;
    std::size_t budget_words = 0;
    std::uint64_t evictions = 0;
    std::uint64_t reloads = 0;
    /// Solves that reused their handle's warm solver, and solves that built
    /// it (a version's first solve, including the first after a reload).
    std::uint64_t solver_cache_hits = 0;
    std::uint64_t solver_cache_misses = 0;
    /// Degradation surface (DESIGN.md §5.13): degraded goes true when the
    /// eviction arbiter cannot spill (disk full/broken) while over budget —
    /// new ingest is refused with `err degraded` until a spill succeeds.
    bool degraded = false;
    std::uint64_t spill_failures = 0;
    std::uint64_t quarantined = 0;
    std::uint64_t flushed_tenants = 0;
    /// Request-coalescing counters: estimate_batch() calls, and the total
    /// families they answered (>= 2x estimate_batches when the front door
    /// only batches runs of length >= 2).
    std::uint64_t estimate_batches = 0;
    std::uint64_t batched_estimates = 0;
  };
  FleetStats stats() const;

  /// What the persistent boot scan found (empty outside persistent mode).
  struct BootReport {
    std::size_t restored = 0;         // roster entries with a valid spill file
    std::size_t recreated_empty = 0;  // roster entries that never flushed
    std::size_t adopted = 0;          // manifest-less spill files adopted
    std::size_t quarantined = 0;      // corrupt/orphaned files set aside
    std::size_t temps_swept = 0;      // crash-leftover .tmp.* files removed
  };
  const BootReport& boot_report() const { return boot_report_; }

  std::vector<std::string> tenant_names() const;

 private:
  // One published version of a tenant: the view its first read builds
  // from the live sketch, the sketch's space words that solve reports and
  // the view does not hold, and the warm Solver its first solve builds on
  // the view. Readers hold it by shared_ptr, so a version's solver lives
  // exactly as long as its handle. Destruction order matters: solver
  // borrows view's CSR, so members are declared view, solver — destroyed
  // solver-first.
  struct Published {
    explicit Published(const SubsampleSketch& live)
        : view(live.view()),
          sketch_peak_words(live.peak_space_words()),
          sketch_words(live.space_words()) {}

    const SketchView view;
    const std::size_t sketch_peak_words;
    const std::size_t sketch_words;
    std::mutex solve_mutex;  // builds the solver once; serializes solves
    std::optional<Solver> solver;
  };

  struct Tenant {
    explicit Tenant(SketchParams p) : params(p) {}

    SketchParams params;
    std::string spill_path;

    // work: serializes ingest / evict / reload / drop, handle() copies and
    // acquire()'s reload and view build.
    std::mutex work;
    std::optional<SubsampleSketch> live;
    std::uint64_t version = 0;
    /// Version whose state is recoverable from disk (spill file, or — for a
    /// never-flushed empty tenant in persistent mode — the manifest alone).
    /// version != durable_version marks the tenant dirty for flush_all.
    std::uint64_t durable_version = 0;
    std::uint64_t edges_ingested = 0;
    std::size_t accounted_words = 0;  // what resident_words_ currently counts

    // Written under work; atomic so the eviction scan can read it lock-free.
    std::atomic<bool> resident{true};

    // handle_mutex: pointer swap only — the read fast path takes nothing
    // else. Written only with work held. Null while not resident, and from
    // an ingest until the next read builds that version's view; a non-null
    // handle is always the current version.
    std::mutex handle_mutex;
    std::shared_ptr<Published> handle;

    std::atomic<std::uint64_t> last_access{0};
  };

  std::shared_ptr<Tenant> find(const std::string& name, std::string* error);
  /// Registers `sketch` as tenant `name` at version 1 (create and adopt).
  /// `manifest_restores` marks state the manifest alone reconstructs (an
  /// empty tenant), durable once the manifest is written.
  bool register_tenant(const std::string& name, SubsampleSketch&& sketch,
                       std::uint64_t edges_ingested, bool manifest_restores,
                       std::string* error);
  /// Builds the view of `tenant.live` and publishes it as the tenant's
  /// handle (work held).
  void publish(Tenant& tenant);
  /// Takes down the tenant's handle (work held) and returns it, so the
  /// caller may free it — view and warm solver — outside the lock.
  std::shared_ptr<Published> unpublish(Tenant& tenant);
  /// Runs `fn()` under the tenant's work mutex with the tenant resident —
  /// an evicted one is reloaded first — then enforces the budget with no
  /// lock held. False + *error when the reload fails.
  template <typename Fn>
  bool with_resident(Tenant& tenant, std::string* error, Fn&& fn);
  /// The tenant's current handle, the one path every view read (estimate,
  /// estimate_batch, solve) takes. Fast path: a pointer copy under
  /// handle_mutex. Without a handle (an evicted tenant, or a version nobody
  /// has read yet) it takes work, reloads if evicted, builds and publishes
  /// the view unless a racing reader already did, and takes the handle
  /// while still holding work — which ingest, spill and drop also need, so
  /// the handle is current and no retry is needed. Null + *error on
  /// unknown tenants and failed reloads.
  std::shared_ptr<Published> acquire(const std::string& name,
                                     std::string* error);
  /// drop() and take(): unregisters `name` and frees its state, moving the
  /// live sketch into *keep first when `keep` is set.
  bool unregister(const std::string& name, std::optional<SubsampleSketch>* keep,
                  std::string* error);
  /// Reloads an evicted tenant from its spill file (work held).
  bool reload(Tenant& tenant, std::string* error);
  /// Serializes + frees a resident tenant (work held). False on I/O failure
  /// (the tenant stays resident — losing state is worse than over-budget).
  bool spill(Tenant& tenant, std::string* error);
  /// Re-derives accounted_words from the tenant's current state and applies
  /// the delta to resident_words_ (work held; takes registry_mutex_ inside).
  void reaccount(Tenant& tenant);
  /// Evicts LRU resident tenants (skipping busy ones) until within budget.
  /// Must be called with NO tenant work mutex held.
  void enforce_budget(const Tenant* exclude);

  std::string spill_path_for(const std::string& name) const;
  /// Persistent boot (constructor only): sweep temps, restore the roster
  /// from the manifest (or adopt manifest-less spill files), quarantine
  /// anything corrupt or orphaned, rewrite the manifest.
  void boot_scan();
  /// Moves `path` into spill_dir/quarantine/ (never deletes) with a logged
  /// reason; counts it.
  void quarantine_file(const std::string& path, const std::string& reason);
  /// Serializes the current roster to spill_dir/fleet.manifest.snap.
  /// Serialized against concurrent manifest writers; takes registry and
  /// per-tenant work locks internally (caller must hold neither).
  bool write_manifest(std::string* error);
  /// If the degraded flag is set, clears it (registry lock taken inside).
  void clear_degraded();
  /// Marks the fleet degraded with `reason` and arms the retry backoff.
  void enter_degraded(const std::string& reason);
  /// Degraded gate for footprint-growing operations: retries the spill
  /// sweep (backoff-bounded), then errors out if still degraded.
  bool refuse_if_degraded(std::string* error);

  Options options_;

  mutable std::mutex registry_mutex_;  // tenants_, resident_words_, counters
  std::unordered_map<std::string, std::shared_ptr<Tenant>> tenants_;
  std::size_t resident_words_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t reloads_ = 0;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;
  std::uint64_t spill_failures_ = 0;
  std::uint64_t quarantined_ = 0;
  std::uint64_t flushed_tenants_ = 0;
  std::uint64_t estimate_batches_ = 0;
  std::uint64_t batched_estimates_ = 0;
  bool degraded_ = false;
  std::string degraded_reason_;

  // Lock-free mirror of degraded_ for the ingest fast path, plus the
  // earliest steady-clock ms at which a degraded fleet retries spilling.
  std::atomic<bool> degraded_flag_{false};
  std::atomic<std::int64_t> next_spill_retry_ms_{0};

  std::mutex manifest_mutex_;  // serializes manifest build+write
  BootReport boot_report_;

  std::atomic<std::uint64_t> clock_{1};  // LRU tick source (access order)
};

}  // namespace covstream
