// Multi-tenant sketch fleet: many named sketches behind one registry, one
// memory budget, and one warm solver cache (DESIGN.md §5.12).
//
// The paper's sketches are O~(n) words each, which is what makes a FLEET of
// them viable: thousands of live tenants fit one machine as long as somebody
// arbitrates the total. SketchFleet is that somebody:
//
//   * every tenant is a named sketch published copy-on-write — a live
//     sketch mutated only under the tenant's work mutex, and an immutable
//     shared_ptr<const SubsampleSketch> handle republished
//     after every ingest batch. Reads (estimate) grab the handle under a
//     pointer-swap-only mutex and compute outside all locks, so estimates
//     never block admits and never observe a mutating sketch;
//   * a fleet-wide memory budget (Options::memory_budget_words) is enforced
//     after every footprint-growing operation: while over budget, the
//     least-recently-used resident tenant is evicted — serialized to a
//     snapshot file (docs/FORMATS.md wire format) under Options::spill_dir
//     and its in-memory state freed. The next operation touching an evicted
//     tenant transparently reloads it; snapshot round trips are bit-for-bit
//     (DESIGN.md §5.9), so an evicted-then-reloaded tenant answers every
//     estimate and solve exactly like a never-evicted one (pinned by
//     tests/serve/fleet_test.cpp);
//   * solves go through a warm solver cache keyed by (tenant, version):
//     repeated solves against one published handle reuse the CoverageIndex
//     and GreedyScratch (the Solver warm path, DESIGN.md §5.10) instead of
//     rebuilding them per request. Entries hold their handle alive, are
//     LRU-bounded by Options::solver_cache_entries, and serialize solves per
//     entry — two tenants solve in parallel, two solves of one (tenant,
//     version) queue behind each other, and nobody ever blocks an admit.
//
// Lock order (deadlock freedom): registry_mutex_ and a tenant's work mutex
// may both be held only in the order work-then-registry (accounting updates)
// or registry-then-try_lock(work) (eviction scans) — the eviction scan never
// blocks on a busy tenant, it skips it.
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
    /// words (live sketch + published handle per resident tenant). 0 means
    /// unlimited — no eviction ever happens.
    std::size_t memory_budget_words = 0;
    /// Directory for eviction spill files (created on demand). Required when
    /// memory_budget_words > 0 or persistent is set.
    std::string spill_dir;
    /// Warm solver cache capacity in (tenant, version) entries.
    std::size_t solver_cache_entries = 64;
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

  /// Registers a fresh, empty tenant. False (with *error) on a bad name, a
  /// duplicate, or invalid params.
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

  /// Applies one edge batch to the tenant's live sketch and republishes its
  /// immutable handle (version + 1). Reloads an evicted tenant first.
  bool ingest(const std::string& name, std::span<const Edge> edges,
              std::string* error);

  /// Coverage estimate from the tenant's current published handle. Never
  /// blocks ingestion (handle grab is a pointer copy); set ids outside the
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
  /// on (DESIGN.md §5.15): one reload check and one handle_mutex pointer
  /// grab however long the pipelined run is, and every member reads the
  /// same published version. Returns false (with *error) only when the
  /// whole batch fails — unknown tenant or failed reload; otherwise *out
  /// has exactly families.size() entries, each either a value or the
  /// per-family range error, byte-identical to serial estimate() calls.
  bool estimate_batch(const std::string& name,
                      std::span<const std::vector<SetId>> families,
                      std::vector<EstimateOutcome>* out, std::string* error);

  /// Greedy max-k-cover on the current published handle through the warm
  /// (tenant, version) solver cache.
  std::optional<KCoverResult> solve(const std::string& name, std::uint32_t k,
                                    std::string* error);

  /// Saves the tenant's current published handle as a sketch snapshot file.
  bool save(const std::string& name, const std::string& path,
            std::string* error);

  /// Forces the tenant out to its spill file now (testing and operator
  /// control; the arbiter does the same thing on its own when over budget).
  /// Requires a spill_dir. A subsequent operation reloads transparently.
  bool evict(const std::string& name, std::string* error);

  /// Unregisters the tenant, freeing its memory, dropping its solver-cache
  /// entries, and deleting its spill file.
  bool drop(const std::string& name, std::string* error);

  /// The tenant's current published handle (reloads if evicted); null +
  /// *error on unknown tenants. Exposed for embedding and the equality tests.
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
  struct Tenant {
    explicit Tenant(SketchParams p) : params(p) {}

    SketchParams params;
    std::string spill_path;

    // work: serializes ingest / evict / reload / save / solve-handle-grab.
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

    // handle_mutex: pointer swap only — the estimate fast path takes nothing
    // else. published_version is the version the handle was published at.
    std::mutex handle_mutex;
    std::shared_ptr<const SubsampleSketch> handle;
    std::uint64_t published_version = 0;

    std::atomic<std::uint64_t> last_access{0};
  };

  // One warm (tenant, version) solver entry. Destruction order matters:
  // solver borrows view's CSR and view's owner is handle, so members are
  // declared handle, view, solver — destroyed solver-first.
  struct SolveEntry {
    std::shared_ptr<const SubsampleSketch> handle;
    SketchView view;
    std::optional<Solver> solver;
    std::mutex run;  // serializes solves on this entry only
    std::atomic<std::uint64_t> last_use{0};
  };

  std::shared_ptr<Tenant> find(const std::string& name, std::string* error);
  /// Publishes a fresh immutable copy of `tenant->live` (work held).
  void publish(Tenant& tenant);
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

  std::optional<KCoverResult> solve_cached(
      const std::string& name, const std::shared_ptr<Tenant>& tenant,
      std::uint32_t k);
  void forget_solver_entries(const std::string& name);

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

  mutable std::mutex cache_mutex_;  // solve_cache_ structure + counters
  std::unordered_map<std::string, std::shared_ptr<SolveEntry>> solve_cache_;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;

  std::atomic<std::uint64_t> clock_{1};  // LRU tick source (access order)
};

}  // namespace covstream
