// Distributed coverage sketching (the paper's companion application [10]):
// partition the edge stream across W workers, build one H<=n shard per
// worker with the SAME hash seed, then reduce by merging — the merged sketch
// is identical to the one a single pass over the whole stream would build,
// so every Section 3 algorithm runs unchanged on it.
//
// Two regimes share this header (DESIGN.md §5.14):
//
//  * In-process: ShardedSketchBuilder simulates the MapReduce round locally —
//    the batched stream engine deals edges to shards by element hash, shards
//    update concurrently via the ThreadPool, and finalize() runs the
//    reduction tree. Because the shards share one process, they also share
//    one admission cutoff: at fixed stream positions each shard publishes a
//    key histogram, and one position later every shard evicts what lies at
//    or above the smallest key below which the published retained edges
//    already exceeded the budget. Each shard then holds about budget/N
//    edges instead of the budget.
//
//  * Multi-process: N `covstream_cli --cmd=worker` processes each ingest the
//    slice of the stream a shared router assigns them
//    (shard_ownership_filter), then emit one ShardSnapshot file — the §5.9
//    snapshot format carrying a shard manifest (id, count, routing, router
//    seed) in front of the sketch. A coordinator process collects the files,
//    validates the set as a coherent partition (validate_shard_set: every
//    shard present exactly once, identical params — mismatches fail loudly,
//    never a silent partial merge), reduces them with hierarchical_merge
//    (configurable fan-in, pool-parallel groups per level), and solves on
//    the merged sketch.
//
// Exactness: with kByElementHash routing every edge of an element lands on
// one shard, so the merged sketch holds exactly the single-stream sketch's
// elements and edge lists regardless of caps or budgets, and so does the
// shared bound: every edge it counts is one the single-stream sketch would
// hold too. kRoundRobin splits an element's edges across shards; the merge
// unions them sorted, which agrees with the single-stream sketch except
// when the per-element degree cap binds (the single-stream sketch keeps the
// first cap edges in ARRIVAL order, the merge keeps the smallest cap set
// ids). Workers and the in-process builder therefore route by hash only;
// kRoundRobin remains a SHRD routing value that files may name.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/subsample_sketch.hpp"
#include "parallel/thread_pool.hpp"
#include "stream/stream_engine.hpp"

namespace covstream {

/// How stream edges are assigned to shards.
enum class ShardRouting : std::uint32_t {
  kRoundRobin = 0,     // deal by arrival index (exact only while caps don't bind)
  kByElementHash = 1,  // all edges of an element land on one shard (always exact)
};

std::string to_string(ShardRouting routing);

/// The partition seed rides on the sketch hash seed so a routing choice is
/// reproducible per run but independent of the element-admission hash. Every
/// worker and the in-process builder derive it the same way — a shard set
/// built with different seeds would be a corrupt partition, so the manifest
/// records it and the coordinator cross-checks.
std::uint64_t shard_router_seed(const SketchParams& params);

/// Provenance frame a worker writes in front of its shard sketch
/// (docs/FORMATS.md §3 'SHRD'): which slice of which partition this is.
struct ShardManifest {
  std::uint32_t shard_id = 0;
  std::uint32_t shard_count = 1;
  ShardRouting routing = ShardRouting::kByElementHash;
  std::uint64_t router_seed = 0;
  std::uint64_t edges_ingested = 0;  // edges this worker owned and consumed
};

/// The engine router realizing a manifest's partition (shared with the
/// in-process builder — both regimes deal edges identically).
StreamEngine::Router make_shard_router(ShardRouting routing,
                                       std::size_t shard_count,
                                       std::uint64_t router_seed);

/// One worker's admission predicate: passes exactly the edges
/// make_shard_router assigns to `manifest.shard_id`. Stateful (round-robin
/// counts kept edges), so build one per pass and never reuse it.
EdgeFilter shard_ownership_filter(const ShardManifest& manifest);

/// A worker's unit of shuffle: manifest + shard sketch, persisted as one
/// snapshot file (object type 7).
struct ShardSnapshot {
  ShardManifest manifest;
  SubsampleSketch sketch;

  static constexpr SnapshotType kSnapshotType = SnapshotType::kShardSnapshot;

  /// Serializes the manifest fields then the nested sketch ('SHRD' section).
  void save(SnapshotWriter& writer) const;

  /// Restores a save()d shard; nullopt (reader error set) on any frame,
  /// range, or manifest-consistency failure.
  static std::optional<ShardSnapshot> load_snapshot(SnapshotReader& reader);
};

/// Checks a collected shard set is one coherent partition: non-empty, every
/// manifest agreeing on (shard_count, routing, router_seed), every shard id
/// 0..count-1 present exactly once, and every sketch built with identical
/// SketchParams. Each failure mode produces a distinct message in *error
/// (when non-null) naming the offending shard — the coordinator refuses to
/// merge rather than silently solving on a partial or mixed partition.
bool validate_shard_set(const std::vector<ShardSnapshot>& shards,
                        std::string* error = nullptr);

/// Reduces `sketches` to one by a fan-in tree: each level groups `fan_in`
/// consecutive sketches, merges each group left-to-right (one pool task per
/// group — groups touch disjoint sketches, so pool-parallel == serial bit
/// for bit), and repeats until one remains. fan_in >= 2; fan_in == 2 is the
/// classic pairwise tree. The input vector is consumed.
SubsampleSketch hierarchical_merge(std::vector<SubsampleSketch> sketches,
                                   std::size_t fan_in,
                                   ThreadPool* pool = nullptr);

/// validate_shard_set + hierarchical_merge over the shard sketches, in
/// ascending shard-id order (so the result is independent of collection
/// order). nullopt with *error set when validation fails.
std::optional<SubsampleSketch> merge_shard_set(std::vector<ShardSnapshot> shards,
                                               std::size_t fan_in,
                                               ThreadPool* pool = nullptr,
                                               std::string* error = nullptr);

class ShardedSketchBuilder {
 public:
  ShardedSketchBuilder(SketchParams params, std::size_t shards,
                       ThreadPool* pool = nullptr);

  std::size_t shard_count() const { return shards_.size(); }

  /// Consumes a whole stream through the engine's partitioned fan-out, routed
  /// by element hash (shard updates parallelized when a pool is given), and
  /// runs the shared cutoff bound every ⌈budget/16⌉ routed edges, one period
  /// late (DESIGN.md §5.14). `batch_edges` = 0 picks the engine default; it
  /// never changes the shards' state.
  void consume(EdgeStream& stream, std::size_t batch_edges = 0);

  /// Per-worker peak space (what each machine pays before the reduce).
  std::size_t max_shard_space_words() const;

  /// Barrier positions at which a shared cutoff lowered the shards' highest
  /// published cutoff, over every consume() so far.
  std::size_t bounds_applied() const { return bounds_applied_; }

  /// Reduces all shards into one sketch (pairwise merge tree — the fan_in=2
  /// hierarchical_merge). The builder is consumed: shards are left empty.
  SubsampleSketch finalize();

 private:
  /// Histogram buckets the shared bound resolves keys into.
  static constexpr int kBoundBucketBits = 12;
  static constexpr std::size_t kBoundBuckets = std::size_t{1} << kBoundBucketBits;

  /// What one shard's hook publishes at a barrier position: its totals and,
  /// when the shards may hold more than the budget there, the stored edges
  /// of its live keys in buckets of 2^shift (empty otherwise).
  struct ShardRecord {
    std::size_t edges = 0;
    std::size_t elements = 0;
    std::uint64_t cutoff = 0;
    int shift = 0;
    std::vector<std::size_t> histogram;
  };

  /// The barrier hook of shard s at position j: lowers the shard's cutoff
  /// to the bound the records of j−1 imply, then publishes its record for j.
  void share_cutoff(std::size_t s, std::size_t position);

  /// Records shard s's totals, and with `histogram` its key histogram.
  void publish(std::size_t s, ShardRecord& record, bool histogram,
               int shift) const;

  std::vector<SubsampleSketch> shards_;
  ThreadPool* pool_;
  std::size_t budget_;
  std::size_t bound_every_;  // ⌈budget/16⌉: barrier spacing
  /// Per shard, the records of the last two positions. A hook at j reads
  /// records_[(j−1) % 2] and writes records_[j % 2]; the hooks of j+1, which
  /// overwrite what it read, run only once every hook of j has returned.
  std::array<std::vector<ShardRecord>, 2> records_;
  std::size_t bounds_applied_ = 0;
};

}  // namespace covstream
