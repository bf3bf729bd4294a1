// The H<=n coverage sketch (Section 2 of the paper).
//
// Conceptually: hash every element to [0,1]; H_p keeps elements with hash at
// most p; H'_p additionally caps each element's degree at
// n*log(1/eps)/(eps*k); H<=n picks p = p* automatically so that the sketch
// holds Theta(edge_budget) = O~(n) edges.
//
// Streaming realization (Algorithm 2, recast as max-hash eviction —
// DESIGN.md §5.1): we retain the elements with the smallest hashes whose
// capped edges fit the budget. On every arriving edge we (1) drop it if its
// element hash is above the running cutoff (the element was evicted before),
// (2) otherwise append it subject to the degree cap, and (3) evict the
// retained element with the maximum hash while over budget. Eviction is
// final: once the prefix below some hash exceeds the budget it exceeds it
// forever, so the final state equals the offline H'_{p*} (Algorithm 1) with
// p* = the largest hash prefix whose capped edges fit the budget.
//
// Update cost is O(1) amortized, evictions included: the eviction queue is
// a monotone bucket queue, so a pop costs amortized O(1) where a binary
// heap paid O(log R) (R = retained elements) — the O~(1) update time
// claimed in Section 3.
//
// Storage and eviction live in the shared flat substrate (MinHashCore,
// DESIGN.md §5.6); this class is the unweighted policy over it: the
// admission key is the raw 64-bit element hash.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/params.hpp"
#include "graph/coverage_instance.hpp"
#include "hash/hash64.hpp"
#include "sketch/substrate/minhash_core.hpp"
#include "stream/edge_stream.hpp"
#include "util/bitvec.hpp"
#include "util/common.hpp"

namespace covstream {

/// Solver-friendly snapshot of a finished sketch: a CSR from sets to retained
/// element slots, plus the realized threshold p*.
struct SketchView {
  SetId num_sets = 0;
  std::size_t num_retained = 0;          // elements kept by the sketch
  std::vector<std::size_t> set_offsets;  // num_sets + 1
  std::vector<std::uint32_t> set_slots;  // retained-element slot per edge
  double p_star = 1.0;                   // realized sampling threshold

  std::size_t num_edges() const { return set_slots.size(); }

  std::span<const std::uint32_t> slots_of(SetId set) const {
    COVSTREAM_CHECK(set < num_sets);
    return {set_slots.data() + set_offsets[set],
            set_offsets[set + 1] - set_offsets[set]};
  }

  /// |Gamma(sketch, family)|: retained elements touched by the family.
  std::size_t neighborhood_size(std::span<const SetId> family) const;

  /// Coverage estimate |Gamma(sketch, family)| / p* (Lemma 2.2 form); equal,
  /// bit for bit, to SubsampleSketch::estimate_coverage on the viewed sketch.
  double estimate_coverage(std::span<const SetId> family) const;

  /// Footprint in 8-byte words (DESIGN.md §5.2): the offsets plus the
  /// packed slot column.
  std::size_t space_words() const;
};

class SubsampleSketch {
 public:
  explicit SubsampleSketch(SketchParams params);

  /// Streaming update with one edge (O~(1)).
  void update(const Edge& edge);

  /// Chunk-vectorized update: hashes the whole chunk into a reusable key
  /// scratch, then drives the substrate's batched admission (cutoff
  /// pre-filter, survivor compaction, table prefetch — DESIGN.md §5.8).
  /// Bit-for-bit equal to calling update() per edge, in order.
  void update_chunk(std::span<const Edge> edges);

  /// Same, but with the element/key spans already computed by the caller
  /// (the ladder hashes once per chunk and shares the spans across rungs).
  /// `elems[i]`/`keys[i]` must be edges[i].elem and its hash under this
  /// sketch's seed; the ladder guarantees this by only sharing across rungs
  /// with equal hash_seed.
  void update_chunk_with_keys(std::span<const Edge> edges,
                              std::span<const ElemId> elems,
                              std::span<const std::uint64_t> keys);

  /// Same, but over a pre-compacted candidate index list (the ladder
  /// pre-filters each chunk ONCE against the max admission cutoff across
  /// rungs; every candidate is still re-checked against THIS sketch's live
  /// cutoff, so over-approximate candidate lists are always safe).
  void update_candidates_with_keys(std::span<const Edge> edges,
                                   std::span<const ElemId> elems,
                                   std::span<const std::uint64_t> keys,
                                   std::span<const std::uint32_t> candidates);

  /// Raw 64-bit admission cutoff (2^64-1 until the first eviction). Edges
  /// whose element hash is at or above it are dropped; the ladder uses the
  /// max across rungs to pre-filter shared chunks once.
  std::uint64_t admission_cutoff() const { return core_.cutoff(); }

  /// Convenience: runs one full pass of `stream` through update_chunk(),
  /// pulled in engine-sized batches. `batch_edges` = 0 picks the engine
  /// default.
  void consume(EdgeStream& stream, std::size_t batch_edges = 0);

  /// Algorithm 1: offline construction (hash-sort elements, take the maximal
  /// prefix fitting the budget). Used by tests to validate the streaming
  /// path: both construct the same object for the same params/seed.
  static SubsampleSketch build_offline(const CoverageInstance& instance,
                                       SketchParams params);

  const SketchParams& params() const { return params_; }

  std::size_t retained_elements() const { return core_.live_elements(); }
  std::size_t stored_edges() const { return core_.stored_edges(); }

  /// Realized threshold p*: the largest retained unit hash (1.0 while nothing
  /// has been evicted — then the sketch is the whole capped graph H'_1).
  double p_star() const;

  /// True if any element was ever evicted (i.e. p* < 1 meaningfully).
  bool saturated() const { return core_.saturated(); }

  /// Ascending set ids stored for a retained element (empty if the element
  /// is not retained), decoded from whichever form the list is in. Mainly
  /// for tests.
  std::vector<SetId> sets_of(ElemId elem) const;

  bool is_retained(ElemId elem) const;

  /// Removes retained elements matching `pred` (with their edges); slot and
  /// arena storage goes back on the substrate free lists. The result is
  /// still a valid hash-prefix sketch of the surviving subgraph (used by
  /// Algorithm 6's merged marking pass to drop just-covered elements at end
  /// of pass). Templated so the per-slot predicate call inlines.
  template <typename Pred>
  void purge(Pred&& pred) {
    core_.purge(std::forward<Pred>(pred));
  }

  /// Calls `fn(key, stored_edges)` for every retained element, in no
  /// particular order: its raw admission key (the element hash) and how
  /// many edges it stores.
  template <typename Fn>
  void for_each_retained(Fn&& fn) const {
    core_.for_each_live(std::forward<Fn>(fn));
  }

  /// Lowers the admission cutoff to `cutoff` and evicts every retained
  /// element whose key is at or above it (a no-op when the cutoff is already
  /// that low). The sharded builder's shared bound (DESIGN.md §5.14): exact
  /// only when the caller knows no key at or above `cutoff` can be in the
  /// final sketch, as a merge does for the other side's cutoff.
  void lower_admission_cutoff(std::uint64_t cutoff) {
    if (cutoff >= core_.cutoff()) return;
    core_.lower_cutoff(cutoff);
    core_.purge_at_or_above_cutoff();
  }

  /// Union-merges `other` into *this (both must share params and hash
  /// seed). If the two sketches were built over two
  /// partitions of a stream, the merge result equals the sketch of the whole
  /// stream: the paper's companion distributed application — shards are
  /// mergeable because the retained set is a min-hash prefix, and any
  /// element evicted by either shard is provably outside the combined
  /// prefix. See core/distributed.hpp for the shard driver.
  void merge_from(const SubsampleSketch& other);

  /// Builds the solver view (CSR set -> retained slots).
  SketchView view() const;

  /// Coverage estimate without materializing a view (linear scan; fine for
  /// tests and small families).
  double estimate_coverage(std::span<const SetId> family) const;

  /// Analytic space in 8-byte words (DESIGN.md §5.2): the substrate's flat
  /// table + slot arrays + key store + edge slab, measured, not modeled. This is
  /// the audit re-sum; the substrate maintains the same value incrementally
  /// (tracked_space_words), which is what peak tracking reads.
  std::size_t space_words() const { return kBaseSpaceWords + core_.space_words(); }

  /// Peak space over the run (eviction shrinks the sketch; peak is what a
  /// space bound must pay for). Maintained by the substrate from counter
  /// deltas at every mutation — no per-edge re-sum (DESIGN.md §5.8).
  std::size_t peak_space_words() const { return core_.peak_space_words(); }

  // ----------------------------------------------------------- persistence --
  /// Snapshot object tag (docs/FORMATS.md §2); save/load via the
  /// save_snapshot()/load_snapshot() helpers of substrate/snapshot.hpp.
  static constexpr SnapshotType kSnapshotType = SnapshotType::kSubsampleSketch;

  /// Serializes params + the full substrate state (DESIGN.md §5.9). The
  /// loaded twin answers every query — view(), p*, estimates, space — bit
  /// for bit, and continues ingesting identically (cutoff, keys, and free
  /// lists are all part of the image).
  void save(SnapshotWriter& writer) const;

  /// Restores a save()d sketch; nullopt (reader error set) on any frame or
  /// invariant failure — never a partially-initialized sketch.
  static std::optional<SubsampleSketch> load_snapshot(SnapshotReader& reader);

 private:
  /// Shared tail of every update path: append the admitted edge's set to
  /// its slot and keep the budget enforced. All three admission shapes
  /// (per-edge, batched, candidate list) must run exactly this.
  void absorb_admitted(std::uint32_t slot, SetId set) {
    if (core_.add_edge(slot, set)) {
      core_.enforce_budget();
    }
  }

  /// Fixed sketch-header overhead counted on top of the substrate.
  static constexpr std::size_t kBaseSpaceWords = 8;

  SketchParams params_;
  Mix64Hash hash_;
  std::size_t degree_cap_ = 0;
  std::size_t edge_budget_ = 0;

  MinHashCore<std::uint64_t> core_;
  // Reusable per-chunk scratch for update_chunk (elem ids + hashed keys).
  std::vector<ElemId> elem_scratch_;
  std::vector<std::uint64_t> key_scratch_;
};

}  // namespace covstream
