// The shared min-hash sketch substrate (DESIGN.md §5.6).
//
// One flat-storage engine implements the streaming realization of the
// paper's H<=n sketch (Algorithm 2 recast as max-key eviction, §5.1): admit
// an edge if its element's key is below the running cutoff, cap per-element
// degree, and evict the max-key element while over the edge budget. Eviction
// is final, so the retained set is always the maximal key prefix that fits —
// which is exactly what makes shards mergeable and the streamed sketch equal
// to the offline Algorithm 1 construction.
//
// The substrate is a policy-free template over the admission key:
//   * SubsampleSketch         — Key = std::uint64_t raw element hash;
//   * WeightedSubsampleSketch — Key = double exponential clock -ln(u)/w.
// Both sketches are thin wrappers that translate edges into (elem, key)
// pairs; all storage, eviction, purge, and merge logic lives here, once.
//
// Storage (all SoA, no per-element allocation):
//   * FlatElemTable — open-addressing elem -> slot index;
//   * elem_/span_ — parallel slot arrays, free-list slot reuse;
//   * EdgeArena — one uint32 slab holding every edge list;
//   * keys — a BucketQueue of (key, slot) entries, one per live slot from
//     its admission, and one liveness bit per slot.
//
// Hot paths come in two shapes (DESIGN.md §5.8): the per-edge admit() and
// the chunk-vectorized admit_batch(), which pre-filters a whole chunk
// against the cutoff (after saturation almost every edge dies on this one
// compare), compacts survivors, and then runs the same serial
// insert/evict loop behind an advisory three-stage prefetch pipeline
// (table bucket, slot record, slab word) — bit-for-bit equal to per-edge
// admission by construction. Eviction pops the queue's sorted open bucket
// and prefetches the records of the victims after it.
//
// Space accounting is incremental: space_words() is the O(1) audit re-sum
// of the component footprints, while tracked_space_words() is a running
// counter updated from deltas at every mutation site (slot commit, arena
// or table growth, eviction). The peak rides on the counter, so neither
// the per-edge nor the batched path pays a per-edge re-sum; the batch
// equivalence tests assert counter == audit throughout.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "hash/simd/kernels.hpp"
#include "sketch/substrate/edge_arena.hpp"
#include "sketch/substrate/bucket_queue.hpp"
#include "sketch/substrate/flat_table.hpp"
#include "util/common.hpp"
#include "util/space_meter.hpp"

namespace covstream {

template <typename Key>
class MinHashCore {
 public:
  static constexpr std::uint32_t kNoSlot = FlatElemTable::kNoSlot;

  /// Cap on the constructor's table pre-size, in elements: its own
  /// constant, an eighth of StreamEngine::kDefaultBatchEdges (1 << 15). It
  /// skips a fresh table's small rehash doublings; past it the table grows
  /// organically.
  static constexpr std::size_t kTablePresizeElems = 4096;

  /// Tracked footprint, in words, from which admission also looks ahead at
  /// slot records and slab words (admit_pipelined's second and third
  /// stages): 4 MB, twice the per-core L2 of the host it was tuned on.
  /// Below it the table, slot arrays and slab stay cache-resident and the
  /// lookahead's extra probe per edge is pure cost; above it the lookahead
  /// hides a dependent miss per edge.
  static constexpr std::size_t kLookaheadWords = std::size_t{1} << 19;

  /// `num_sets` bounds every stored set id (it sizes the arena's bitmap
  /// form). `base_space_words` is the owning policy's fixed overhead
  /// (header fields); it seeds the tracked counter so sketch-level space is
  /// a single member read.
  MinHashCore(SetId num_sets, std::size_t degree_cap, std::size_t edge_budget,
              Key infinite_key, std::size_t base_space_words = 0)
      : degree_cap_(degree_cap),
        edge_budget_(edge_budget),
        infinite_key_(infinite_key),
        cutoff_(infinite_key),
        arena_(num_sets),
        base_space_words_(base_space_words) {
    // Pre-size the element index for the expected population, capped at
    // kTablePresizeElems, so a sketch that will hold thousands of elements
    // skips the chain of small rehash doublings — the dominant cost of a
    // fresh table's insert phase — while a tiny-budget sketch stays tiny
    // and a huge-budget sketch never pre-pays for elements it may never
    // see. Done in the constructor so every feed shape (per-edge, chunked,
    // candidate list) starts from the same geometry and their results stay
    // bit-for-bit identical.
    const std::size_t presize =
        std::min<std::size_t>(edge_budget_, kTablePresizeElems);
    table_.reserve(presize);
    // Capacity-only reserves for the per-slot arrays: their footprint is
    // metered analytically by SIZE (commit_slot's +4 words), so spare
    // capacity is invisible to the space meter — this only removes the
    // push_back reallocation copies from the insert phase.
    elem_.reserve(presize);
    span_.reserve(presize);
    tracked_space_words_ = base_space_words + table_.space_words();
    // Peak must start at the current footprint, not zero: a never-updated
    // sketch would otherwise report peak < tracked, and its snapshot would
    // fail the loader's counter audit (the fleet spills empty tenants).
    peak_space_words_ = tracked_space_words_;
  }

  // ------------------------------------------------------------ hot path --
  /// Admits `elem` with admission key `key`: returns its slot (creating one
  /// if needed, `created` reports which), or kNoSlot if the key is at or
  /// above the cutoff — the element was evicted before, or would be evicted
  /// immediately.
  std::uint32_t admit(ElemId elem, Key key, bool& created) {
    return admit_hashed(elem, key, FlatElemTable::bucket_hash(elem), created);
  }

  /// admit() with the caller's precomputed table bucket hash — the dense
  /// batched sweep hashes whole chunks through the SIMD kernels instead of
  /// once per probe. Bit-for-bit identical to admit().
  std::uint32_t admit_hashed(ElemId elem, Key key, std::uint64_t bucket_hash,
                             bool& created) {
    if (key >= cutoff_) return kNoSlot;
    const std::size_t table_before = table_.space_words();
    const auto [slot, inserted] =
        table_.find_or_insert_hashed(elem, next_slot_id(), bucket_hash);
    created = inserted;
    if (inserted) {
      adjust_space(delta(table_before, table_.space_words()));
      commit_slot(slot, elem, key);
    }
    return slot;
  }

  /// Chunk-vectorized admission over parallel (elem, key) spans.
  ///
  /// Phase 1 sweeps the whole chunk against the chunk-entry cutoff with a
  /// branch-light compare-and-compact (the cutoff is non-increasing during a
  /// pass, so an edge at or above the entry cutoff is rejected by the live
  /// cutoff too — after saturation this one compare kills almost every
  /// edge). Phase 2 walks the survivors through admit_pipelined(), which
  /// re-checks the *live* cutoff (evictions may lower it mid-chunk) and
  /// admits exactly as admit() would. `set_of(index)` names the set edge
  /// `index` will add (a prefetch hint only); `on_admit(index, slot,
  /// created)` fires per admitted edge, in chunk order, so the caller adds
  /// the edge and enforces the budget there — making the whole batch
  /// bit-for-bit equal to per-edge updates.
  template <typename SetOf, typename OnAdmit>
  void admit_batch(std::span<const ElemId> elems, std::span<const Key> keys,
                   SetOf&& set_of, OnAdmit&& on_admit) {
    COVSTREAM_CHECK(elems.size() == keys.size());
    const std::size_t n = keys.size();
    // Dense regime (unsaturated: the cutoff is infinite, everything
    // survives): compaction would only add indirection, so the pipeline
    // sweeps the chunk itself. Every admission probes the flat table at a
    // hash-random bucket, so the bucket hashes for the whole chunk are
    // computed up front with one SIMD sweep (mix64 with salt 0 IS
    // FlatElemTable::bucket_hash). If the sketch saturates mid-chunk the
    // live cutoff check inside the loop still rejects exactly.
    if (!saturated()) {
      if (bucket_hashes_.size() < n) bucket_hashes_.resize(n);
      simd::kernels().mix64_batch(elems.data(), bucket_hashes_.data(), n, 0);
      admit_pipelined(
          n, [](std::size_t s) { return s; }, elems, keys,
          std::forward<SetOf>(set_of), std::forward<OnAdmit>(on_admit));
      return;
    }
    // Sparse regime (saturated: almost every edge dies on the cutoff
    // compare): first a branch-free survivor count — the common
    // all-rejected chunk finishes right there — then compact survivor
    // indices against the chunk-entry cutoff (non-increasing during the
    // pass, so entry-cutoff rejection is exact) and admit them. uint64
    // keys run both sweeps through the dispatched SIMD kernels
    // (hash/simd/kernels.hpp, DESIGN.md §5.11); the scalar tier is
    // bit-for-bit the generic loops below.
    if (count_below(keys, cutoff_) == 0) return;
    if (survivors_.size() < n) survivors_.resize(n);
    const Key entry_cutoff = cutoff_;
    std::size_t kept = 0;
    if constexpr (std::is_same_v<Key, std::uint64_t>) {
      kept = simd::kernels().compact_below_u64(keys.data(), n, entry_cutoff,
                                               survivors_.data());
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        if (keys[i] < entry_cutoff) {
          survivors_[kept++] = static_cast<std::uint32_t>(i);
        }
      }
    }
    admit_selected(elems, keys,
                   std::span<const std::uint32_t>(survivors_.data(), kept),
                   std::forward<SetOf>(set_of), std::forward<OnAdmit>(on_admit));
  }

  /// Counts keys strictly below `bound` — the chunk pre-filter's fast
  /// "anything to do?" reduction. uint64 keys dispatch to the SIMD kernel
  /// layer (AVX2 compare+movemask when available); other key types (the
  /// weighted sketch's double clocks) keep the four-accumulator scalar
  /// sweep that breaks the loop-carried dependency.
  static std::size_t count_below(std::span<const Key> keys, Key bound) {
    if constexpr (std::is_same_v<Key, std::uint64_t>) {
      return simd::kernels().count_below_u64(keys.data(), keys.size(), bound);
    } else {
      std::size_t h0 = 0, h1 = 0, h2 = 0, h3 = 0;
      const std::size_t n = keys.size();
      std::size_t i = 0;
      for (; i + 4 <= n; i += 4) {
        h0 += static_cast<std::size_t>(keys[i] < bound);
        h1 += static_cast<std::size_t>(keys[i + 1] < bound);
        h2 += static_cast<std::size_t>(keys[i + 2] < bound);
        h3 += static_cast<std::size_t>(keys[i + 3] < bound);
      }
      for (; i < n; ++i) h0 += static_cast<std::size_t>(keys[i] < bound);
      return h0 + h1 + h2 + h3;
    }
  }

  /// Admits an externally compacted candidate list (chunk indices into the
  /// parallel spans) through admit_pipelined(), re-checking the LIVE cutoff
  /// per candidate — evictions may lower it between candidates. The ladder
  /// builds ONE candidate list per chunk against the max cutoff across rungs
  /// and feeds it to every rung (DESIGN.md §5.8): exact, because a key at or
  /// above the max is at or above every rung's cutoff.
  template <typename SetOf, typename OnAdmit>
  void admit_selected(std::span<const ElemId> elems, std::span<const Key> keys,
                      std::span<const std::uint32_t> candidates,
                      SetOf&& set_of, OnAdmit&& on_admit) {
    const std::size_t kept = candidates.size();
    if (bucket_hashes_.size() < kept) bucket_hashes_.resize(kept);
    for (std::size_t s = 0; s < kept; ++s) {
      bucket_hashes_[s] = FlatElemTable::bucket_hash(elems[candidates[s]]);
    }
    admit_pipelined(
        kept, [candidates](std::size_t s) { return std::size_t{candidates[s]}; },
        elems, keys, std::forward<SetOf>(set_of),
        std::forward<OnAdmit>(on_admit));
  }

  /// Adds `set` to the slot's edge list, honoring the degree cap; a set the
  /// list already holds is a no-op. Returns whether an edge was stored; the
  /// caller should then enforce_budget().
  bool add_edge(std::uint32_t slot, SetId set) {
    EdgeArena::Span& span = span_[slot];
    if (span.size >= degree_cap_) return false;
    const std::size_t slab_before = arena_.space_words();
    if (!arena_.insert(span, set)) return false;
    adjust_space(delta(slab_before, arena_.space_words()));
    ++stored_edges_;
    return true;
  }

  /// Evicts max-key elements while over budget (never below one element:
  /// a single element's capped degree may alone exceed the budget).
  void enforce_budget() {
    while (stored_edges_ > edge_budget_ && queue_.size() > 1) evict_max();
  }

  // ---------------------------------------------------- bulk construction --
  /// Unconditionally creates a live slot (offline builder / merge path).
  std::uint32_t create_slot(ElemId elem, Key key) {
    const std::uint32_t slot = next_slot_id();
    const std::size_t table_before = table_.space_words();
    table_.insert(elem, slot);
    adjust_space(delta(table_before, table_.space_words()));
    commit_slot(slot, elem, key);
    return slot;
  }

  /// Replaces a slot's edge list wholesale with `sets`, strictly ascending
  /// (the degree cap must already be applied).
  void assign_edges(std::uint32_t slot, std::span<const SetId> sets) {
    COVSTREAM_CHECK(sets.size() <= degree_cap_);
    stored_edges_ -= span_[slot].size;
    const std::size_t slab_before = arena_.space_words();
    arena_.assign(span_[slot], sets);
    adjust_space(delta(slab_before, arena_.space_words()));
    stored_edges_ += sets.size();
  }

  void set_cutoff(Key cutoff) { cutoff_ = cutoff; }
  void lower_cutoff(Key cutoff) { cutoff_ = std::min(cutoff_, cutoff); }

  // --------------------------------------------------------------- queries --
  bool saturated() const { return cutoff_ != infinite_key_; }
  Key cutoff() const { return cutoff_; }

  /// Largest retained key; requires a nonempty sketch. The queue answers
  /// from its open bucket, or else a scan of its highest non-empty bucket —
  /// all of it before the first eviction (queried once per view/estimate,
  /// never per edge).
  Key max_live_key() const { return queue_.max_key(); }

  std::size_t live_elements() const { return elem_.size() - free_slots_.size(); }
  std::size_t stored_edges() const { return stored_edges_; }

  std::uint32_t find(ElemId elem) const { return table_.find(elem); }

  /// Upper bound (exclusive) on slot indices; iterate with alive().
  std::uint32_t slot_count() const {
    return static_cast<std::uint32_t>(elem_.size());
  }

  /// Liveness: the slot's bit.
  bool alive(std::uint32_t slot) const {
    return slot < elem_.size() && ((live_[slot >> 6] >> (slot & 63)) & 1u);
  }

  /// Calls `fn(set)` on the slot's stored sets, in ascending order.
  template <typename Fn>
  void for_each_edge(std::uint32_t slot, Fn&& fn) const {
    arena_.for_each(span_[slot], std::forward<Fn>(fn));
  }

  /// Whether `pred(set)` holds for some stored set of the slot (ascending
  /// visit, stopping at the first hit).
  template <typename Pred>
  bool any_edge(std::uint32_t slot, Pred&& pred) const {
    return arena_.any_of(span_[slot], std::forward<Pred>(pred));
  }

  /// Calls `fn(key, stored_edges)` once per live slot, in no particular
  /// order — a read-only scan of the queue's entries (the sharded builder
  /// histograms shard keys with it).
  template <typename Fn>
  void for_each_live(Fn&& fn) const {
    queue_.for_each([&](const auto& entry) {
      fn(entry.key, std::size_t{span_[entry.slot].size});
    });
  }

  /// Builds the solver CSR (set -> compact live-slot index) shared by both
  /// sketch views: compacts live slots into [0, num_retained), histograms
  /// per-set degrees, prefix-sums offsets, and fills the slot column.
  /// `on_live(slot)` fires once per live slot in compaction order so the
  /// caller can emit per-slot policy values (HT weights, etc.). Returns the
  /// number of retained elements. Reuses the core's CSR scratch buffers, so
  /// concurrent build_csr calls on the SAME core are not allowed (distinct
  /// cores — rungs, shards — remain independent as ever).
  template <typename OnLive>
  std::uint32_t build_csr(SetId num_sets, std::vector<std::size_t>& set_offsets,
                          std::vector<std::uint32_t>& set_slots,
                          OnLive&& on_live) const {
    set_offsets.assign(num_sets + 1, 0);
    csr_compact_.assign(slot_count(), 0);
    std::uint32_t next = 0;
    for_each_live_slot([&](std::uint32_t slot) {
      csr_compact_[slot] = next++;
      on_live(slot);
    });
    for_each_live_slot([&](std::uint32_t slot) {
      for_each_edge(slot, [&](SetId set) { ++set_offsets[set + 1]; });
    });
    for (SetId s = 0; s < num_sets; ++s) set_offsets[s + 1] += set_offsets[s];
    set_slots.resize(stored_edges_);
    csr_cursor_.assign(set_offsets.begin(), set_offsets.end() - 1);
    for_each_live_slot([&](std::uint32_t slot) {
      const std::uint32_t compact = csr_compact_[slot];
      for_each_edge(slot, [&](SetId set) {
        set_slots[csr_cursor_[set]++] = compact;
      });
    });
    return next;
  }

  // ------------------------------------------------------- reorganization --
  /// Removes live slots whose element matches `pred`. The result is still a
  /// valid key-prefix sketch of the surviving subgraph (the cutoff is
  /// untouched, so purged elements may be re-admitted later). The predicate
  /// is a template parameter so Algorithm 6's once-per-slot residual checks
  /// inline. The purged slots' bits are cleared first and the queue is
  /// laid out once at the end, without them.
  template <typename Pred>
  void purge(Pred&& pred) {
    bool purged = false;
    for (std::uint32_t slot = 0; slot < slot_count(); ++slot) {
      if (alive(slot) && pred(elem_[slot])) {
        release_slot(slot);
        purged = true;
      }
    }
    if (purged) {
      queue_.retain([this](std::uint32_t slot) { return alive(slot); });
    }
  }

  /// Drops every live slot whose key reached the cutoff (merge housekeeping
  /// and the sharded builder's shared bound): evict_max's pop loop, victim
  /// lookahead included, so victims go in descending (key, slot) order.
  void purge_at_or_above_cutoff() {
    while (!queue_.empty() && queue_.top().key >= cutoff_) evict_max();
  }

  /// Union-merge of two prefix sketches sharing set universe, key function,
  /// cap, and budget. An element evicted by either side is outside the
  /// combined prefix (its key prefix already overflowed the budget with one
  /// side's edges alone), hence the mutual cutoff purge. The caller enforces
  /// the budget afterwards.
  ///
  /// An element new to *this takes the other side's list as one block copy,
  /// whatever its form — the only case hash-routed shards produce, since an
  /// element never splits across them. An element both sides hold gets the
  /// sorted union of both lists, cut to the degree cap's smallest sets.
  ///
  /// `adopt(my_slot, their_slot)` fires for every slot newly created from
  /// `other`, so wrappers that keep per-slot side tables (the weighted
  /// sketch's weight array) can mirror them without re-deriving which slots
  /// the merge minted.
  template <typename AdoptSlot>
  void merge_from(const MinHashCore& other, AdoptSlot&& adopt) {
    lower_cutoff(other.cutoff_);
    purge_at_or_above_cutoff();
    const std::vector<Key> their_keys = other.keys_by_slot();
    for (std::uint32_t theirs = 0; theirs < other.slot_count(); ++theirs) {
      // Dead slots hold infinite_key_, which is never below the cutoff.
      if (their_keys[theirs] >= cutoff_) continue;
      const std::uint32_t mine = table_.find(other.elem_[theirs]);
      if (mine == kNoSlot) {
        const std::uint32_t slot =
            create_slot(other.elem_[theirs], their_keys[theirs]);
        const std::size_t slab_before = arena_.space_words();
        arena_.copy(span_[slot], other.arena_, other.span_[theirs]);
        adjust_space(delta(slab_before, arena_.space_words()));
        stored_edges_ += span_[slot].size;
        adopt(slot, theirs);
      } else {
        // merge_scratch_ doubles as the required non-aliasing staging buffer
        // (EdgeArena::assign may reallocate the slab mid-copy) and as the
        // reusable allocation across slots and merge calls.
        const auto stage = [this](SetId set) { merge_scratch_.push_back(set); };
        merge_scratch_.clear();
        for_each_edge(mine, stage);
        const auto mine_size =
            static_cast<std::ptrdiff_t>(merge_scratch_.size());
        other.for_each_edge(theirs, stage);
        std::inplace_merge(merge_scratch_.begin(),
                           merge_scratch_.begin() + mine_size,
                           merge_scratch_.end());
        merge_scratch_.erase(
            std::unique(merge_scratch_.begin(), merge_scratch_.end()),
            merge_scratch_.end());
        if (merge_scratch_.size() > degree_cap_) {
          merge_scratch_.resize(degree_cap_);
        }
        assign_edges(mine, merge_scratch_);
      }
    }
  }

  /// Hook-free overload (plain sketches with no per-slot side tables).
  void merge_from(const MinHashCore& other) {
    merge_from(other, [](std::uint32_t, std::uint32_t) {});
  }

  // ------------------------------------------------------ space accounting --
  /// The audit formula in one place, callable on loose components so the
  /// snapshot loader re-sums candidate state with exactly the live formula
  /// (a drift between the two would reject every valid snapshot).
  static std::size_t audit_space_words(const FlatElemTable& table,
                                       std::size_t slots,
                                       std::size_t key_store_words,
                                       const EdgeArena& arena,
                                       std::size_t free_count) {
    return table.space_words() + slots  // element ids
           + (slots * sizeof(EdgeArena::Span) + 7) / 8 + key_store_words +
           arena.space_words() + words_for_u32(free_count);
  }

  /// The key store's metered words: two per queued (key, slot) entry plus
  /// one liveness bit per slot. Bucket heads and chunk slack are unmetered,
  /// like vector capacity, so the meter does not depend on the queue's
  /// layout.
  static std::size_t key_store_words(std::size_t slots, std::size_t live) {
    return 2 * live + words_for_bits(slots);
  }

  /// Analytic space in 8-byte words (DESIGN.md §5.2): actual footprint of
  /// the table buckets, slot arrays, key store (queue entries and liveness
  /// bits), and edge slab. This is the audit re-sum; the hot paths read
  /// tracked_space_words().
  std::size_t space_words() const {
    return audit_space_words(table_, elem_.size(),
                             2 * queue_.size() + live_.size(), arena_,
                             free_slots_.size());
  }

  /// Incrementally tracked footprint: base + policy extras + space_words(),
  /// maintained from deltas at every mutation site (never a re-sum). The
  /// batch equivalence tests assert it equals the audit sum at all times.
  std::size_t tracked_space_words() const { return tracked_space_words_; }

  /// Peak of the tracked footprint over the run, including intra-update
  /// highs (the transient state after an edge lands but before the budget
  /// eviction runs — memory a space bound must really pay for).
  std::size_t peak_space_words() const { return peak_space_words_; }

  /// Folds a policy-side container's growth (e.g. the weighted sketch's
  /// per-slot weight array) into the tracked footprint. Growth only; policy
  /// containers in the substrate's sketches never shrink.
  void track_policy_space(std::size_t words_grown) {
    adjust_space(static_cast<std::ptrdiff_t>(words_grown));
  }

  /// Records the current footprint into the peak without mutating. Mutation
  /// sites maintain the peak themselves; this exists so a pass over a stream
  /// that admits nothing still observes its standing footprint, exactly like
  /// the historical after-every-update sampling did.
  void note_peak() {
    if (tracked_space_words_ > peak_space_words_) {
      peak_space_words_ = tracked_space_words_;
    }
  }

  // ----------------------------------------------------------- persistence --
  /// Serializes the complete core state — admission parameters, cutoff, slot
  /// arrays, free list, one key per slot (infinite_key_ for dead slots),
  /// table, and arena, plus the incremental space counters (docs/FORMATS.md
  /// §3 'CORE'). The key-store mode byte is always 1, the queue. The queue's
  /// layout and scratch buffers are not state and are not written.
  /// load(save(S)) answers every query (and tracked_space_words())
  /// bit-for-bit like S and continues ingesting identically.
  void save(SnapshotWriter& writer) const {
    writer.begin_section(snapshot_tag('C', 'O', 'R', 'E'));
    writer.u64(degree_cap_);
    writer.u64(edge_budget_);
    snapshot_write_key(writer, infinite_key_);
    snapshot_write_key(writer, cutoff_);
    writer.u8(1);
    writer.u64(stored_edges_);
    writer.u64(base_space_words_);
    writer.u64(tracked_space_words_);
    writer.u64(peak_space_words_);
    writer.u64_array(elem_);
    writer.u64(span_.size());
    for (const EdgeArena::Span& span : span_) {
      writer.u32(span.words[0]);
      writer.u32(span.words[1]);
      writer.u32(span.size);
      writer.u8(span.spilled);
      writer.u8(span.cap_log2);
    }
    writer.u32_array(free_slots_);
    const std::vector<Key> keys = keys_by_slot();
    writer.u64(keys.size());
    for (const Key key : keys) snapshot_write_key(writer, key);
    table_.save(writer);
    arena_.save(writer);
    writer.end_section();
  }

  /// Restores a save()d core, replacing this one. The admission parameters
  /// (degree cap, edge budget, infinite key) must match the constructed
  /// core's — the owning sketch constructs itself from its saved params
  /// first, so a mismatch means the snapshot pairs a core with the wrong
  /// policy. The keys are pushed on a fresh queue, which pops the saved
  /// queue's sequence (its order depends on the entries only). Mode byte 0
  /// is a never-evicted core from a build that kept a flat key store until
  /// the first eviction (docs/FORMATS.md §6): its counters are audited with
  /// that store's one word per slot, then re-metered as the queue.
  /// Cross-checks every structural invariant (key-store mode, array parity,
  /// span form, bounds and contents, liveness vs. free list, table
  /// membership, stored-edge total, tracked-vs-audit space) and fails the
  /// reader — returning false — on the first violation. Every stored list must be
  /// strictly ascending below the constructed set universe (the checksum is
  /// not cryptographic: an out-of-range id would index past solver-side
  /// arrays on the first query, and a repeated or unsorted one would break
  /// insert and merge). `policy_space_words` is what the owning sketch
  /// folded in via track_policy_space (e.g. the weighted sketch's weight
  /// array), needed to reconcile the tracked counter with the audit re-sum.
  bool load(SnapshotReader& reader, std::size_t policy_space_words = 0) {
    if (!reader.begin_section(snapshot_tag('C', 'O', 'R', 'E'))) return false;
    const std::uint64_t degree_cap = reader.u64();
    const std::uint64_t edge_budget = reader.u64();
    Key infinite_key{};
    snapshot_read_key(reader, infinite_key);
    if (!reader.ok()) return false;
    if (degree_cap != degree_cap_ || edge_budget != edge_budget_ ||
        infinite_key != infinite_key_) {
      return reader.fail("minhash core: admission parameters disagree with "
                         "the sketch's saved params");
    }
    Key cutoff{};
    snapshot_read_key(reader, cutoff);
    const std::uint8_t mode = reader.u8();
    if (reader.ok() && mode > 1) {
      return reader.fail("minhash core: key-store mode byte is neither 0 "
                         "(flat) nor 1 (queue)");
    }
    const std::uint64_t stored_edges = reader.u64();
    const std::uint64_t base_space = reader.u64();
    const std::uint64_t tracked_space = reader.u64();
    const std::uint64_t peak_space = reader.u64();
    std::vector<ElemId> elem;
    if (!reader.u64_array(elem, 1ull << 40)) return false;
    const std::uint64_t span_count = reader.u64();
    if (!reader.ok() || span_count != elem.size()) {
      return reader.fail("minhash core: span/elem array size mismatch");
    }
    std::vector<EdgeArena::Span> span(static_cast<std::size_t>(span_count));
    for (EdgeArena::Span& s : span) {
      s.words[0] = reader.u32();
      s.words[1] = reader.u32();
      s.size = reader.u32();
      s.spilled = reader.u8();
      s.cap_log2 = reader.u8();
    }
    std::vector<std::uint32_t> free_slots;
    if (!reader.u32_array(free_slots, elem.size())) return false;
    const std::uint64_t key_count = reader.u64();
    if (!reader.ok()) return false;
    if (key_count != elem.size()) {
      return reader.fail("minhash core: key store size differs from the "
                         "slot arrays");
    }
    std::vector<Key> keys(static_cast<std::size_t>(key_count));
    for (Key& key : keys) snapshot_read_key(reader, key);
    FlatElemTable table;
    EdgeArena arena(arena_.num_sets());
    // slab_claimed marks every slab word owned by a free block (filled by
    // the arena) or a live span (claimed below): double ownership means a
    // forged snapshot aliased two blocks, which a later insert would turn
    // into silent cross-slot corruption.
    std::vector<bool> slab_claimed;
    if (!table.load(reader) || !arena.load(reader, slab_claimed)) return false;
    // Structural cross-checks over the loaded pieces.
    std::uint64_t live = 0, edges = 0;
    std::vector<bool> is_free(elem.size(), false);
    for (const std::uint32_t slot : free_slots) {
      if (slot >= elem.size() || is_free[slot]) {
        return reader.fail("minhash core: free slot out of range or repeated");
      }
      is_free[slot] = true;
    }
    for (std::uint32_t slot = 0; slot < elem.size(); ++slot) {
      const bool alive = keys[slot] != infinite_key_;
      if (alive == is_free[slot]) {
        return reader.fail("minhash core: liveness disagrees with free list");
      }
      const EdgeArena::Span& s = span[slot];
      if (!alive) {
        if (s.size != 0 || s.spilled != EdgeArena::kInline) {
          return reader.fail("minhash core: dead slot still holds edges");
        }
        continue;
      }
      ++live;
      edges += s.size;
      // No retained key sits above the cutoff (admission requires strictly
      // below and the cutoff only falls; equality can linger when one of
      // two equal-key slots was evicted and the tie survivor stayed live).
      // Written negated so NaN keys or a NaN cutoff in a forged weighted
      // snapshot fail here instead of loading as silently-poisoned
      // estimates (every NaN comparison is false, so no ordering check
      // could catch them).
      if (!(keys[slot] <= cutoff)) {
        return reader.fail("minhash core: retained key above the cutoff");
      }
      if (s.size > degree_cap_) {
        return reader.fail("minhash core: span exceeds the degree cap");
      }
      if (!arena.check(s, slab_claimed, reader)) return false;
      if (table.find(elem[slot]) != slot) {
        return reader.fail("minhash core: table lookup disagrees with slot");
      }
    }
    if (edges != stored_edges || live + free_slots.size() != elem.size() ||
        table.size() != live) {
      return reader.fail("minhash core: edge/liveness totals inconsistent");
    }
    // The tracked counter must equal the audit re-sum of the loaded pieces —
    // the same invariant the batch equivalence tests fuzz at runtime — with
    // the key store metered as it was saved.
    const std::size_t key_words = key_store_words(elem.size(), live);
    const std::size_t saved_key_words = mode == 1 ? key_words : elem.size();
    const std::uint64_t audit = audit_space_words(
        table, elem.size(), saved_key_words, arena, free_slots.size());
    if (tracked_space != base_space + policy_space_words + audit ||
        peak_space < tracked_space) {
      return reader.fail("minhash core: space counters disagree with audit");
    }
    if (!reader.end_section()) return false;
    cutoff_ = cutoff;
    stored_edges_ = static_cast<std::size_t>(stored_edges);
    base_space_words_ = static_cast<std::size_t>(base_space);
    // Both counters include the saved key store (the audit passed), so the
    // re-meter cannot underflow; it is zero for mode 1.
    tracked_space_words_ =
        static_cast<std::size_t>(tracked_space) - saved_key_words + key_words;
    peak_space_words_ =
        static_cast<std::size_t>(peak_space) - saved_key_words + key_words;
    elem_ = std::move(elem);
    span_ = std::move(span);
    free_slots_ = std::move(free_slots);
    table_ = std::move(table);
    arena_ = std::move(arena);
    queue_ = BucketQueue<Key>();
    live_.assign(words_for_bits(elem_.size()), 0);
    for (std::uint32_t slot = 0; slot < elem_.size(); ++slot) {
      if (keys[slot] == infinite_key_) continue;
      set_live(slot);
      queue_.push(keys[slot], slot);
    }
    return true;
  }

 private:
  /// The admission loop both regimes share: positions s in [0, count), each
  /// the chunk index `index_at(s)` with bucket hash bucket_hashes_[s], run in
  /// order behind a three-stage prefetch pipeline —
  ///   * kBucketAhead positions ahead: the table bucket;
  ///   * kSlotAhead ahead: a read-only find, then the slot's Span record;
  ///   * kBlockAhead ahead: the slab word that slot's insert will touch,
  ///     or for an element not found, the queue chunk its commit will
  ///     write.
  /// The last two stages run once the footprint reaches kLookaheadWords.
  /// Every stage only hints the cache, and each admission still runs the
  /// full live-cutoff check and find-or-insert, so a slot that goes stale
  /// between the lookahead and the admission (evicted, or created after its
  /// find) wastes a hint and changes nothing that gets admitted.
  template <typename IndexAt, typename SetOf, typename OnAdmit>
  void admit_pipelined(std::size_t count, IndexAt&& index_at,
                       std::span<const ElemId> elems, std::span<const Key> keys,
                       SetOf&& set_of, OnAdmit&& on_admit) {
    constexpr std::size_t kBucketAhead = 16;
    constexpr std::size_t kSlotAhead = 8;
    constexpr std::size_t kBlockAhead = 4;
    // Slots found kSlotAhead ahead, consumed kBlockAhead ahead: position p
    // lives in ahead[p % kSlotAhead] for the steps in between.
    std::uint32_t ahead[kSlotAhead];
    std::fill(std::begin(ahead), std::end(ahead), kNoSlot);
    const bool look_ahead = tracked_space_words_ >= kLookaheadWords;
    for (std::size_t s = 0; s < count; ++s) {
      if (s + kBucketAhead < count) {
        table_.prefetch_hashed(bucket_hashes_[s + kBucketAhead]);
      }
      if (look_ahead && s + kSlotAhead < count) {
        const std::size_t at = s + kSlotAhead;
        const std::uint32_t slot =
            table_.find_hashed(elems[index_at(at)], bucket_hashes_[at]);
        ahead[at % kSlotAhead] = slot;
#if defined(__GNUC__) || defined(__clang__)
        if (slot != kNoSlot) __builtin_prefetch(span_.data() + slot);
#endif
      }
      if (look_ahead && s + kBlockAhead < count) {
        const std::size_t at = s + kBlockAhead;
        const std::uint32_t slot = ahead[at % kSlotAhead];
        if (slot != kNoSlot) {
          arena_.prefetch_insert(span_[slot], set_of(index_at(at)));
        } else {
          queue_.prefetch_push(keys[index_at(at)]);
        }
      }
      const std::size_t i = index_at(s);
      const Key key = keys[i];
      if (key >= cutoff_) continue;  // below another rung's cutoff, or an
                                     // eviction lowered ours mid-chunk
      bool created = false;
      const std::uint32_t slot =
          admit_hashed(elems[i], key, bucket_hashes_[s], created);
      on_admit(i, slot, created);
    }
  }

  static std::ptrdiff_t delta(std::size_t before, std::size_t after) {
    return static_cast<std::ptrdiff_t>(after) - static_cast<std::ptrdiff_t>(before);
  }

  void adjust_space(std::ptrdiff_t words) {
    tracked_space_words_ =
        static_cast<std::size_t>(static_cast<std::ptrdiff_t>(tracked_space_words_) + words);
    if (tracked_space_words_ > peak_space_words_) {
      peak_space_words_ = tracked_space_words_;
    }
  }

  /// The slot id the next creation will use (free list first, else append).
  std::uint32_t next_slot_id() const {
    return free_slots_.empty() ? static_cast<std::uint32_t>(elem_.size())
                               : free_slots_.back();
  }

  /// Claims next_slot_id() and makes it live for `elem`/`key`: sets its
  /// liveness bit and pushes (key, slot) on the queue. The table entry must
  /// already exist (find_or_insert or insert stored it).
  void commit_slot(std::uint32_t slot, ElemId elem, Key key) {
    std::ptrdiff_t grown = 2;  // the queue entry
    if (free_slots_.empty()) {
      // Hottest admission shape: +1 elem word, +2 span words (16-byte
      // Span), and a liveness word every 64 slots.
      elem_.push_back(elem);
      span_.emplace_back();
      grown += 3;
      if (live_.size() < words_for_bits(elem_.size())) {
        live_.push_back(0);
        ++grown;
      }
    } else {
      // Slot reuse: the free list shrinks (half-word granularity).
      const std::size_t free_before = words_for_u32(free_slots_.size());
      free_slots_.pop_back();
      elem_[slot] = elem;
      span_[slot] = EdgeArena::Span{};
      grown += delta(free_before, words_for_u32(free_slots_.size()));
    }
    set_live(slot);
    queue_.push(key, slot);
    adjust_space(grown);
  }

  /// Calls `fn(slot)` on every live slot in ascending order: a walk of the
  /// liveness words' set bits.
  template <typename Fn>
  void for_each_live_slot(Fn&& fn) const {
    for (std::size_t word = 0; word < live_.size(); ++word) {
      for (std::uint64_t bits = live_[word]; bits != 0; bits &= bits - 1) {
        fn(static_cast<std::uint32_t>(64 * word + std::countr_zero(bits)));
      }
    }
  }

  /// Keys by slot, infinite_key_ marking dead slots: the queue's entries
  /// scattered.
  std::vector<Key> keys_by_slot() const {
    std::vector<Key> keys(elem_.size(), infinite_key_);
    queue_.for_each([&keys](const auto& entry) { keys[entry.slot] = entry.key; });
    return keys;
  }

  void set_live(std::uint32_t slot) {
    live_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
  }

  void clear_live(std::uint32_t slot) {
    live_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
  }

  /// Pops the max-key element and releases it. Victim lookahead: the open
  /// bucket is sorted, so its tail names the next victims — prefetch the
  /// slot records (element id, Span) of the one kVictimRecordAhead pops
  /// away and the table bucket of the one kVictimTableAhead away, whose
  /// element id the earlier hint brought in. Hints only: a push that lands
  /// in the open bucket shifts them, and nothing else changes.
  void evict_max() {
    const auto [key, slot] = queue_.pop_max();
    const auto open = queue_.open();
    if (open.size() >= kVictimRecordAhead) {
      const std::uint32_t ahead = open[open.size() - kVictimRecordAhead].slot;
#if defined(__GNUC__) || defined(__clang__)
      __builtin_prefetch(elem_.data() + ahead);
      __builtin_prefetch(span_.data() + ahead);
#endif
    }
    if (open.size() >= kVictimTableAhead) {
      table_.prefetch(elem_[open[open.size() - kVictimTableAhead].slot]);
    }
    lower_cutoff(key);
    release_slot(slot);
  }

  /// Shared tail of eviction and purge: clears the slot's liveness bit and
  /// returns its storage to the free lists. The caller owns the slot's queue
  /// entry (evict_max popped it, purge(pred) drops it when it lays the queue
  /// out again), whose 2 words leave the meter here; the freed edge block
  /// stays in the slab and the free-slot list may round up half a word, so
  /// the net is applied as one delta (no transient peak).
  void release_slot(std::uint32_t slot) {
    clear_live(slot);
    const std::size_t free_before = words_for_u32(free_slots_.size());
    stored_edges_ -= span_[slot].size;
    table_.erase(elem_[slot]);
    arena_.release(span_[slot]);
    free_slots_.push_back(slot);
    adjust_space(delta(2 + free_before, words_for_u32(free_slots_.size())));
  }

  /// Victim lookahead distances, in pops (see evict_max).
  static constexpr std::size_t kVictimRecordAhead = 8;
  static constexpr std::size_t kVictimTableAhead = 4;

  std::size_t degree_cap_;
  std::size_t edge_budget_;
  Key infinite_key_;
  Key cutoff_;  // min key ever evicted; admit strictly below only

  FlatElemTable table_;
  EdgeArena arena_;
  BucketQueue<Key> queue_;           // one (key, slot) entry per live slot
  std::vector<std::uint64_t> live_;  // liveness bit per slot
  std::vector<ElemId> elem_;
  std::vector<EdgeArena::Span> span_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t stored_edges_ = 0;

  std::size_t base_space_words_ = 0;
  std::size_t tracked_space_words_ = 0;
  std::size_t peak_space_words_ = 0;

  // Reusable scratch (not part of the sketch's analytic footprint):
  // admit_batch survivor indices and per-position bucket hashes, merge_from
  // union staging, build_csr compaction map and per-set cursors.
  std::vector<std::uint32_t> survivors_;
  std::vector<std::uint64_t> bucket_hashes_;
  std::vector<SetId> merge_scratch_;
  mutable std::vector<std::uint32_t> csr_compact_;
  mutable std::vector<std::size_t> csr_cursor_;
};

}  // namespace covstream
