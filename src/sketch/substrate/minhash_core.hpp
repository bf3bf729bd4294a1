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
//   * elem_/key_/span_ — parallel slot arrays, free-list slot reuse;
//   * EdgeArena — one uint32 slab holding every edge list;
//   * SlotHeap — indexed max-heap; heap membership IS slot liveness.
//
// Hot paths come in two shapes (DESIGN.md §5.8): the per-edge admit() and
// the chunk-vectorized admit_batch(), which pre-filters a whole chunk
// against the cutoff (after saturation almost every edge dies on this one
// compare), compacts survivors, prefetches their table buckets, and then
// runs the same serial insert/append/evict loop — bit-for-bit equal to
// per-edge admission by construction.
//
// Space accounting is incremental: space_words() is the O(1) audit re-sum
// of the component footprints, while tracked_space_words() is a running
// counter updated from deltas at every mutation site (slot commit, arena
// or table growth, eviction). The peak rides on the counter, so neither
// the per-edge nor the batched path pays a per-edge re-sum; the batch
// equivalence tests assert counter == audit throughout.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "hash/simd/kernels.hpp"
#include "sketch/substrate/edge_arena.hpp"
#include "sketch/substrate/flat_table.hpp"
#include "sketch/substrate/slot_heap.hpp"
#include "util/common.hpp"
#include "util/space_meter.hpp"

namespace covstream {

template <typename Key>
class MinHashCore {
 public:
  static constexpr std::uint32_t kNoSlot = FlatElemTable::kNoSlot;

  /// Cap on the constructor's table pre-size, in elements — the admission
  /// chunk scale (StreamEngine::kDefaultBatchEdges, restated here because
  /// the substrate cannot include the engine): at most one chunk of new
  /// elements arrives between admission sweeps, so pre-sizing past this
  /// buys nothing the first chunk can't trigger organically.
  static constexpr std::size_t kTablePresizeElems = 4096;

  /// `base_space_words` is the owning policy's fixed overhead (header
  /// fields); it seeds the tracked counter so sketch-level space is a single
  /// member read.
  MinHashCore(std::size_t degree_cap, std::size_t edge_budget, Key infinite_key,
              std::size_t base_space_words = 0)
      : degree_cap_(degree_cap),
        edge_budget_(edge_budget),
        infinite_key_(infinite_key),
        cutoff_(infinite_key),
        base_space_words_(base_space_words) {
    // Pre-size the element index for the expected population, capped at one
    // admission chunk's worth of inserts (kDefaultBatchEdges-scale), so a
    // sketch that will hold thousands of elements skips the chain of small
    // rehash doublings — the dominant cost of a fresh table's insert phase
    // — while a tiny-budget sketch stays tiny and a huge-budget sketch
    // never pre-pays more than one chunk. Done in the constructor so every
    // feed shape (per-edge, chunked, candidate list) starts from the same
    // geometry and their results stay bit-for-bit identical.
    const std::size_t presize =
        std::min<std::size_t>(edge_budget_, kTablePresizeElems);
    table_.reserve(presize);
    // Capacity-only reserves for the per-slot arrays: their footprint is
    // metered analytically by SIZE (commit_slot's +4 words), so spare
    // capacity is invisible to the space meter — this only removes the
    // push_back reallocation copies from the insert phase.
    elem_.reserve(presize);
    span_.reserve(presize);
    key_slot_.reserve(presize);
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
  /// edge). Phase 2 walks the survivor list, prefetching each survivor's
  /// table buckets `kPrefetchAhead` ahead, re-checks the *live* cutoff
  /// (evictions may lower it mid-chunk), and admits exactly as admit()
  /// would. `on_admit(index, slot, created)` fires per admitted edge, in
  /// chunk order, so the caller appends the edge and enforces the budget
  /// there — making the whole batch bit-for-bit equal to per-edge updates.
  template <typename OnAdmit>
  void admit_batch(std::span<const ElemId> elems, std::span<const Key> keys,
                   OnAdmit&& on_admit) {
    COVSTREAM_CHECK(elems.size() == keys.size());
    const std::size_t n = keys.size();
    // Dense regime (unsaturated: the cutoff is infinite, everything
    // survives): compaction would only add indirection, so run the serial
    // admission sweep. Every admission probes the flat table at a
    // hash-random bucket, so the bucket hashes for the whole chunk are
    // computed up front with one SIMD sweep (mix64 with salt 0 IS
    // FlatElemTable::bucket_hash) and fed to both the prefetch — issued a
    // few edges ahead to hide the probe's dependent load — and the probe
    // itself, which then never re-derives a hash. If the sketch saturates
    // mid-chunk the live cutoff check inside the loop still rejects
    // exactly.
    if (!saturated()) {
      constexpr std::size_t kPrefetchAhead = 8;
      if (bucket_hashes_.size() < n) bucket_hashes_.resize(n);
      simd::kernels().mix64_batch(elems.data(), bucket_hashes_.data(), n, 0);
      for (std::size_t i = 0; i < n; ++i) {
        if (i + kPrefetchAhead < n) {
          table_.prefetch_hashed(bucket_hashes_[i + kPrefetchAhead]);
        }
        const Key key = keys[i];
        if (key >= cutoff_) continue;
        bool created = false;
        const std::uint32_t slot =
            admit_hashed(elems[i], key, bucket_hashes_[i], created);
        on_admit(i, slot, created);
      }
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
                   std::forward<OnAdmit>(on_admit));
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
  /// parallel spans), prefetching each candidate's table bucket ahead and
  /// re-checking the LIVE cutoff per candidate — evictions may lower it
  /// between candidates. The ladder builds ONE candidate list per chunk
  /// against the max cutoff across rungs and feeds it to every rung
  /// (DESIGN.md §5.8): exact, because a key at or above the max is at or
  /// above every rung's cutoff.
  template <typename OnAdmit>
  void admit_selected(std::span<const ElemId> elems, std::span<const Key> keys,
                      std::span<const std::uint32_t> candidates,
                      OnAdmit&& on_admit) {
    constexpr std::size_t kPrefetchAhead = 8;
    const std::size_t kept = candidates.size();
    for (std::size_t s = 0; s < kept; ++s) {
      if (s + kPrefetchAhead < kept) {
        table_.prefetch(elems[candidates[s + kPrefetchAhead]]);
      }
      const std::size_t i = candidates[s];
      const Key key = keys[i];
      if (key >= cutoff_) continue;  // below another rung's cutoff, or
                                     // an eviction lowered ours mid-chunk
      bool created = false;
      const std::uint32_t slot = admit(elems[i], key, created);
      on_admit(i, slot, created);
    }
  }

  /// Appends `set` to the slot's edge list, honoring the degree cap and
  /// (optionally) sorted-dedupe. Returns whether an edge was stored; the
  /// caller should then enforce_budget().
  bool add_edge(std::uint32_t slot, SetId set, bool dedupe) {
    EdgeArena::Span& span = span_[slot];
    if (span.size >= degree_cap_) return false;
    const std::size_t slab_before = arena_.space_words();
    if (dedupe) {
      if (!arena_.insert_sorted(span, set)) return false;
    } else {
      arena_.append(span, set);
    }
    adjust_space(delta(slab_before, arena_.space_words()));
    ++stored_edges_;
    return true;
  }

  /// Evicts max-key elements while over budget (never below one element:
  /// a single element's capped degree may alone exceed the budget). The
  /// first overflow materializes the eviction heap from the flat key store
  /// (DESIGN.md §5.8); before that point admission never pays a heap push.
  void enforce_budget() {
    if (stored_edges_ <= edge_budget_) return;
    ensure_heap();
    while (stored_edges_ > edge_budget_ && heap_.size() > 1) evict_max();
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

  /// Replaces a slot's edge list wholesale (caller supplies the required
  /// ordering; the degree cap must already be applied).
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

  /// Largest retained key; requires a nonempty sketch. Before the heap is
  /// materialized this is a linear scan of the flat key store (queried once
  /// per view/estimate, never per edge).
  Key max_live_key() const {
    if (heap_built_) return heap_.top().key;
    COVSTREAM_CHECK(live_elements() > 0);
    Key best{};
    bool any = false;
    for (const Key key : key_slot_) {
      if (key != infinite_key_ && (!any || key > best)) {
        best = key;
        any = true;
      }
    }
    return best;
  }

  std::size_t live_elements() const { return elem_.size() - free_slots_.size(); }
  std::size_t stored_edges() const { return stored_edges_; }

  std::uint32_t find(ElemId elem) const { return table_.find(elem); }

  /// Upper bound (exclusive) on slot indices; iterate with alive().
  std::uint32_t slot_count() const {
    return static_cast<std::uint32_t>(elem_.size());
  }

  bool alive(std::uint32_t slot) const {
    return heap_built_ ? heap_.contains(slot)
                       : slot < key_slot_.size() &&
                             key_slot_[slot] != infinite_key_;
  }

  /// Key of a live slot (flat key store until the first eviction, then the
  /// heap entries — a live key is always strictly below infinite_key_, so
  /// infinite_key_ doubles as the flat store's dead-slot marker).
  Key key_of(std::uint32_t slot) const {
    return heap_built_ ? heap_.key_of(slot) : key_slot_[slot];
  }

  std::span<const SetId> edges_of(std::uint32_t slot) const {
    return arena_.view(span_[slot]);
  }

  /// Calls `fn(key, stored_edges)` once per live slot, in slot order — a
  /// read-only scan (the sharded builder histograms shard keys with it).
  template <typename Fn>
  void for_each_live(Fn&& fn) const {
    for (std::uint32_t slot = 0; slot < slot_count(); ++slot) {
      if (alive(slot)) fn(key_of(slot), std::size_t{span_[slot].size});
    }
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
    const std::uint32_t count = slot_count();
    csr_compact_.assign(count, 0);
    std::uint32_t next = 0;
    for (std::uint32_t slot = 0; slot < count; ++slot) {
      if (!alive(slot)) continue;
      csr_compact_[slot] = next++;
      on_live(slot);
    }
    for (std::uint32_t slot = 0; slot < count; ++slot) {
      if (!alive(slot)) continue;
      for (const SetId set : edges_of(slot)) ++set_offsets[set + 1];
    }
    for (SetId s = 0; s < num_sets; ++s) set_offsets[s + 1] += set_offsets[s];
    set_slots.resize(stored_edges_);
    csr_cursor_.assign(set_offsets.begin(), set_offsets.end() - 1);
    for (std::uint32_t slot = 0; slot < count; ++slot) {
      if (!alive(slot)) continue;
      for (const SetId set : edges_of(slot)) {
        set_slots[csr_cursor_[set]++] = csr_compact_[slot];
      }
    }
    return next;
  }

  // ------------------------------------------------------- reorganization --
  /// Removes live slots whose element matches `pred`. The result is still a
  /// valid key-prefix sketch of the surviving subgraph (the cutoff is
  /// untouched, so purged elements may be re-admitted later). The predicate
  /// is a template parameter so Algorithm 6's once-per-slot residual checks
  /// inline instead of going through std::function's indirect call.
  template <typename Pred>
  void purge(Pred&& pred) {
    for (std::uint32_t slot = 0; slot < slot_count(); ++slot) {
      if (alive(slot) && pred(elem_[slot])) destroy_slot(slot);
    }
  }

  /// Thin type-erased overload for callers that already hold a
  /// std::function (keeps the pre-template signature working).
  void purge(const std::function<bool(ElemId)>& pred) {
    purge<const std::function<bool(ElemId)>&>(pred);
  }

  /// Drops every live slot whose key reached the cutoff (merge housekeeping).
  void purge_at_or_above_cutoff() {
    for (std::uint32_t slot = 0; slot < slot_count(); ++slot) {
      if (alive(slot) && key_of(slot) >= cutoff_) destroy_slot(slot);
    }
  }

  /// Union-merge of two prefix sketches sharing key function, cap, and
  /// budget, with sorted-deduped edge lists. An element evicted by either
  /// side is outside the combined prefix (its key prefix already overflowed
  /// the budget with one side's edges alone), hence the mutual cutoff purge.
  /// The caller enforces the budget afterwards.
  ///
  /// `adopt(my_slot, their_slot)` fires for every slot newly created from
  /// `other`, so wrappers that keep per-slot side tables (the weighted
  /// sketch's weight array) can mirror them without re-deriving which slots
  /// the merge minted.
  template <typename AdoptSlot>
  void merge_from(const MinHashCore& other, AdoptSlot&& adopt) {
    lower_cutoff(other.cutoff_);
    purge_at_or_above_cutoff();
    for (std::uint32_t theirs = 0; theirs < other.slot_count(); ++theirs) {
      if (!other.alive(theirs) || other.key_of(theirs) >= cutoff_) continue;
      const std::span<const SetId> incoming = other.edges_of(theirs);
      const std::uint32_t mine = table_.find(other.elem_[theirs]);
      if (mine == kNoSlot) {
        const std::uint32_t slot =
            create_slot(other.elem_[theirs], other.key_of(theirs));
        assign_edges(slot, incoming);
        adopt(slot, theirs);
      } else {
        // merge_scratch_ doubles as the required non-aliasing staging buffer
        // (EdgeArena::assign may reallocate the slab mid-copy) and as the
        // reusable allocation across slots and merge calls.
        const std::span<const SetId> existing = edges_of(mine);
        merge_scratch_.clear();
        merge_scratch_.reserve(existing.size() + incoming.size());
        std::set_union(existing.begin(), existing.end(), incoming.begin(),
                       incoming.end(), std::back_inserter(merge_scratch_));
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
                                       const SlotHeap<Key>& heap,
                                       std::size_t flat_key_words,
                                       const EdgeArena& arena,
                                       std::size_t free_count) {
    return table.space_words() + slots  // element ids
           + (slots * sizeof(EdgeArena::Span) + 7) / 8 + heap.space_words() +
           flat_key_words + arena.space_words() + words_for_u32(free_count);
  }

  /// Analytic space in 8-byte words (DESIGN.md §5.2): actual footprint of
  /// the table buckets, slot arrays, key store (flat array before the first
  /// eviction, heap entries after), and edge slab. This is the audit
  /// re-sum; the hot paths read tracked_space_words().
  std::size_t space_words() const {
    return audit_space_words(table_, elem_.size(), heap_, key_slot_.size(),
                             arena_, free_slots_.size());
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
  /// arrays, free list, flat key store or heap, table, and arena, plus the
  /// incremental space counters (docs/FORMATS.md §3 'CORE'). Scratch buffers
  /// are not state and are not written. load(save(S)) answers every query
  /// (and tracked_space_words()) bit-for-bit like S and continues ingesting
  /// identically.
  void save(SnapshotWriter& writer) const {
    writer.begin_section(snapshot_tag('C', 'O', 'R', 'E'));
    writer.u64(degree_cap_);
    writer.u64(edge_budget_);
    snapshot_write_key(writer, infinite_key_);
    snapshot_write_key(writer, cutoff_);
    writer.u8(heap_built_ ? 1 : 0);
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
    writer.u64(key_slot_.size());
    for (const Key key : key_slot_) snapshot_write_key(writer, key);
    table_.save(writer);
    arena_.save(writer);
    heap_.save(writer);
    writer.end_section();
  }

  /// Restores a save()d core, replacing this one. The admission parameters
  /// (degree cap, edge budget, infinite key) must match the constructed
  /// core's — the owning sketch constructs itself from its saved params
  /// first, so a mismatch means the snapshot pairs a core with the wrong
  /// policy. Cross-checks every structural invariant (array parity, span
  /// bounds, liveness vs. free list, table membership, stored-edge total,
  /// tracked-vs-audit space) and fails the reader — returning false — on the
  /// first violation. `set_bound` is the owning sketch's set universe size:
  /// every stored SetId must be strictly below it (the checksum is not
  /// cryptographic, and an out-of-range id would index past solver-side
  /// arrays on the first query). `policy_space_words` is what the owning
  /// sketch folded in via track_policy_space (e.g. the weighted sketch's
  /// weight array), needed to reconcile the tracked counter with the audit
  /// re-sum.
  bool load(SnapshotReader& reader, SetId set_bound,
            std::size_t policy_space_words = 0) {
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
    const bool heap_built = reader.u8() != 0;
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
    if (heap_built ? key_count != 0 : key_count != elem.size()) {
      return reader.fail("minhash core: flat key store size inconsistent "
                         "with heap state");
    }
    std::vector<Key> key_slot(static_cast<std::size_t>(key_count));
    for (Key& key : key_slot) snapshot_read_key(reader, key);
    FlatElemTable table;
    EdgeArena arena;
    SlotHeap<Key> heap;
    // slab_claimed marks every slab word owned by a free block (filled by
    // the arena) or a live span (claimed below): double ownership means a
    // forged snapshot aliased two blocks, which a later insert would turn
    // into silent cross-slot corruption.
    std::vector<bool> slab_claimed;
    if (!table.load(reader) || !arena.load(reader, &slab_claimed) ||
        !heap.load(reader, /*max_tracked=*/elem.size())) {
      return false;
    }
    if (!heap_built && heap.size() != 0) {
      // Flat-key mode never consults the heap, so forged entries would slip
      // every liveness check and surface later as a double-freed slot.
      return reader.fail("minhash core: heap entries present in flat-key mode");
    }
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
      const bool alive = heap_built
                             ? heap.contains(slot)
                             : key_slot[slot] != infinite_key_;
      if (alive == is_free[slot]) {
        return reader.fail("minhash core: liveness disagrees with free list");
      }
      const EdgeArena::Span& s = span[slot];
      if (!alive) {
        if (s.size != 0 || s.spilled != 0) {
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
      // estimates (every NaN comparison is false, so the heap-order check
      // alone cannot catch them).
      const Key live_key = heap_built ? heap.key_of(slot) : key_slot[slot];
      if (!(live_key <= cutoff)) {
        return reader.fail("minhash core: retained key above the cutoff");
      }
      // cap_log2 must be range-checked BEFORE capacity() touches it — on a
      // forged value the 1u << cap_log2 inside capacity() is UB.
      if (s.spilled != 0 && s.cap_log2 > EdgeArena::kMaxClass) {
        return reader.fail("minhash core: span size class out of range");
      }
      if (s.size > degree_cap_ || s.size > s.capacity() ||
          (s.spilled != 0 &&
           (s.words[0] >= arena.slab_size() ||
            (1ull << s.cap_log2) > arena.slab_size() - s.words[0]))) {
        return reader.fail("minhash core: span exceeds cap or slab bounds");
      }
      if (s.spilled != 0) {
        for (std::uint64_t w = 0; w < (1ull << s.cap_log2); ++w) {
          if (slab_claimed[s.words[0] + w]) {
            return reader.fail("minhash core: span aliases another slab block");
          }
          slab_claimed[s.words[0] + w] = true;
        }
      }
      for (const SetId set : arena.view(s)) {
        if (set >= set_bound) {
          return reader.fail("minhash core: stored set id outside the "
                             "sketch's universe");
        }
      }
      if (table.find(elem[slot]) != slot) {
        return reader.fail("minhash core: table lookup disagrees with slot");
      }
    }
    if (edges != stored_edges || live + free_slots.size() != elem.size() ||
        table.size() != live) {
      return reader.fail("minhash core: edge/liveness totals inconsistent");
    }
    // The tracked counter must equal the audit re-sum of the loaded pieces —
    // the same invariant the batch equivalence tests fuzz at runtime.
    const std::uint64_t audit =
        audit_space_words(table, elem.size(), heap, key_slot.size(), arena,
                          free_slots.size());
    if (tracked_space != base_space + policy_space_words + audit ||
        peak_space < tracked_space) {
      return reader.fail("minhash core: space counters disagree with audit");
    }
    if (!reader.end_section()) return false;
    cutoff_ = cutoff;
    heap_built_ = heap_built;
    stored_edges_ = static_cast<std::size_t>(stored_edges);
    base_space_words_ = static_cast<std::size_t>(base_space);
    tracked_space_words_ = static_cast<std::size_t>(tracked_space);
    peak_space_words_ = static_cast<std::size_t>(peak_space);
    elem_ = std::move(elem);
    span_ = std::move(span);
    free_slots_ = std::move(free_slots);
    key_slot_ = std::move(key_slot);
    table_ = std::move(table);
    arena_ = std::move(arena);
    heap_ = std::move(heap);
    return true;
  }

 private:
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

  /// Claims next_slot_id() and makes it live for `elem`/`key`; the table
  /// entry must already exist (find_or_insert or insert stored it). Before
  /// the first eviction the key lands in the flat key store (one word, no
  /// sift); after it, in the heap.
  void commit_slot(std::uint32_t slot, ElemId elem, Key key) {
    if (free_slots_.empty()) {
      elem_.push_back(elem);
      span_.emplace_back();
      if (!heap_built_) {
        key_slot_.push_back(key);
        // Analytic delta, hottest admission shape: +1 elem word, +2 span
        // words (16-byte Span), +1 flat key word.
        adjust_space(4);
      } else {
        // +1 elem, +2 span; the key lands in the heap (entry + back ptr).
        const std::size_t heap_before = heap_.space_words();
        heap_.push(key, slot);
        adjust_space(3 + delta(heap_before, heap_.space_words()));
      }
    } else {
      // Slot reuse: only the free list shrinks (half-word granularity) and
      // the key store takes the new key.
      const std::size_t free_before = words_for_u32(free_slots_.size());
      free_slots_.pop_back();
      elem_[slot] = elem;
      span_[slot] = EdgeArena::Span{};
      if (!heap_built_) {
        key_slot_[slot] = key;
        adjust_space(delta(free_before, words_for_u32(free_slots_.size())));
      } else {
        const std::size_t heap_before = heap_.space_words();
        heap_.push(key, slot);
        adjust_space(delta(free_before + heap_before,
                           words_for_u32(free_slots_.size()) +
                               heap_.space_words()));
      }
    }
  }

  /// Materializes the eviction heap from the flat key store (first budget
  /// overflow, or a query that needs heap order). Eviction order is
  /// unchanged: pop_max always removes the unique lexicographic max
  /// (key, slot), whatever the heap's internal layout. The net space swap
  /// (flat words out, heap entries + back pointers in) is applied as one
  /// delta so no transient double-count hits the peak.
  void ensure_heap() {
    if (heap_built_) return;
    const std::size_t before = heap_.space_words() + key_slot_.size();
    for (std::uint32_t slot = 0;
         slot < static_cast<std::uint32_t>(key_slot_.size()); ++slot) {
      if (key_slot_[slot] != infinite_key_) heap_.push(key_slot_[slot], slot);
    }
    key_slot_.clear();
    key_slot_.shrink_to_fit();
    heap_built_ = true;
    adjust_space(delta(before, heap_.space_words() + key_slot_.size()));
  }

  void evict_max() {
    const auto [key, slot] = heap_.pop_max();
    lower_cutoff(key);
    release_slot(slot, /*freed_key_words=*/2);
  }

  void destroy_slot(std::uint32_t slot) {
    if (heap_built_) {
      heap_.remove(slot);
      release_slot(slot, /*freed_key_words=*/2);
    } else {
      key_slot_[slot] = infinite_key_;  // dead marker; word stays counted
      release_slot(slot, /*freed_key_words=*/0);
    }
  }

  /// Shared tail of eviction/purge: returns the slot's storage to the free
  /// lists. `freed_key_words` is the heap entry already removed (2 words,
  /// or 0 pre-heap where the flat key word remains counted); the freed edge
  /// block stays in the slab and the free-slot list may round up half a
  /// word, so the net is applied as one delta (no transient peak).
  void release_slot(std::uint32_t slot, std::size_t freed_key_words) {
    const std::size_t free_before = words_for_u32(free_slots_.size());
    stored_edges_ -= span_[slot].size;
    table_.erase(elem_[slot]);
    arena_.release(span_[slot]);
    free_slots_.push_back(slot);
    adjust_space(delta(freed_key_words + free_before,
                       words_for_u32(free_slots_.size())));
  }

  std::size_t degree_cap_;
  std::size_t edge_budget_;
  Key infinite_key_;
  Key cutoff_;  // min key ever evicted; admit strictly below only

  FlatElemTable table_;
  EdgeArena arena_;
  SlotHeap<Key> heap_;        // (key, slot) entries once heap_built_
  std::vector<Key> key_slot_; // flat key store until the first eviction;
                              // infinite_key_ marks dead slots
  bool heap_built_ = false;
  std::vector<ElemId> elem_;
  std::vector<EdgeArena::Span> span_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t stored_edges_ = 0;

  std::size_t base_space_words_ = 0;
  std::size_t tracked_space_words_ = 0;
  std::size_t peak_space_words_ = 0;

  // Reusable scratch (not part of the sketch's analytic footprint):
  // admit_batch survivor indices and dense-sweep bucket hashes, merge_from
  // union staging, build_csr compaction map and per-set cursors.
  std::vector<std::uint32_t> survivors_;
  std::vector<std::uint64_t> bucket_hashes_;
  std::vector<SetId> merge_scratch_;
  mutable std::vector<std::uint32_t> csr_compact_;
  mutable std::vector<std::size_t> csr_cursor_;
};

}  // namespace covstream
