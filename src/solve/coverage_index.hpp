// CoverageIndex: the CSR pair every greedy solve runs on (DESIGN.md §5.10).
//
// The solve path needs two adjacency directions over one finished sketch
// view: set -> slots (to mark a pick's elements covered) and slot -> sets
// (to decrement the exact gains of every set a newly covered slot touches).
// The forward direction already exists — SketchView / WeightedSketchView /
// CoverageInstance all hold a flat set-major CSR — so CoverageIndex borrows
// it as spans instead of copying, and builds only the inverted CSR itself,
// lazily, on the first solve that needs it (the lazy-heap strategy never
// does; the decremental strategy always does).
//
// Lifetime: an index built over a view references the view's arrays; the
// view must outlive the index. Indexes built from a CoverageInstance own a
// converted copy (dense ElemId -> uint32 slot) because offline instances
// store 64-bit element ids.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/common.hpp"

namespace covstream {

class CoverageInstance;
struct SketchView;
struct WeightedSketchView;

class CoverageIndex {
 public:
  CoverageIndex() = default;

  /// Borrows `view`'s forward CSR (no copy). The view must outlive the index.
  explicit CoverageIndex(const SketchView& view);
  explicit CoverageIndex(const WeightedSketchView& view);

  /// Borrows a raw forward CSR: `offsets` has num_sets + 1 entries and
  /// `slots[offsets[s] .. offsets[s+1])` lists set s's slots in [0, num_slots).
  CoverageIndex(SetId num_sets, std::size_t num_slots,
                std::span<const std::size_t> offsets,
                std::span<const std::uint32_t> slots);

  /// Owns a uint32 conversion of the instance's set -> element CSR (offline
  /// instances use dense element ids, so slot == ElemId; requires
  /// num_elems < 2^32).
  static CoverageIndex from_instance(const CoverageInstance& instance);

  SetId num_sets() const { return num_sets_; }
  std::size_t num_slots() const { return num_slots_; }
  std::size_t num_edges() const { return fwd_slots_.size(); }

  std::span<const std::uint32_t> slots_of(SetId set) const {
    COVSTREAM_CHECK(set < num_sets_);
    return fwd_slots_.subspan(fwd_offsets_[set],
                              fwd_offsets_[set + 1] - fwd_offsets_[set]);
  }

  /// Builds the slot -> sets inverted CSR if absent. One O(edges) counting
  /// sort; repeat calls are free. A slot appears once per stored edge, so a
  /// set listing a slot twice (a view no sketch produces, since stored
  /// lists are deduped) is listed with multiplicity —
  /// which is exactly the decrement the decremental gains need to mirror the
  /// lazy rescan (DESIGN.md §5.10).
  void ensure_inverted();

  bool has_inverted() const { return inverted_built_; }

  /// Sets containing `slot` (with multiplicity). ensure_inverted() first.
  std::span<const SetId> sets_of_slot(std::uint32_t slot) const {
    COVSTREAM_CHECK(inverted_built_ && slot < num_slots_);
    return {inv_sets_.data() + inv_offsets_[slot],
            inv_offsets_[slot + 1] - inv_offsets_[slot]};
  }

  /// Total inverted edges across `slots` (the decrement sweep's work bound).
  std::size_t inverted_work(std::span<const std::uint32_t> slots) const;

  /// Words owned by the index itself (inverted CSR + any owned forward
  /// copy); borrowed view storage is accounted by its owner.
  std::size_t space_words() const;

 private:
  SetId num_sets_ = 0;
  std::size_t num_slots_ = 0;
  std::span<const std::size_t> fwd_offsets_;
  std::span<const std::uint32_t> fwd_slots_;
  // Backing storage when built from a CoverageInstance.
  std::vector<std::size_t> owned_offsets_;
  std::vector<std::uint32_t> owned_slots_;
  // Inverted CSR (built by ensure_inverted()).
  bool inverted_built_ = false;
  std::vector<std::size_t> inv_offsets_;
  std::vector<SetId> inv_sets_;
};

}  // namespace covstream
