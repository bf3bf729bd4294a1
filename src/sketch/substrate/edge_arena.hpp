// Pooled SoA edge storage for the sketch substrate (DESIGN.md §5.6, §5.8).
//
// All per-element edge lists live in ONE uint32_t slab; each element holds a
// Span handle. This replaces the per-slot std::vector<SetId> of the old
// sketches: no per-element heap allocation, no 3-pointer vector header, and
// a full-sketch scan (view building, coverage estimation) walks one
// contiguous buffer.
//
// A list holds distinct set ids, visited in ascending order, in one of three
// forms picked by its size alone (W = bitmap_words()):
//   * inline (size <= 2): the sets live in the Span's own words, so the
//     (overwhelmingly common) degree-<=2 element costs zero slab traffic —
//     the admission hot path touches one Span record instead of a Span plus
//     a random slab block;
//   * sorted (3 <= size <= W): ascending ids in a slab block of 4 .. W words;
//   * bitmap (size > W): one bit per set of the sketch's universe, in a block
//     of W words — ⌈num_sets/32⌉ rounded up to a power of two, at least 4.
// A sorted list that fills its W-word block converts in place on the next
// distinct insert, so a high-degree element's insert and dedupe cost one bit
// test-and-set instead of a binary search plus a memmove of half the list.
// The form is canonical (a function of the size), and visiting a bitmap's
// bits in ascending order reproduces the sorted list exactly, so nothing a
// reader sees depends on it; only the slab shrinks.
//
// Slab blocks come in power-of-two size classes (smallest spilled class is
// 4). Freed blocks (eviction, purge) go on an intrusive per-class free list
// — the first word of a free block stores the offset of the next free block
// — so eviction churn at a steady budget recycles memory instead of growing
// the slab. Bitmaps share the W-word class with the longest sorted lists.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "sketch/substrate/snapshot.hpp"
#include "util/common.hpp"
#include "util/space_meter.hpp"

namespace covstream {

class EdgeArena {
 public:
  static constexpr std::uint32_t kNullOffset = 0xFFFFFFFFu;
  static constexpr std::uint32_t kMaxClass = 31;
  /// First spilled size class: one step past the inline capacity.
  static constexpr std::uint32_t kFirstSpillLog2 = 2;

  /// Span::spilled — the list's form.
  enum Form : std::uint8_t { kInline = 0, kSorted = 1, kBitmap = 2 };

  /// Handle to one element's edge list. Value-type, owned by the caller;
  /// a default Span is an empty inline list with no slab storage.
  struct Span {
    /// Sets held in the handle itself before spilling to the slab.
    static constexpr std::uint32_t kInlineCap = 2;

    /// Inline: the resident sets. Spilled: words[0] is the slab block
    /// offset (a real array so inline lists index it well-defined).
    std::uint32_t words[kInlineCap] = {0, 0};
    std::uint32_t size = 0;
    std::uint8_t spilled = kInline;  // a Form
    std::uint8_t cap_log2 = 0;       // slab blocks only
  };
  static_assert(sizeof(Span) == 16);

  /// `num_sets` bounds every stored set id; it sizes the bitmap block.
  explicit EdgeArena(SetId num_sets);

  SetId num_sets() const { return num_sets_; }

  /// Words in a bitmap block, W: a list is a bitmap iff its size exceeds W.
  std::uint32_t bitmap_words() const { return 1u << bitmap_log2_; }

  /// Inserts `value` (< num_sets); returns false if it is already stored.
  /// The bitmap and inline outcomes resolve in the header, so the caller
  /// pays no call for them; a sorted list takes the out-of-line tail.
  bool insert(Span& span, SetId value) {
    if (span.spilled == kBitmap) {
      std::uint32_t& word = data_[span.words[0] + (value >> 5)];
      const std::uint32_t bit = 1u << (value & 31);
      if ((word & bit) != 0) return false;
      word |= bit;
      ++span.size;
      return true;
    }
    if (span.spilled == kInline) {
      if (span.size == 0) {
        span.words[0] = value;
        span.size = 1;
        return true;
      }
      if (span.words[0] == value) return false;
      if (span.size == 1) {
        span.words[1] = std::max(span.words[0], value);
        span.words[0] = std::min(span.words[0], value);
        span.size = 2;
        return true;
      }
      if (span.words[1] == value) return false;
    }
    return insert_spilled(span, value);
  }

  /// Replaces the contents with `values`, which must be strictly ascending
  /// and below num_sets; the span takes the canonical form for their count.
  /// `values` must NOT alias this arena's own slab or the target span's
  /// inline words: the assign may reallocate the slab (or overwrite the
  /// inline words) before the copy. Copy into a temporary first (as
  /// merge_from does).
  void assign(Span& span, std::span<const SetId> values);

  /// Replaces the contents with a copy of `from`, a span of `source` (an
  /// arena over the same set universe): one block copy, whatever the form.
  void copy(Span& span, const EdgeArena& source, const Span& from);

  /// Returns the block to its size-class free list and empties the span.
  void release(Span& span);

  /// Calls `pred(set)` on the stored sets in ascending order until it
  /// returns true; reports whether it did.
  template <typename Pred>
  bool any_of(const Span& span, Pred&& pred) const {
    if (span.spilled == kBitmap) {
      const std::uint32_t* const block = data_.data() + span.words[0];
      for (std::uint32_t w = 0; w < universe_words_; ++w) {
        for (std::uint32_t bits = block[w]; bits != 0; bits &= bits - 1) {
          if (pred(static_cast<SetId>(w * 32 + std::countr_zero(bits)))) {
            return true;
          }
        }
      }
      return false;
    }
    const std::uint32_t* const list =
        span.spilled == kSorted ? data_.data() + span.words[0] : span.words;
    for (std::uint32_t i = 0; i < span.size; ++i) {
      if (pred(list[i])) return true;
    }
    return false;
  }

  /// Calls `fn(set)` on every stored set, in ascending order.
  template <typename Fn>
  void for_each(const Span& span, Fn&& fn) const {
    any_of(span, [&fn](SetId set) {
      fn(set);
      return false;
    });
  }

  /// Hints the cache that insert(span, value) is about to run: the bitmap
  /// word holding `value`, or the sorted block's first binary-search probe.
  /// Purely advisory, like FlatElemTable::prefetch_hashed.
  void prefetch_insert(const Span& span, SetId value) const {
#if defined(__GNUC__) || defined(__clang__)
    if (span.spilled == kInline) return;
    __builtin_prefetch(data_.data() + span.words[0] +
                       (span.spilled == kBitmap ? value >> 5 : span.size / 2));
#else
    (void)span;
    (void)value;
#endif
  }

  /// 8-byte words held by the slab (uint32 slots, 2 per word).
  std::size_t space_words() const { return words_for_u32(data_.size()); }

  std::size_t slab_size() const { return data_.size(); }

  /// Serializes the slab and the per-class free-list heads verbatim
  /// (docs/FORMATS.md §3 'ARNA'). Free blocks are part of the slab image, so
  /// a loaded arena recycles exactly the blocks the saved one would have.
  void save(SnapshotWriter& writer) const;

  /// Restores a save()d arena, replacing this one (its set universe stays).
  /// Walks every free list to verify offsets stay in bounds and chains
  /// terminate (a forged cyclic list would otherwise hang the first
  /// allocation); fails the reader — returning false — on any
  /// inconsistency. `claimed` is resized to the slab and every free block's
  /// words are marked in it, failing on overlap — check() then claims the
  /// live spans on the same map, so no slab word can be owned twice (a
  /// forged aliased block would otherwise corrupt a neighbor on the first
  /// post-load insert).
  bool load(SnapshotReader& reader, std::vector<bool>& claimed);

  /// Validates one loaded live span against this (loaded) arena: the form
  /// is a known one and the canonical one for the size; the block's size
  /// class suits the form and lies in the slab, unclaimed; a list is
  /// strictly ascending below num_sets; a bitmap sets no bit at or past
  /// num_sets and its popcount equals the size. Fails the reader on the
  /// first violation.
  bool check(const Span& span, std::vector<bool>& claimed,
             SnapshotReader& reader) const;

 private:
  /// Out-of-line tail of insert(): spill a full inline list, then insert
  /// into the sorted block, growing it or converting it to a bitmap when
  /// full.
  bool insert_spilled(Span& span, SetId value);

  std::uint32_t allocate(std::uint32_t cap_log2);
  /// Moves an inline list into its first slab block (capacity 4).
  void spill(Span& span);
  /// Doubles a sorted span's block.
  void grow(Span& span);
  /// Rewrites a full W-word sorted block as the bitmap of the same sets.
  void to_bitmap(Span& span);

  SetId num_sets_;
  std::uint32_t universe_words_;  // ⌈num_sets/32⌉: a bitmap's used words
  std::uint32_t bitmap_log2_;
  std::vector<std::uint32_t> data_;
  // Head of the intrusive free list per size class, kNullOffset if empty.
  std::uint32_t free_head_[kMaxClass + 1];
};

}  // namespace covstream
