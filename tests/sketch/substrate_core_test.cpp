// Tests for the flat-storage sketch substrate (src/sketch/substrate/):
// the open-addressing element table, the pooled edge arena, the eviction
// bucket queue (against a std::set reference), and the invariants the ported sketches rely on — arena reuse
// under eviction/purge churn, streamed-vs-sharded merge equivalence, and
// bit-for-bit build_offline regression across seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <vector>

#include "core/subsample_sketch.hpp"
#include "hash/hash64.hpp"
#include "sketch/substrate/bucket_queue.hpp"
#include "sketch/substrate/edge_arena.hpp"
#include "sketch/substrate/flat_table.hpp"
#include "sketch/substrate/minhash_core.hpp"
#include "sketch/substrate/snapshot.hpp"
#include "stream/arrival_order.hpp"
#include "util/rng.hpp"
#include "workloads/generators.hpp"

namespace covstream {
namespace {

// ------------------------------------------------------------ FlatElemTable --

TEST(FlatTable, InsertFindErase) {
  FlatElemTable table;
  table.insert(42, 1);
  table.insert(~0ULL, 2);  // arbitrary 64-bit ids allowed, including max
  table.insert(0, 3);
  EXPECT_EQ(table.find(42), 1u);
  EXPECT_EQ(table.find(~0ULL), 2u);
  EXPECT_EQ(table.find(0), 3u);
  EXPECT_EQ(table.find(7), FlatElemTable::kNoSlot);
  EXPECT_TRUE(table.erase(42));
  EXPECT_FALSE(table.erase(42));
  EXPECT_EQ(table.find(42), FlatElemTable::kNoSlot);
  EXPECT_EQ(table.size(), 2u);
}

TEST(FlatTable, GrowsAndKeepsAllEntries) {
  FlatElemTable table;
  constexpr std::uint32_t kCount = 10000;
  for (std::uint32_t i = 0; i < kCount; ++i) table.insert(i * 977 + 13, i);
  EXPECT_EQ(table.size(), kCount);
  for (std::uint32_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(table.find(i * 977 + 13), i) << i;
  }
}

TEST(FlatTable, BackwardShiftEraseFuzzAgainstStdSet) {
  // Random interleaved insert/erase/find checked against a reference map;
  // this exercises probe-chain repair, which tombstone bugs would break.
  Rng rng(0x7AB1E);
  FlatElemTable table;
  std::vector<std::pair<ElemId, std::uint32_t>> reference;
  for (int op = 0; op < 20000; ++op) {
    const ElemId key = rng.next_below(std::uint64_t{512});  // force collisions
    const auto it = std::find_if(reference.begin(), reference.end(),
                                 [&](const auto& kv) { return kv.first == key; });
    if (rng.next_bool(0.6)) {
      if (it == reference.end()) {
        const std::uint32_t slot = static_cast<std::uint32_t>(op);
        table.insert(key, slot);
        reference.emplace_back(key, slot);
      }
    } else if (it != reference.end()) {
      EXPECT_TRUE(table.erase(key));
      reference.erase(it);
    } else {
      EXPECT_FALSE(table.erase(key));
    }
    ASSERT_EQ(table.size(), reference.size());
  }
  for (const auto& [key, slot] : reference) ASSERT_EQ(table.find(key), slot);
}

// ---------------------------------------------------------------- EdgeArena --

std::vector<SetId> contents(const EdgeArena& arena, const EdgeArena::Span& span) {
  std::vector<SetId> sets;
  arena.for_each(span, [&sets](SetId set) { sets.push_back(set); });
  return sets;
}

TEST(EdgeArena, InsertAndVisitInAscendingOrder) {
  // 100 sets of a 1000-set universe pass the 32-word bitmap block, so the
  // visit decodes a bitmap; shuffled inserts still come back ascending.
  EdgeArena arena(1000);
  ASSERT_EQ(arena.bitmap_words(), 32u);
  EdgeArena::Span span;
  std::vector<SetId> order(100);
  for (SetId s = 0; s < 100; ++s) order[s] = s * 7;
  Rng rng(0xA5CE);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  for (const SetId set : order) EXPECT_TRUE(arena.insert(span, set));
  EXPECT_EQ(span.size, 100u);
  EXPECT_EQ(span.spilled, EdgeArena::kBitmap);
  std::sort(order.begin(), order.end());
  EXPECT_EQ(contents(arena, span), order);
}

TEST(EdgeArena, InsertSortedDedupes) {
  EdgeArena arena(16);
  EdgeArena::Span span;
  EXPECT_TRUE(arena.insert(span, 5));
  EXPECT_TRUE(arena.insert(span, 1));
  EXPECT_TRUE(arena.insert(span, 9));
  EXPECT_FALSE(arena.insert(span, 5));
  EXPECT_TRUE(arena.insert(span, 7));
  EXPECT_EQ(contents(arena, span), (std::vector<SetId>{1, 5, 7, 9}));
}

TEST(EdgeArena, FormFollowsSizeAcrossTheBitmapBoundary) {
  // n = 150: a bitmap block is ⌈150/32⌉ = 5 words rounded up to 8. Inline
  // through 2 sets, sorted through 8, bitmap from 9 — and the conversion
  // reuses the full 8-word block, so the slab does not grow.
  EdgeArena arena(150);
  ASSERT_EQ(arena.bitmap_words(), 8u);
  EdgeArena::Span span;
  std::vector<SetId> reference;
  for (SetId s = 0; s < 20; ++s) {
    const SetId set = 149 - 7 * s;
    const std::size_t slab_before = arena.slab_size();
    ASSERT_TRUE(arena.insert(span, set));
    reference.insert(std::lower_bound(reference.begin(), reference.end(), set),
                     set);
    const std::uint8_t form = span.size <= 2   ? EdgeArena::kInline
                              : span.size <= 8 ? EdgeArena::kSorted
                                               : EdgeArena::kBitmap;
    ASSERT_EQ(span.spilled, form) << "size " << span.size;
    if (span.size == 9) {
      EXPECT_EQ(arena.slab_size(), slab_before);
    }
    ASSERT_EQ(contents(arena, span), reference);
  }
}

TEST(EdgeArena, ConvertingInsertCarriesADuplicate) {
  // A full W-word sorted list offered a set it already holds stays sorted
  // (a duplicate converts nothing); the next distinct set converts it.
  EdgeArena arena(150);
  EdgeArena::Span span;
  for (SetId s = 0; s < 8; ++s) ASSERT_TRUE(arena.insert(span, 10 * s));
  ASSERT_EQ(span.spilled, EdgeArena::kSorted);
  EXPECT_FALSE(arena.insert(span, 30));
  EXPECT_EQ(span.spilled, EdgeArena::kSorted);
  EXPECT_EQ(span.size, 8u);
  EXPECT_TRUE(arena.insert(span, 149));
  EXPECT_EQ(span.spilled, EdgeArena::kBitmap);
  EXPECT_FALSE(arena.insert(span, 149));
  EXPECT_FALSE(arena.insert(span, 0));
  EXPECT_EQ(contents(arena, span),
            (std::vector<SetId>{0, 10, 20, 30, 40, 50, 60, 70, 149}));
}

TEST(EdgeArena, DegreeCapReachedExactlyAtConversion) {
  // A cap of W + 1 = 9 at n = 150: the ninth set is the converting insert
  // and fills the cap, so every later set is refused and the list stays a
  // 9-set bitmap.
  MinHashCore<std::uint64_t> core(150, /*degree_cap=*/9, /*edge_budget=*/1000,
                                  ~0ULL);
  bool created = false;
  const std::uint32_t slot = core.admit(7, 12345, created);
  ASSERT_TRUE(created);
  for (SetId s = 0; s < 9; ++s) EXPECT_TRUE(core.add_edge(slot, 16 * s));
  for (SetId s = 0; s < 20; ++s) EXPECT_FALSE(core.add_edge(slot, 16 * s + 1));
  EXPECT_EQ(core.stored_edges(), 9u);
  std::vector<SetId> sets;
  core.for_each_edge(slot, [&sets](SetId set) { sets.push_back(set); });
  EXPECT_EQ(sets, (std::vector<SetId>{0, 16, 32, 48, 64, 80, 96, 112, 128}));
  EXPECT_EQ(core.tracked_space_words(), core.space_words());
}

TEST(EdgeArena, BitmapBlockIsReleasedAndReused) {
  // A released bitmap's block goes on the W-word class free list: the next
  // bitmap — or the next sorted list that reaches W words — takes it back
  // instead of growing the slab.
  EdgeArena arena(150);
  EdgeArena::Span bitmap;
  for (SetId s = 0; s < 40; ++s) arena.insert(bitmap, s * 3);
  ASSERT_EQ(bitmap.spilled, EdgeArena::kBitmap);
  const std::uint32_t block = bitmap.words[0];
  const std::size_t slab = arena.slab_size();
  arena.release(bitmap);
  EXPECT_EQ(bitmap.size, 0u);
  EXPECT_EQ(bitmap.spilled, EdgeArena::kInline);

  EdgeArena::Span again;
  for (SetId s = 0; s < 12; ++s) arena.insert(again, 149 - s);
  EXPECT_EQ(again.spilled, EdgeArena::kBitmap);
  EXPECT_EQ(again.words[0], block);
  // It spilled through the 4-word block the first list grew out of.
  EXPECT_EQ(arena.slab_size(), slab);
  EXPECT_EQ(contents(arena, again).front(), 138u);
  arena.release(again);

  // A sorted list growing into the 8-word class reuses the block too.
  EdgeArena::Span sorted;
  for (SetId s = 0; s < 6; ++s) arena.insert(sorted, s);
  EXPECT_EQ(sorted.spilled, EdgeArena::kSorted);
  EXPECT_EQ(sorted.words[0], block);
  EXPECT_EQ(arena.slab_size(), slab);
}

TEST(EdgeArena, FreeListReusesBlocksUnderChurn) {
  // Steady-state alloc/release churn must recycle slab space: after the
  // first generation, releasing and re-filling same-sized lists cannot grow
  // the slab further — for sorted lists and bitmaps alike.
  for (const SetId num_sets : {SetId{1000}, SetId{100}}) {
    EdgeArena arena(num_sets);
    std::vector<EdgeArena::Span> spans(64);
    for (auto& span : spans) {
      for (SetId s = 0; s < 16; ++s) arena.insert(span, s);
    }
    const std::size_t slab_after_first_generation = arena.slab_size();
    for (int generation = 0; generation < 50; ++generation) {
      for (auto& span : spans) arena.release(span);
      for (auto& span : spans) {
        for (SetId s = 0; s < 16; ++s) arena.insert(span, s);
      }
    }
    EXPECT_EQ(arena.slab_size(), slab_after_first_generation) << num_sets;
  }
}

TEST(EdgeArena, AssignReplacesContents) {
  EdgeArena arena(16);
  EdgeArena::Span span;
  for (SetId s = 0; s < 10; ++s) arena.insert(span, s);
  const std::vector<SetId> replacement{1, 3, 4};
  arena.assign(span, replacement);
  EXPECT_EQ(span.spilled, EdgeArena::kSorted);
  EXPECT_EQ(contents(arena, span), replacement);
}

TEST(EdgeArena, AssignLongerThanABitmapBlockTakesTheBitmapForm) {
  // 12 ascending sets against an 8-word block: assign lands directly in a
  // bitmap (one W-word block, no sorted detour), and a copy into another
  // arena over the same universe is one block copy with the same contents.
  EdgeArena arena(150);
  std::vector<SetId> sets;
  for (SetId s = 0; s < 12; ++s) sets.push_back(5 + 12 * s);
  EdgeArena::Span span;
  arena.assign(span, sets);
  EXPECT_EQ(span.spilled, EdgeArena::kBitmap);
  EXPECT_EQ(span.size, 12u);
  EXPECT_EQ(arena.slab_size(), 8u);
  EXPECT_EQ(contents(arena, span), sets);

  EdgeArena other(150);
  EdgeArena::Span copied;
  other.copy(copied, arena, span);
  EXPECT_EQ(copied.spilled, EdgeArena::kBitmap);
  EXPECT_EQ(other.slab_size(), 8u);
  EXPECT_EQ(contents(other, copied), sets);
  EXPECT_TRUE(other.insert(copied, 149));
  EXPECT_EQ(contents(arena, span), sets);  // the source is untouched
}

// ------------------------------------------------------------ EvictionQueue --

using U64Queue = BucketQueue<std::uint64_t>;
using KeySlot = std::pair<std::uint64_t, std::uint32_t>;

/// Pops the queue and the reference once each and requires the same max.
template <typename Key>
void expect_same_pop(BucketQueue<Key>& queue,
                     std::set<std::pair<Key, std::uint32_t>>& reference) {
  ASSERT_FALSE(reference.empty());
  const auto max = queue.pop_max();
  EXPECT_EQ(max.key, reference.rbegin()->first);
  EXPECT_EQ(max.slot, reference.rbegin()->second);
  reference.erase(std::prev(reference.end()));
  EXPECT_EQ(queue.size(), reference.size());
}

TEST(EvictionQueue, PopsInDescendingKeyOrder) {
  Rng rng(0x4EA9);
  std::vector<U64Queue::Entry> entries;
  std::set<KeySlot> reference;
  for (std::uint32_t slot = 0; slot < 5000; ++slot) {
    entries.push_back({rng.next(), slot});
    reference.emplace(entries.back().key, slot);
  }
  U64Queue queue;
  queue.assign(entries);
  while (!reference.empty()) expect_same_pop(queue, reference);
  EXPECT_TRUE(queue.empty());
}

TEST(EvictionQueue, CommitsBelowTheCutoffInterleavedWithPops) {
  // The substrate's pattern: each pop lowers the cutoff to the popped key
  // and new entries land strictly below it, some in the open bucket (a
  // sorted insert), most in the chains below it. Pushes above the cutoff
  // are mixed in too: exactness must not depend on the pattern.
  Rng rng(0x51C0);
  std::vector<U64Queue::Entry> entries;
  std::set<KeySlot> reference;
  std::uint32_t next_slot = 0;
  for (; next_slot < 3000; ++next_slot) {
    entries.push_back({rng.next(), next_slot});
    reference.emplace(entries.back().key, next_slot);
  }
  U64Queue queue;
  queue.assign(entries);
  std::uint64_t cutoff = ~0ULL;
  for (int step = 0; step < 20000; ++step) {
    if (rng.next_below(std::uint64_t{2}) == 0 && !reference.empty()) {
      cutoff = reference.rbegin()->first;
      expect_same_pop(queue, reference);
      continue;
    }
    const std::uint64_t key = rng.next_below(std::uint64_t{10}) == 0
                                  ? rng.next()
                                  : rng.next_below(cutoff);
    queue.push(key, next_slot);
    reference.emplace(key, next_slot++);
  }
  while (!reference.empty()) expect_same_pop(queue, reference);
}

TEST(EvictionQueue, EqualKeysPopByDescendingSlot) {
  // Weighted clocks are doubles; equal keys on distinct slots must pop by
  // descending slot, the lexicographic (key, slot) tie-break.
  Rng rng(0xD0B1);
  BucketQueue<double> queue;
  std::set<std::pair<double, std::uint32_t>> reference;
  std::vector<BucketQueue<double>::Entry> entries;
  for (std::uint32_t slot = 0; slot < 2000; ++slot) {
    const double key = 0.25 * static_cast<double>(rng.next_below(std::uint64_t{40}));
    entries.push_back({key, slot});
    reference.emplace(key, slot);
  }
  queue.assign(entries);
  for (std::uint32_t slot = 2000; slot < 3000; ++slot) {
    expect_same_pop(queue, reference);
    const double key = reference.empty() ? 0.0 : reference.rbegin()->first;
    queue.push(key, slot);  // ties with the current max
    reference.emplace(key, slot);
  }
  while (!reference.empty()) expect_same_pop(queue, reference);
}

TEST(EvictionQueue, RelaysOutWhenTheOpenBucketFallsBelowAnEighth) {
  // Uniform keys over [0, 2^40); popping the top seven eighths and more
  // drives the open bucket below B/8, and the next opening lays the queue
  // out again over the live range — without changing the pop order.
  Rng rng(0x1A70);
  std::vector<U64Queue::Entry> entries;
  std::set<KeySlot> reference;
  for (std::uint32_t slot = 0; slot < 8000; ++slot) {
    entries.push_back({rng.next_below(std::uint64_t{1} << 40), slot});
    reference.emplace(entries.back().key, slot);
  }
  U64Queue queue;
  queue.assign(entries);
  ASSERT_EQ(queue.layouts(), 1u);
  // 128 buckets over [0, ~2^40): keys at or above 2^37 + 2^34 sit in
  // bucket 18 or higher.
  while (reference.rbegin()->first >=
         (std::uint64_t{1} << 37) + (std::uint64_t{1} << 34)) {
    expect_same_pop(queue, reference);
  }
  EXPECT_EQ(queue.layouts(), 1u);
  while (reference.size() > 10) expect_same_pop(queue, reference);
  EXPECT_GE(queue.layouts(), 2u);
  while (!reference.empty()) expect_same_pop(queue, reference);
}

/// Pushes 3000 keys from `draw` on a default-constructed queue, which takes
/// them on its one chain without a layout, then interleaves pops with more
/// pushes: the first pop lays the queue out once, with no pops behind it,
/// and every pop matches the reference.
template <typename Key, typename Draw>
void check_queue_that_starts_empty(Draw&& draw) {
  BucketQueue<Key> queue;
  std::set<std::pair<Key, std::uint32_t>> reference;
  std::uint32_t slot = 0;
  for (; slot < 3000; ++slot) {
    const Key key = draw();
    queue.push(key, slot);
    reference.emplace(key, slot);
  }
  EXPECT_EQ(queue.layouts(), 0u);
  EXPECT_EQ(queue.max_key(), reference.rbegin()->first);
  expect_same_pop(queue, reference);
  EXPECT_EQ(queue.layouts(), 1u);
  for (int step = 0; step < 6000; ++step) {
    if (step % 3 == 0) {
      expect_same_pop(queue, reference);
      continue;
    }
    const Key key = draw();
    queue.push(key, slot);
    reference.emplace(key, slot++);
  }
  while (!reference.empty()) expect_same_pop(queue, reference);
}

TEST(EvictionQueue, QueueThatStartsEmptyPopsInReferenceOrder) {
  // Drained straight after the pushes, with no layout before the first pop:
  // keys over the whole 64-bit range (range 0), then below 50, so that most
  // keys tie, then exponential clocks.
  Rng rng(0xE3B7);
  for (const std::uint64_t range : {std::uint64_t{0}, std::uint64_t{50}}) {
    U64Queue queue;
    std::set<KeySlot> reference;
    for (std::uint32_t slot = 0; slot < 4000; ++slot) {
      const std::uint64_t key = range == 0 ? rng.next() : rng.next_below(range);
      queue.push(key, slot);
      reference.emplace(key, slot);
    }
    while (!reference.empty()) expect_same_pop(queue, reference);
    EXPECT_TRUE(queue.empty());
  }
  BucketQueue<double> clocks;
  std::set<std::pair<double, std::uint32_t>> clock_reference;
  for (std::uint32_t slot = 0; slot < 4000; ++slot) {
    const double key = -std::log1p(-rng.next_unit()) / (1.0 + slot % 7);
    clocks.push(key, slot);
    clock_reference.emplace(key, slot);
  }
  while (!clock_reference.empty()) expect_same_pop(clocks, clock_reference);
}

TEST(EvictionQueue, QueueThatStartsEmptyLaysOutOnceAtItsFirstOpening) {
  Rng rng(0x0FE7);
  check_queue_that_starts_empty<std::uint64_t>([&] { return rng.next(); });
  check_queue_that_starts_empty<double>([&] {
    return 0.125 * static_cast<double>(rng.next_below(std::uint64_t{400}));
  });
}

TEST(EvictionQueue, RetainDropsEntriesAndKeepsOrder) {
  Rng rng(0x9E4B);
  std::vector<U64Queue::Entry> entries;
  std::set<KeySlot> reference;
  for (std::uint32_t slot = 0; slot < 3000; ++slot) {
    entries.push_back({rng.next(), slot});
    reference.emplace(entries.back().key, slot);
  }
  U64Queue queue;
  queue.assign(entries);
  for (int pops = 0; pops < 40; ++pops) expect_same_pop(queue, reference);
  while (queue.open().size() < 2) expect_same_pop(queue, reference);
  // retain runs with entries left in the open bucket
  queue.retain([](std::uint32_t slot) { return slot % 2 == 0; });
  std::erase_if(reference, [](const KeySlot& e) { return e.second % 2 != 0; });
  EXPECT_EQ(queue.size(), reference.size());
  EXPECT_EQ(queue.max_key(), reference.rbegin()->first);
  while (!reference.empty()) expect_same_pop(queue, reference);
}

/// An independent MinHashCore model over std containers: admission below
/// the cutoff, degree cap, max-(key, slot) eviction through a std::set, the
/// same free-list discipline, ascending-slot purges by predicate, and cutoff
/// purges by descending (key, slot).
template <typename Key>
class ReferenceCore {
 public:
  ReferenceCore(std::size_t cap, std::size_t budget, Key infinite)
      : cap_(cap), budget_(budget), cutoff_(infinite) {}

  void update(ElemId elem, Key key, SetId set) {
    if (key >= cutoff_) return;
    std::uint32_t slot;
    if (const auto it = slot_of_.find(elem); it != slot_of_.end()) {
      slot = it->second;
    } else {
      if (free_.empty()) {
        slot = static_cast<std::uint32_t>(elem_.size());
        elem_.push_back(elem);
        sets_.emplace_back();
        key_.push_back(key);
      } else {
        slot = free_.back();
        free_.pop_back();
        elem_[slot] = elem;
        key_[slot] = key;
      }
      slot_of_[elem] = slot;
      order_.emplace(key, slot);
    }
    if (sets_[slot].size() >= cap_ || !sets_[slot].insert(set).second) return;
    ++stored_;
    while (stored_ > budget_ && order_.size() > 1) {
      const auto [victim_key, victim] = *order_.rbegin();
      cutoff_ = std::min(cutoff_, victim_key);
      release(victim);
    }
  }

  template <typename Pred>
  void purge(Pred&& pred) {
    for (std::uint32_t slot = 0; slot < elem_.size(); ++slot) {
      if (alive(slot) && pred(elem_[slot])) release(slot);
    }
  }

  /// Lowers the cutoff to `cutoff` and releases every entry at or above the
  /// result, the largest (key, slot) first.
  void lower_cutoff(Key cutoff) {
    cutoff_ = std::min(cutoff_, cutoff);
    while (!order_.empty() && order_.rbegin()->first >= cutoff_) {
      release(order_.rbegin()->second);
    }
  }

  bool alive(std::uint32_t slot) const {
    return slot < elem_.size() && order_.count({key_[slot], slot}) != 0;
  }
  Key cutoff() const { return cutoff_; }
  std::size_t stored() const { return stored_; }
  std::size_t slots() const { return elem_.size(); }
  std::size_t live() const { return order_.size(); }
  Key max_key() const { return order_.rbegin()->first; }

 private:
  void release(std::uint32_t slot) {
    order_.erase({key_[slot], slot});
    stored_ -= sets_[slot].size();
    sets_[slot].clear();
    slot_of_.erase(elem_[slot]);
    free_.push_back(slot);
  }

  std::size_t cap_, budget_;
  Key cutoff_;
  std::map<ElemId, std::uint32_t> slot_of_;
  std::vector<ElemId> elem_;
  std::vector<std::set<SetId>> sets_;
  std::vector<Key> key_;
  std::vector<std::uint32_t> free_;
  std::set<std::pair<Key, std::uint32_t>> order_;
  std::size_t stored_ = 0;
};

template <typename Key>
std::vector<std::uint8_t> core_image(const MinHashCore<Key>& core) {
  SnapshotWriter writer(SnapshotType::kSubsampleSketch);
  core.save(writer);
  return writer.finish();
}

template <typename Key>
MinHashCore<Key> reload(const MinHashCore<Key>& core, SetId num_sets,
                        std::size_t cap, std::size_t budget, Key infinite) {
  MinHashCore<Key> loaded(num_sets, cap, budget, infinite);
  SnapshotReader reader(core_image(core));
  EXPECT_TRUE(loaded.load(reader)) << reader.error();
  return loaded;
}

/// One step of run_against_reference: an edge (elem, key, set), a purge of
/// the elements divisible by a nonzero `purge_modulus`, or with
/// `lower_cutoff` a cutoff purge down to `key`.
template <typename Key>
struct CoreStep {
  ElemId elem = 0;
  Key key = 0;
  SetId set = 0;
  std::uint64_t purge_modulus = 0;
  bool lower_cutoff = false;
};

/// Drives a core, its every-step reload and the reference through the same
/// steps (`step(i)` returns the i-th CoreStep) and compares liveness,
/// cutoff, edges, max key, images and the meter.
template <typename Key, typename Step>
void run_against_reference(SetId num_sets, std::size_t cap, std::size_t budget,
                           Key infinite, int steps, Step&& step) {
  MinHashCore<Key> core(num_sets, cap, budget, infinite);
  MinHashCore<Key> reloaded(num_sets, cap, budget, infinite);
  ReferenceCore<Key> reference(cap, budget, infinite);
  for (int i = 0; i < steps; ++i) {
    const CoreStep<Key> s = step(i);
    if (s.lower_cutoff) {
      for (MinHashCore<Key>* target : {&core, &reloaded}) {
        target->lower_cutoff(s.key);
        target->purge_at_or_above_cutoff();
      }
      reference.lower_cutoff(s.key);
    } else if (s.purge_modulus != 0) {
      const auto pred = [m = s.purge_modulus](ElemId e) { return e % m == 0; };
      core.purge(pred);
      reloaded.purge(pred);
      reference.purge(pred);
    } else {
      for (MinHashCore<Key>* target : {&core, &reloaded}) {
        bool created = false;
        const std::uint32_t slot = target->admit(s.elem, s.key, created);
        if (slot != MinHashCore<Key>::kNoSlot &&
            target->add_edge(slot, s.set)) {
          target->enforce_budget();
        }
      }
      reference.update(s.elem, s.key, s.set);
    }
    reloaded = reload(reloaded, num_sets, cap, budget, infinite);
    ASSERT_EQ(core_image(core), core_image(reloaded)) << "step " << i;
    ASSERT_EQ(core.cutoff(), reference.cutoff()) << "step " << i;
    ASSERT_EQ(core.stored_edges(), reference.stored()) << "step " << i;
    ASSERT_EQ(core.live_elements(), reference.live()) << "step " << i;
    ASSERT_EQ(core.slot_count(), reference.slots()) << "step " << i;
    for (std::uint32_t slot = 0; slot < core.slot_count(); ++slot) {
      ASSERT_EQ(core.alive(slot), reference.alive(slot))
          << "step " << i << " slot " << slot;
    }
    if (reference.live() > 0) {
      ASSERT_EQ(core.max_live_key(), reference.max_key()) << "step " << i;
    }
    ASSERT_EQ(core.tracked_space_words(), core.space_words()) << "step " << i;
    ASSERT_EQ(reloaded.tracked_space_words(), core.tracked_space_words());
  }
}

using U64Step = CoreStep<std::uint64_t>;

TEST(EvictionQueue, CoreMatchesReferenceThroughPurgeAndRelayout) {
  // 600 elements, budget 60: the cutoff falls far below an eighth of the
  // first layout's range, so the queue lays itself out again mid-run; two
  // purges land while the open bucket holds entries.
  Rng rng(0xC0DE);
  const Mix64Hash hash(0x77);
  run_against_reference<std::uint64_t>(
      30, 4, 60, ~0ULL, 3000, [&](int i) -> U64Step {
        if (i == 1200 || i == 2100) return {0, 0, 0, 3};
        const ElemId e = rng.next_below(std::uint64_t{600});
        return {e, hash(e), static_cast<SetId>(rng.next_below(std::uint64_t{30})),
                0};
      });
}

TEST(EvictionQueue, WeightedEqualKeysMatchReference) {
  // Double keys with many ties on distinct slots (a handful of clock values
  // shared by many elements), evicted by descending (key, slot).
  Rng rng(0xE0A1);
  run_against_reference<double>(
      20, 3, 40, std::numeric_limits<double>::infinity(), 2000,
      [&](int i) -> CoreStep<double> {
        if (i == 900) return {0, 0.0, 0, 4};
        const ElemId e = rng.next_below(std::uint64_t{300});
        return {e, 0.125 * static_cast<double>(e % 16),
                static_cast<SetId>(rng.next_below(std::uint64_t{20})), 0};
      });
}

TEST(EvictionQueue, CutoffPurgeMatchesReference) {
  // The shared bound's purge: every few hundred edges the cutoff halves and
  // every entry at or above it goes, largest (key, slot) first, which fixes
  // the free list and so the slots later elements take. Once with a budget
  // no stream can overflow (200 elements of capped degree 4: a shard behind
  // the shared bound, whose evictions all come from the bound) and once
  // with one that evicts too.
  for (const std::size_t budget : {std::size_t{800}, std::size_t{80}}) {
    Rng rng(0xB0D5 + budget);
    const Mix64Hash hash(0x3C);
    std::uint64_t cutoff = ~0ULL;
    run_against_reference<std::uint64_t>(
        30, 4, budget, ~0ULL, 1500, [&](int i) -> U64Step {
          if (i % 250 == 249) {
            cutoff >>= 1;
            return {0, cutoff, 0, 0, true};
          }
          if (i == 700) return {0, 0, 0, 5};
          const ElemId e = rng.next_below(std::uint64_t{200});
          return {e, hash(e),
                  static_cast<SetId>(rng.next_below(std::uint64_t{30})), 0};
        });
  }
  // Weighted clocks with ties at the cutoff itself: an entry whose key
  // equals the new cutoff goes too.
  for (const std::size_t budget : {std::size_t{600}, std::size_t{50}}) {
    Rng rng(0xC10C + budget);
    run_against_reference<double>(
        20, 3, budget, std::numeric_limits<double>::infinity(), 1200,
        [&](int i) -> CoreStep<double> {
          if (i % 300 == 299) {
            return {0, 0.125 * static_cast<double>(12 - i / 300), 0, 0, true};
          }
          const ElemId e = rng.next_below(std::uint64_t{200});
          return {e, 0.125 * static_cast<double>(e % 16),
                  static_cast<SetId>(rng.next_below(std::uint64_t{20})), 0};
        });
  }
}

TEST(EvictionQueue, LoneElementOverTheBudgetIsNeverEvicted) {
  // One element's capped degree (6) alone exceeds the budget (4): the
  // queue holds that single entry at the overflow and nothing is evicted.
  // A second element with a larger key evicts itself, a smaller one evicts
  // the first.
  const std::vector<U64Step> steps = {
      {7, 500, 0}, {7, 500, 1}, {7, 500, 2}, {7, 500, 3}, {7, 500, 4},
      {7, 500, 5}, {7, 500, 6}, {9, 900, 1}, {9, 900, 2}, {3, 100, 0},
      {3, 100, 1}, {5, 50, 2},  {7, 500, 7}, {3, 100, 2}};
  run_against_reference<std::uint64_t>(
      10, 6, 4, ~0ULL, static_cast<int>(steps.size()),
      [&](int i) { return steps[static_cast<std::size_t>(i)]; });
  MinHashCore<std::uint64_t> core(10, 6, 4, ~0ULL);
  for (SetId set = 0; set < 6; ++set) {
    bool created = false;
    const std::uint32_t slot = core.admit(7, 500, created);
    ASSERT_TRUE(core.add_edge(slot, set));
    core.enforce_budget();
  }
  EXPECT_EQ(core.live_elements(), 1u);
  EXPECT_EQ(core.stored_edges(), 6u);
  EXPECT_FALSE(core.saturated());
  EXPECT_EQ(core.max_live_key(), 500u);
}

// -------------------------------------------------------------- MinHashCore --

SketchParams substrate_params(SetId n, std::size_t budget, std::uint64_t seed) {
  SketchParams params;
  params.num_sets = n;
  params.k = 5;
  params.eps = 0.2;
  params.budget_mode = BudgetMode::kExplicit;
  params.explicit_budget = budget;
  params.hash_seed = seed;
  return params;
}

TEST(Substrate, SpaceStaysBoundedUnderEvictionChurn) {
  // A long stream at a tight budget churns through many evictions; slot and
  // arena free lists must recycle storage, keeping the footprint flat
  // instead of growing with the stream length.
  const SketchParams params = substrate_params(50, 400, 77);
  SubsampleSketch sketch(params);
  std::size_t words_at_tenth = 0;
  for (ElemId e = 0; e < 200000; ++e) {
    sketch.update({static_cast<SetId>(e % 50), e});
    if (e == 20000) words_at_tenth = sketch.space_words();
  }
  EXPECT_TRUE(sketch.saturated());
  EXPECT_LE(sketch.stored_edges(), 400u);
  // 10x more stream after the measurement point: footprint may not double.
  EXPECT_LE(sketch.space_words(), 2 * words_at_tenth);
}

TEST(Substrate, PurgeReleasesAndReadmitsElements) {
  // After purge, the storage is recycled and purged elements may re-enter
  // (the cutoff is untouched) — the Algorithm 6 marking-pass contract.
  const SketchParams params = substrate_params(20, 1 << 20, 31);
  SubsampleSketch sketch(params);
  for (ElemId e = 0; e < 1000; ++e) sketch.update({static_cast<SetId>(e % 20), e});
  const std::size_t space_full = sketch.space_words();
  sketch.purge([](ElemId e) { return e % 3 != 0; });
  for (ElemId e = 0; e < 1000; ++e) {
    EXPECT_EQ(sketch.is_retained(e), e % 3 == 0) << e;
  }
  // Re-admit everything; storage comes off the free lists, not fresh slab.
  for (ElemId e = 0; e < 1000; ++e) sketch.update({static_cast<SetId>(e % 20), e});
  EXPECT_EQ(sketch.retained_elements(), 1000u);
  EXPECT_LE(sketch.space_words(), space_full);
}

TEST(Substrate, RepeatedPurgeChurnKeepsCountsConsistent) {
  Rng rng(0xC0FFEE);
  const GeneratedInstance gen = make_uniform(30, 600, 15, 9);
  const auto edges = ordered_edges(gen.graph, ArrivalOrder::kRandom, 2);
  SubsampleSketch sketch(substrate_params(30, 900, 5));
  for (int round = 0; round < 30; ++round) {
    for (const Edge& edge : edges) sketch.update(edge);
    const std::uint64_t modulus = 2 + rng.next_below(std::uint64_t{6});
    sketch.purge([modulus](ElemId e) { return e % modulus == 0; });
    // Count live elements independently through the view.
    const SketchView view = sketch.view();
    ASSERT_EQ(view.num_retained, sketch.retained_elements()) << round;
    ASSERT_EQ(view.num_edges(), sketch.stored_edges()) << round;
  }
}

TEST(Substrate, StreamedVersusShardedMergeBitForBit) {
  // Shard the stream W ways, merge, and require the merged sketch to be
  // indistinguishable from the single-stream sketch — retained set, edge
  // lists, and realized threshold — across seeds and shard counts.
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    const GeneratedInstance gen = make_zipf(40, 2000, 8, 60, 0.9, 1.2, seed);
    const auto edges = ordered_edges(gen.graph, ArrivalOrder::kRandom, seed);
    const SketchParams params = substrate_params(40, 700, 1000 + seed);

    SubsampleSketch whole(params);
    for (const Edge& edge : edges) whole.update(edge);

    for (const std::size_t shards : {2u, 3u, 7u}) {
      std::vector<SubsampleSketch> parts;
      for (std::size_t s = 0; s < shards; ++s) parts.emplace_back(params);
      for (std::size_t i = 0; i < edges.size(); ++i) {
        parts[i % shards].update(edges[i]);
      }
      SubsampleSketch merged = std::move(parts.front());
      for (std::size_t s = 1; s < shards; ++s) merged.merge_from(parts[s]);

      ASSERT_EQ(merged.retained_elements(), whole.retained_elements());
      ASSERT_EQ(merged.stored_edges(), whole.stored_edges());
      ASSERT_DOUBLE_EQ(merged.p_star(), whole.p_star());
      for (ElemId e = 0; e < gen.graph.num_elems(); ++e) {
        const auto a = merged.sets_of(e);
        const auto b = whole.sets_of(e);
        ASSERT_EQ(a.size(), b.size()) << "seed " << seed << " elem " << e;
        ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
      }
    }
  }
}

TEST(Substrate, OfflineEqualsStreamedBitForBitPerSeed) {
  // Regression for the offline-equivalence contract on the flat layout:
  // Algorithm 1 and the streaming eviction build identical sketches,
  // checked edge-list-for-edge-list across several hash seeds.
  const GeneratedInstance gen = make_uniform(50, 900, 18, 12);
  for (const std::uint64_t seed : {11ULL, 222ULL, 3333ULL, 44444ULL}) {
    SketchParams params = substrate_params(50, 350, seed);
    params.enforce_degree_cap = false;  // uncapped: lists must match exactly

    const SubsampleSketch offline = SubsampleSketch::build_offline(gen.graph, params);
    SubsampleSketch streamed(params);
    VectorStream stream(ordered_edges(gen.graph, ArrivalOrder::kRandom, seed));
    streamed.consume(stream);

    ASSERT_EQ(streamed.retained_elements(), offline.retained_elements()) << seed;
    ASSERT_EQ(streamed.stored_edges(), offline.stored_edges()) << seed;
    ASSERT_DOUBLE_EQ(streamed.p_star(), offline.p_star()) << seed;
    for (ElemId e = 0; e < gen.graph.num_elems(); ++e) {
      const auto a = streamed.sets_of(e);
      const auto b = offline.sets_of(e);
      ASSERT_EQ(a.size(), b.size()) << "seed " << seed << " elem " << e;
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
    }
  }
}

}  // namespace
}  // namespace covstream
