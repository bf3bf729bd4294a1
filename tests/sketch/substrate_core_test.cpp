// Tests for the flat-storage sketch substrate (src/sketch/substrate/):
// the open-addressing element table, the pooled edge arena, the indexed
// slot heap, and the invariants the ported sketches rely on — arena reuse
// under eviction/purge churn, streamed-vs-sharded merge equivalence, and
// bit-for-bit build_offline regression across seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "core/subsample_sketch.hpp"
#include "sketch/substrate/edge_arena.hpp"
#include "sketch/substrate/flat_table.hpp"
#include "sketch/substrate/minhash_core.hpp"
#include "sketch/substrate/slot_heap.hpp"
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

// ----------------------------------------------------------------- SlotHeap --

TEST(SlotHeap, PopsInDescendingKeyOrder) {
  SlotHeap<std::uint64_t> heap;
  Rng rng(0x4EA9);
  std::vector<std::uint64_t> keys;
  for (std::uint32_t slot = 0; slot < 500; ++slot) {
    const std::uint64_t key = rng.next();
    keys.push_back(key);
    heap.push(key, slot);
  }
  std::sort(keys.begin(), keys.end(), std::greater<>());
  for (const std::uint64_t expected : keys) {
    ASSERT_EQ(heap.pop_max().key, expected);
  }
  EXPECT_TRUE(heap.empty());
}

TEST(SlotHeap, InPlaceRemovalKeepsOrder) {
  SlotHeap<std::uint64_t> heap;
  Rng rng(0x9E4B);
  std::set<std::pair<std::uint64_t, std::uint32_t>> reference;
  for (std::uint32_t slot = 0; slot < 300; ++slot) {
    const std::uint64_t key = rng.next();
    heap.push(key, slot);
    reference.emplace(key, slot);
  }
  // Remove a random half in place.
  for (std::uint32_t slot = 0; slot < 300; slot += 2) {
    ASSERT_TRUE(heap.contains(slot));
    reference.erase({heap.key_of(slot), slot});
    heap.remove(slot);
    EXPECT_FALSE(heap.contains(slot));
  }
  while (!heap.empty()) {
    const auto max = heap.pop_max();
    ASSERT_FALSE(reference.empty());
    EXPECT_EQ(max.key, reference.rbegin()->first);
    EXPECT_EQ(max.slot, reference.rbegin()->second);
    reference.erase(std::prev(reference.end()));
  }
  EXPECT_TRUE(reference.empty());
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
