// The edge arena's bitmap form (DESIGN.md §5.6) on small set universes.
//
// A bitmap block covers the universe in ⌈n/32⌉ words rounded up to a power
// of two, at least 4: at n = 64 and n = 100 that is 4 words, so every list
// of 5 or more sets is a bitmap; at n = 150 it is 8. On these instances most
// multi-set lists are bitmaps, and each one runs through the substrate's
// invariants — streamed == offline, batch == per-edge, merge == single
// stream, pooled == serial, load(save(S)) continuing identically, and
// tracked space == audit space — for the unweighted and weighted sketch.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "core/distributed.hpp"
#include "core/subsample_sketch.hpp"
#include "core/weighted_sketch.hpp"
#include "parallel/thread_pool.hpp"
#include "sketch/substrate/edge_arena.hpp"
#include "sketch/substrate/minhash_core.hpp"
#include "stream/arrival_order.hpp"
#include "stream/edge_stream.hpp"
#include "util/rng.hpp"
#include "workloads/generators.hpp"

namespace covstream {
namespace {

struct Universe {
  SetId n;
  ElemId m;
  std::size_t set_size;  // average element degree n * set_size / m: 13-30
};
constexpr Universe kUniverses[] = {{64, 300, 60}, {100, 500, 80}, {150, 600, 120}};

SketchParams universe_params(SetId n, std::size_t budget, bool capped,
                             std::uint64_t seed) {
  SketchParams params;
  params.num_sets = n;
  params.k = 20;  // at eps = 0.3 the cap is about n / 5: past W, and binding
  params.eps = 0.3;
  params.budget_mode = BudgetMode::kExplicit;
  params.explicit_budget = budget;
  params.enforce_degree_cap = capped;
  params.hash_seed = seed;
  return params;
}

template <typename T>
std::vector<std::uint8_t> image_of(const T& object) {
  SnapshotWriter writer(T::kSnapshotType);
  object.save(writer);
  return writer.finish();
}

template <typename T>
T reload(const T& object) {
  SnapshotReader reader(image_of(object));
  std::optional<T> loaded = T::load_snapshot(reader);
  EXPECT_TRUE(loaded.has_value()) << reader.error();
  EXPECT_TRUE(reader.at_end());
  return std::move(*loaded);
}

/// Requires a bitmap majority among the sketch's multi-set lists, so the
/// instance really exercises the form (the form is a function of the size).
void expect_mostly_bitmaps(const SubsampleSketch& sketch, ElemId m) {
  const std::size_t block = EdgeArena(sketch.params().num_sets).bitmap_words();
  std::size_t multi = 0;
  std::size_t bitmaps = 0;
  for (ElemId e = 0; e < m; ++e) {
    const std::size_t size = sketch.sets_of(e).size();
    multi += size >= 2;
    bitmaps += size > block;
  }
  EXPECT_GT(2 * bitmaps, multi) << bitmaps << " bitmaps of " << multi;
}

void expect_same_lists(const SubsampleSketch& a, const SubsampleSketch& b,
                       ElemId m) {
  ASSERT_EQ(a.retained_elements(), b.retained_elements());
  ASSERT_EQ(a.stored_edges(), b.stored_edges());
  ASSERT_EQ(a.admission_cutoff(), b.admission_cutoff());
  ASSERT_EQ(a.p_star(), b.p_star());
  for (ElemId e = 0; e < m; ++e) ASSERT_EQ(a.sets_of(e), b.sets_of(e)) << e;
}

std::vector<Edge> stream_of(const Universe& u, std::uint64_t seed) {
  const GeneratedInstance gen = make_uniform(u.n, u.m, u.set_size, seed);
  return ordered_edges(gen.graph, ArrivalOrder::kRandom, seed + 1);
}

TEST(BitmapForm, StreamedEqualsOffline) {
  for (const Universe& u : kUniverses) {
    SCOPED_TRACE(u.n);
    const GeneratedInstance gen = make_uniform(u.n, u.m, u.set_size, u.n);
    const std::vector<Edge> edges =
        ordered_edges(gen.graph, ArrivalOrder::kRandom, 3);
    for (const std::size_t budget : {std::size_t{1} << 20, edges.size() / 3}) {
      // Uncapped: the offline builder keeps whole lists, so they must match
      // set for set.
      const SketchParams params = universe_params(u.n, budget, false, 0xB17);
      SubsampleSketch streamed(params);
      streamed.update_chunk(edges);
      const SubsampleSketch offline =
          SubsampleSketch::build_offline(gen.graph, params);
      expect_same_lists(streamed, offline, u.m);
      expect_mostly_bitmaps(streamed, u.m);
    }
  }
}

TEST(BitmapForm, BatchEqualsPerEdge) {
  for (const Universe& u : kUniverses) {
    SCOPED_TRACE(u.n);
    const std::vector<Edge> edges = stream_of(u, 0x5EED + u.n);
    for (const bool capped : {false, true}) {
      const SketchParams params =
          universe_params(u.n, edges.size() / 4, capped, 0xBA7C);
      SubsampleSketch per_edge(params);
      for (const Edge& edge : edges) per_edge.update(edge);
      for (const std::size_t chunk : {std::size_t{7}, edges.size()}) {
        SubsampleSketch batched(params);
        for (std::size_t at = 0; at < edges.size(); at += chunk) {
          batched.update_chunk(std::span<const Edge>(edges).subspan(
              at, std::min(chunk, edges.size() - at)));
        }
        EXPECT_EQ(image_of(batched), image_of(per_edge)) << "chunk " << chunk;
      }
    }
  }
}

TEST(BitmapForm, MergeEqualsSingleStreamAndPooledEqualsSerial) {
  ThreadPool pool(2);
  for (const Universe& u : kUniverses) {
    SCOPED_TRACE(u.n);
    const std::vector<Edge> edges = stream_of(u, 0x3E46 + u.n);
    // Round-robin shards split every element, so the merge takes the union
    // path (decode both lists, union, re-encode); uncapped, any split is
    // exact.
    const SketchParams uncapped =
        universe_params(u.n, edges.size() / 3, false, 0x3E46);
    SubsampleSketch whole(uncapped);
    whole.update_chunk(edges);
    std::vector<SubsampleSketch> shards(3, SubsampleSketch(uncapped));
    for (std::size_t i = 0; i < edges.size(); ++i) shards[i % 3].update(edges[i]);
    shards[1].merge_from(shards[2]);
    shards[0].merge_from(shards[1]);
    expect_same_lists(shards[0], whole, u.m);

    // Hash-routed shards keep each element whole, so the merge copies
    // bitmap blocks; that stays exact even where the degree cap binds —
    // pooled (4 shards on the pool, shared cutoff) and serial alike.
    const SketchParams capped =
        universe_params(u.n, edges.size() / 3, true, 0x3E47);
    SubsampleSketch serial(capped);
    serial.update_chunk(edges);
    for (ThreadPool* on : {static_cast<ThreadPool*>(nullptr), &pool}) {
      ShardedSketchBuilder builder(capped, 4, on);
      VectorStream stream(edges);
      builder.consume(stream, 256);
      expect_same_lists(builder.finalize(), serial, u.m);
    }
  }
}

TEST(BitmapForm, SnapshotContinuesIdentically) {
  for (const Universe& u : kUniverses) {
    SCOPED_TRACE(u.n);
    const std::vector<Edge> edges = stream_of(u, 0x5A7E + u.n);
    const std::span<const Edge> all(edges);
    const std::size_t split = edges.size() / 2;
    SubsampleSketch original(universe_params(u.n, edges.size() / 4, true, 0x5A7E));
    original.update_chunk(all.first(split));
    SubsampleSketch loaded = reload(original);
    ASSERT_EQ(image_of(loaded), image_of(original));
    original.update_chunk(all.subspan(split));
    loaded.update_chunk(all.subspan(split));
    EXPECT_EQ(image_of(loaded), image_of(original));
  }
}

TEST(BitmapForm, TrackedSpaceEqualsAuditSpace) {
  // The core directly, at n = 100 (4-word bitmaps) with a cap of 40: batched
  // and per-edge admission, eviction churn, purge, and both merge paths.
  constexpr SetId kSets = 100;
  Rng rng(0x7AC4);
  const Mix64Hash hash(rng.next());
  MinHashCore<std::uint64_t> core(kSets, 40, 900, ~0ULL);
  MinHashCore<std::uint64_t> other(kSets, 40, 900, ~0ULL);
  std::vector<ElemId> elems;
  std::vector<std::uint64_t> keys;
  std::vector<SetId> sets;
  for (int round = 0; round < 40; ++round) {
    elems.clear();
    keys.clear();
    sets.clear();
    for (int i = 0; i < 300; ++i) {
      const ElemId e = rng.next_below(std::uint64_t{120});
      elems.push_back(e);
      keys.push_back(hash(e));
      sets.push_back(static_cast<SetId>(rng.next_below(std::uint64_t{kSets})));
    }
    MinHashCore<std::uint64_t>& target = round % 3 == 2 ? other : core;
    const auto add = [&target, &sets](std::size_t i, std::uint32_t slot) {
      if (target.add_edge(slot, sets[i])) target.enforce_budget();
    };
    if (round % 2 == 0) {
      target.admit_batch(
          elems, keys, [&sets](std::size_t i) { return sets[i]; },
          [&add](std::size_t i, std::uint32_t slot, bool) { add(i, slot); });
    } else {
      for (std::size_t i = 0; i < elems.size(); ++i) {
        bool created = false;
        const std::uint32_t slot = target.admit(elems[i], keys[i], created);
        if (slot != MinHashCore<std::uint64_t>::kNoSlot) add(i, slot);
      }
    }
    ASSERT_EQ(target.tracked_space_words(), target.space_words()) << round;
  }
  std::size_t longest = 0;
  for (std::uint32_t slot = 0; slot < core.slot_count(); ++slot) {
    if (!core.alive(slot)) continue;
    std::size_t size = 0;
    core.for_each_edge(slot, [&size](SetId) { ++size; });
    longest = std::max(longest, size);
  }
  EXPECT_GT(longest, 4u);  // bitmaps are in play
  core.purge([](ElemId e) { return e % 3 == 0; });
  ASSERT_EQ(core.tracked_space_words(), core.space_words());
  core.merge_from(other);
  core.enforce_budget();
  EXPECT_EQ(core.tracked_space_words(), core.space_words());
  EXPECT_GE(core.peak_space_words(), core.tracked_space_words());
}

TEST(BitmapForm, WeightedSketchHoldsEveryInvariant) {
  for (const Universe& u : kUniverses) {
    SCOPED_TRACE(u.n);
    std::vector<WeightedEdge> edges;
    for (const Edge& edge : stream_of(u, 0x3E16 + u.n)) {
      edges.push_back({edge.set, edge.elem, 1.0 + static_cast<double>(edge.elem % 7)});
    }
    const std::span<const WeightedEdge> all(edges);
    std::vector<std::vector<SetId>> families;
    Rng rng(u.n);
    for (int f = 0; f < 20; ++f) {
      std::vector<SetId> family;
      for (SetId s = 0; s < u.n; ++s) {
        if (rng.next_bool(0.1)) family.push_back(s);
      }
      families.push_back(std::move(family));
    }
    const auto expect_same = [&families](const WeightedSubsampleSketch& a,
                                         const WeightedSubsampleSketch& b) {
      ASSERT_EQ(a.retained_elements(), b.retained_elements());
      ASSERT_EQ(a.stored_edges(), b.stored_edges());
      ASSERT_EQ(a.tau_star(), b.tau_star());
      // Estimates sum HT values in slot (or family) order, so sketches with
      // different slot numberings agree to rounding, not to the bit.
      const WeightedSketchView view = a.view();
      for (const std::vector<SetId>& family : families) {
        ASSERT_DOUBLE_EQ(a.estimate_weighted_coverage(family),
                         b.estimate_weighted_coverage(family));
        ASSERT_NEAR(view.estimate_weighted_coverage(family),
                    a.estimate_weighted_coverage(family), 1e-9);
      }
    };
    // Uncapped, so the round-robin merge below is exact too.
    const SketchParams params =
        universe_params(u.n, edges.size() / 3, false, 0x3E16);
    WeightedSubsampleSketch per_edge(params);
    for (const WeightedEdge& edge : edges) per_edge.update(edge);
    WeightedSubsampleSketch batched(params);
    for (std::size_t at = 0; at < edges.size(); at += 64) {
      batched.update_chunk(all.subspan(at, std::min<std::size_t>(64, edges.size() - at)));
    }
    EXPECT_EQ(image_of(batched), image_of(per_edge));
    expect_same(batched, per_edge);

    WeightedSubsampleSketch left(params), right(params);
    for (std::size_t i = 0; i < edges.size(); ++i) {
      (i % 2 == 0 ? left : right).update(edges[i]);
    }
    left.merge_from(right);
    expect_same(left, per_edge);

    const std::size_t split = edges.size() / 2;
    WeightedSubsampleSketch original(params);
    original.update_chunk(all.first(split));
    WeightedSubsampleSketch loaded = reload(original);
    original.update_chunk(all.subspan(split));
    loaded.update_chunk(all.subspan(split));
    EXPECT_EQ(image_of(loaded), image_of(original));
  }
}

}  // namespace
}  // namespace covstream
