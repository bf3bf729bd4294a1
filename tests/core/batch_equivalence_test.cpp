// Bit-for-bit equivalence of the chunk-vectorized admission path
// (DESIGN.md §5.8) against the per-edge path: same retained slots, same
// cutoffs, same stored edges, same peak-space values — across chunk sizes
// (1 / 7 / 4096 / exact), repeated arrivals, weighted and unweighted keys,
// and chunks that cross the saturation point mid-chunk. Also pins the ladder's
// shared-key sweep against standalone per-edge sketches, and the substrate's
// incremental space counter against the audit re-sum.
//
// The SimdEquivalence suite is the forced-ISA leg (DESIGN.md §5.11): the
// same fuzz corpus run once per kernel tier (scalar, AVX2) must produce
// bit-for-bit identical sketches, and the four raw kernels must agree on
// misaligned spans of every awkward length. CI runs the whole file twice
// under COVSTREAM_ISA=scalar and =avx2; the direct cross-tier tests skip
// visibly on machines without AVX2.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <vector>

#include "core/sketch_ladder.hpp"
#include "core/subsample_sketch.hpp"
#include "core/weighted_sketch.hpp"
#include "hash/simd/kernels.hpp"
#include "sketch/substrate/minhash_core.hpp"
#include "stream/arrival_order.hpp"
#include "util/rng.hpp"
#include "workloads/generators.hpp"

namespace covstream {
namespace {

constexpr std::size_t kChunkSizes[] = {1, 7, 4096, 0};  // 0 = whole stream

void feed_chunked(SubsampleSketch& sketch, const std::vector<Edge>& edges,
                  std::size_t chunk) {
  const std::span<const Edge> all(edges);
  if (chunk == 0) chunk = edges.empty() ? 1 : edges.size();
  for (std::size_t at = 0; at < all.size(); at += chunk) {
    sketch.update_chunk(all.subspan(at, std::min(chunk, all.size() - at)));
  }
}

/// Full-state comparison: counts, realized threshold, per-element edge
/// lists, and both space figures (peak equality is what proves the batched
/// path's incremental accounting touched the counter identically).
void expect_same_sketch(const SubsampleSketch& a, const SubsampleSketch& b,
                        const std::vector<Edge>& edges, const char* what) {
  ASSERT_EQ(a.retained_elements(), b.retained_elements()) << what;
  ASSERT_EQ(a.stored_edges(), b.stored_edges()) << what;
  ASSERT_EQ(a.saturated(), b.saturated()) << what;
  ASSERT_DOUBLE_EQ(a.p_star(), b.p_star()) << what;
  ASSERT_EQ(a.space_words(), b.space_words()) << what;
  ASSERT_EQ(a.peak_space_words(), b.peak_space_words()) << what;
  std::set<ElemId> elems;
  for (const Edge& edge : edges) elems.insert(edge.elem);
  for (const ElemId elem : elems) {
    ASSERT_EQ(a.is_retained(elem), b.is_retained(elem)) << what << " elem " << elem;
    const auto sa = a.sets_of(elem);
    const auto sb = b.sets_of(elem);
    ASSERT_TRUE(std::equal(sa.begin(), sa.end(), sb.begin(), sb.end()))
        << what << " elem " << elem;
  }
}

SketchParams fuzz_params(Rng& rng, SetId n) {
  SketchParams params;
  params.num_sets = n;
  params.k = 1 + static_cast<std::uint32_t>(rng.next_below(std::uint64_t{12}));
  params.eps = 0.05 + 0.9 * rng.next_unit();
  params.budget_mode = BudgetMode::kExplicit;
  params.explicit_budget = 8 + rng.next_below(std::uint64_t{1200});
  params.enforce_degree_cap = rng.next_bool(0.7);
  params.hash_seed = rng.next();
  return params;
}

TEST(BatchEquivalence, UnweightedChunksMatchPerEdge) {
  Rng rng(0xBA7C4ED0ULL);
  for (int trial = 0; trial < 24; ++trial) {
    const SetId n = 5 + static_cast<SetId>(rng.next_below(std::uint64_t{40}));
    const ElemId m = 10 + rng.next_below(std::uint64_t{500});
    const GeneratedInstance gen =
        make_uniform(n, m, 1 + rng.next_below(std::uint64_t{30}), rng.next());
    const SketchParams params = fuzz_params(rng, n);
    std::vector<Edge> edges = ordered_edges(gen.graph, ArrivalOrder::kRandom, rng.next());
    // Duplicate arrivals exercise dedupe on both paths.
    for (std::size_t d = rng.next_below(std::uint64_t{20}); d > 0 && !edges.empty(); --d) {
      edges.push_back(edges[rng.next_below(edges.size())]);
    }

    SubsampleSketch per_edge(params);
    for (const Edge& edge : edges) per_edge.update(edge);

    for (const std::size_t chunk : kChunkSizes) {
      SubsampleSketch batched(params);
      feed_chunked(batched, edges, chunk);
      expect_same_sketch(per_edge, batched, edges,
                         chunk == 0 ? "exact chunk" : "chunk");
    }
  }
}

TEST(BatchEquivalence, MidChunkSaturationCrossing) {
  // A tiny budget forces the cutoff to fall while a single huge chunk is in
  // flight: the survivor loop must re-check the live cutoff, not the
  // chunk-entry one.
  Rng rng(0x5A7C0DE5ULL);
  for (int trial = 0; trial < 12; ++trial) {
    const SetId n = 10 + static_cast<SetId>(rng.next_below(std::uint64_t{30}));
    // >= 10n edges against a budget of at most 27 stored edges: the cutoff
    // must fall long before the (single) chunk ends.
    const GeneratedInstance gen =
        make_uniform(n, 400 + rng.next_below(std::uint64_t{600}),
                     10 + rng.next_below(std::uint64_t{10}), rng.next());
    SketchParams params = fuzz_params(rng, n);
    params.explicit_budget = 8 + rng.next_below(std::uint64_t{20});
    const auto edges = ordered_edges(gen.graph, ArrivalOrder::kRandom, rng.next());

    SubsampleSketch per_edge(params);
    for (const Edge& edge : edges) per_edge.update(edge);
    ASSERT_TRUE(per_edge.saturated()) << "trial must cross the cutoff";

    SubsampleSketch one_chunk(params);
    one_chunk.update_chunk(edges);
    expect_same_sketch(per_edge, one_chunk, edges, "one giant chunk");
  }
}

TEST(BatchEquivalence, LookaheadPipelineMatchesPerEdge) {
  // A sketch past MinHashCore::kLookaheadWords runs all three prefetch
  // stages (bucket; find + slot record; slab word) in both regimes: the
  // footprint crosses the threshold before the first eviction, so later
  // unsaturated chunks take the dense sweep with lookahead and saturated
  // ones the survivor list, over heavy-head zipf lists in every form. The
  // hints must change nothing: the chunked sketch's image is the per-edge
  // one.
  const GeneratedInstance gen = make_zipf(500, 400000, 500, 5000, 0.8, 1.1, 77);
  const auto edges = ordered_edges(gen.graph, ArrivalOrder::kRandom, 78);
  SketchParams params;
  params.num_sets = 500;
  params.k = 50;
  params.eps = 0.15 / 12;  // the cap (~4k) never binds
  params.budget_mode = BudgetMode::kExplicit;
  params.explicit_budget = edges.size() * 3 / 4;
  params.hash_seed = 0x100CA;

  SubsampleSketch per_edge(params);
  std::size_t words_at_saturation = 0;
  for (const Edge& edge : edges) {
    per_edge.update(edge);
    if (words_at_saturation == 0 && per_edge.saturated()) {
      words_at_saturation = per_edge.space_words();
    }
  }
  ASSERT_GT(words_at_saturation, MinHashCore<std::uint64_t>::kLookaheadWords);
  SubsampleSketch chunked(params);
  feed_chunked(chunked, edges, 4096);
  expect_same_sketch(per_edge, chunked, edges, "lookahead chunks");
  SnapshotWriter a(SubsampleSketch::kSnapshotType);
  SnapshotWriter b(SubsampleSketch::kSnapshotType);
  per_edge.save(a);
  chunked.save(b);
  EXPECT_EQ(a.finish(), b.finish());
}

TEST(BatchEquivalence, WeightedChunksMatchPerEdge) {
  Rng rng(0x3E167EDULL);
  for (int trial = 0; trial < 16; ++trial) {
    const SetId n = 5 + static_cast<SetId>(rng.next_below(std::uint64_t{30}));
    const GeneratedInstance gen =
        make_uniform(n, 10 + rng.next_below(std::uint64_t{400}),
                     1 + rng.next_below(std::uint64_t{20}), rng.next());
    const SketchParams params = fuzz_params(rng, n);
    std::vector<WeightedEdge> edges;
    for (const Edge& edge : ordered_edges(gen.graph, ArrivalOrder::kRandom, rng.next())) {
      // Weight is a function of the element, as the sketch requires.
      edges.push_back({edge.set, edge.elem,
                       1.0 + static_cast<double>(edge.elem % 9)});
    }

    WeightedSubsampleSketch per_edge(params);
    for (const WeightedEdge& edge : edges) per_edge.update(edge);

    for (std::size_t chunk : kChunkSizes) {
      WeightedSubsampleSketch batched(params);
      if (chunk == 0) chunk = edges.empty() ? 1 : edges.size();
      const std::span<const WeightedEdge> all(edges);
      for (std::size_t at = 0; at < all.size(); at += chunk) {
        batched.update_chunk(all.subspan(at, std::min(chunk, all.size() - at)));
      }
      ASSERT_EQ(per_edge.retained_elements(), batched.retained_elements());
      ASSERT_EQ(per_edge.stored_edges(), batched.stored_edges());
      ASSERT_EQ(per_edge.saturated(), batched.saturated());
      ASSERT_DOUBLE_EQ(per_edge.tau_star(), batched.tau_star());
      ASSERT_EQ(per_edge.space_words(), batched.space_words());
      ASSERT_EQ(per_edge.peak_space_words(), batched.peak_space_words());
      std::vector<SetId> family;
      for (SetId s = 0; s < n; s += 2) family.push_back(s);
      ASSERT_DOUBLE_EQ(per_edge.estimate_weighted_coverage(family),
                       batched.estimate_weighted_coverage(family));
    }
  }
}

std::vector<SketchParams> ladder_grid(SetId n, std::uint64_t seed) {
  std::vector<SketchParams> rungs;
  for (const std::uint32_t k : {1u, 2u, 4u, 8u, 16u, 32u}) {
    SketchParams params;
    params.num_sets = n;
    params.k = k;
    params.eps = 0.25;
    params.budget_mode = BudgetMode::kExplicit;
    params.explicit_budget = 120 + 60 * k;
    params.hash_seed = seed;
    rungs.push_back(params);
  }
  return rungs;
}

TEST(BatchEquivalence, LadderSharedKeysMatchPerRungHash) {
  const GeneratedInstance gen = make_uniform(40, 2000, 25, 31);
  const auto edges = ordered_edges(gen.graph, ArrivalOrder::kRandom, 7);
  const auto rung_params = ladder_grid(40, 0xFEEDULL);

  SketchLadder shared(rung_params, nullptr);
  shared.update_chunk(edges);

  for (std::size_t r = 0; r < rung_params.size(); ++r) {
    SubsampleSketch standalone(rung_params[r]);
    for (const Edge& edge : edges) standalone.update(edge);
    expect_same_sketch(standalone, shared.rung(r), edges, "shared-key rung");
  }
}

TEST(BatchEquivalence, LadderAllSaturatedSharedCandidatesMatch) {
  // Tiny budgets saturate every rung early, engaging the shared candidate
  // pre-filter (one sweep against the max rung cutoff per block); rungs
  // must still admit exactly what per-edge updates would.
  const GeneratedInstance gen = make_uniform(30, 3000, 80, 53);
  const auto edges = ordered_edges(gen.graph, ArrivalOrder::kRandom, 13);
  std::vector<SketchParams> rung_params;
  for (const std::uint32_t k : {1u, 2u, 4u, 8u}) {
    SketchParams params;
    params.num_sets = 30;
    params.k = k;
    params.eps = 0.25;
    params.budget_mode = BudgetMode::kExplicit;
    params.explicit_budget = 30 + 15 * k;
    params.hash_seed = 0x5EEDULL;
    rung_params.push_back(params);
  }

  SketchLadder shared(rung_params, nullptr);
  VectorStream stream(edges);
  shared.consume(stream, {}, 512);

  for (std::size_t r = 0; r < rung_params.size(); ++r) {
    ASSERT_TRUE(shared.rung(r).saturated()) << "rung " << r;
    SubsampleSketch standalone(rung_params[r]);
    for (const Edge& edge : edges) standalone.update(edge);
    expect_same_sketch(standalone, shared.rung(r), edges, "saturated rung");
  }
}

TEST(BatchEquivalence, LadderConsumeMatchesPerEdgeUpdates) {
  // The engine path (consume -> chunks -> shared hash sweep) over a pool
  // against standalone sketches fed edge by edge (sketches independent).
  const GeneratedInstance gen = make_uniform(25, 1200, 15, 41);
  const auto edges = ordered_edges(gen.graph, ArrivalOrder::kRandom, 11);
  const auto rung_params = ladder_grid(25, 0x1234ULL);

  ThreadPool pool(3);
  SketchLadder pooled(rung_params, &pool);
  VectorStream stream(edges);
  pooled.consume(stream, {}, 256);  // small batches force many chunks

  for (std::size_t r = 0; r < rung_params.size(); ++r) {
    SubsampleSketch per_edge(rung_params[r]);
    for (const Edge& edge : edges) per_edge.update(edge);
    expect_same_sketch(per_edge, pooled.rung(r), edges, "consume rung");
  }
}

TEST(BatchEquivalence, TrackedSpaceMatchesAuditUnderChurn) {
  // Drives MinHashCore directly through every mutation shape — batched and
  // per-edge admission, eviction churn, purge, merge — asserting the
  // incrementally tracked footprint equals the audit re-sum throughout.
  // Caps of 5 and 6 push lists past the 4-word bitmap block of 40 sets.
  constexpr SetId kSets = 40;
  Rng rng(0x70AC4EDULL);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t cap = 1 + rng.next_below(std::uint64_t{6});
    const std::size_t budget = 20 + rng.next_below(std::uint64_t{200});
    MinHashCore<std::uint64_t> core(kSets, cap, budget, ~0ULL);
    MinHashCore<std::uint64_t> other(kSets, cap, budget, ~0ULL);
    const Mix64Hash hash(rng.next());

    std::vector<ElemId> elems;
    std::vector<std::uint64_t> keys;
    std::vector<SetId> sets;
    for (int round = 0; round < 30; ++round) {
      const std::size_t chunk = 1 + rng.next_below(std::uint64_t{200});
      elems.clear();
      keys.clear();
      sets.clear();
      for (std::size_t i = 0; i < chunk; ++i) {
        const ElemId e = rng.next_below(std::uint64_t{500});
        elems.push_back(e);
        keys.push_back(hash(e));
        sets.push_back(static_cast<SetId>(rng.next_below(std::uint64_t{kSets})));
      }
      MinHashCore<std::uint64_t>& target = round % 3 == 2 ? other : core;
      if (round % 2 == 0) {
        target.admit_batch(
            elems, keys, [&](std::size_t i) { return sets[i]; },
            [&](std::size_t i, std::uint32_t slot, bool) {
              if (target.add_edge(slot, sets[i])) target.enforce_budget();
            });
      } else {
        for (std::size_t i = 0; i < chunk; ++i) {
          bool created = false;
          const std::uint32_t slot = target.admit(elems[i], keys[i], created);
          if (slot == MinHashCore<std::uint64_t>::kNoSlot) continue;
          if (target.add_edge(slot, sets[i])) target.enforce_budget();
        }
      }
      ASSERT_EQ(target.tracked_space_words(), target.space_words())
          << "trial " << trial << " round " << round;
      ASSERT_GE(target.peak_space_words(), target.tracked_space_words());
    }

    core.purge([](ElemId e) { return e % 3 == 0; });
    ASSERT_EQ(core.tracked_space_words(), core.space_words());
    core.merge_from(other);
    core.enforce_budget();
    ASSERT_EQ(core.tracked_space_words(), core.space_words());
    ASSERT_GE(core.peak_space_words(), core.tracked_space_words());
  }
}

// ------------------------------------------------------- forced-ISA leg --

/// Pins the process-wide kernel dispatch to one tier for a scope, restoring
/// the previous tier on exit (other suites in this binary must keep running
/// under whatever COVSTREAM_ISA selected).
class IsaGuard {
 public:
  explicit IsaGuard(IsaLevel level) : prev_(active_isa()) {
    set_isa_override(level);
  }
  ~IsaGuard() { set_isa_override(prev_); }
  IsaGuard(const IsaGuard&) = delete;
  IsaGuard& operator=(const IsaGuard&) = delete;

 private:
  IsaLevel prev_;
};

// Every awkward sweep length: below one vector, exactly one vector, odd
// head+tail around the 4/8/16-lane strides, and a full L1 block.
constexpr std::size_t kSweepSizes[] = {1, 3, 7, 8, 31, 4096};

TEST(SimdEquivalence, KernelSweepsMatchScalarOnMisalignedSpans) {
  if (best_supported_isa() != IsaLevel::kAvx2) {
    GTEST_SKIP() << "CPU has no AVX2; the scalar tier is the only tier here";
  }
  const simd::KernelTable& scalar = simd::kernels_for(IsaLevel::kScalar);
  const simd::KernelTable& avx2 = simd::kernels_for(IsaLevel::kAvx2);
  ASSERT_EQ(avx2.isa, IsaLevel::kAvx2);

  Rng rng(0x51D0FACEULL);
  std::vector<std::uint64_t> tables(8 * 256);
  for (std::uint64_t& entry : tables) entry = rng.next();

  for (const std::size_t size : kSweepSizes) {
    // Offsetting the span start breaks any 32-byte phase the buffer had:
    // the vector loops must handle unaligned loads and scalar tails.
    for (const std::size_t offset : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
      if (offset >= size) continue;
      const std::size_t n = size - offset;
      std::vector<std::uint64_t> elems(size);
      for (std::uint64_t& e : elems) {
        // Mostly small ids (realistic element universe) with occasional
        // full-width values to exercise every byte lane of the tabulation.
        e = rng.next_bool(0.25) ? rng.next() : rng.next_below(std::uint64_t{100000});
      }
      const std::uint64_t* in = elems.data() + offset;
      const std::uint64_t salt = rng.next();
      std::vector<std::uint64_t> keys_scalar(n), keys_avx2(n);

      scalar.mix64_batch(in, keys_scalar.data(), n, salt);
      avx2.mix64_batch(in, keys_avx2.data(), n, salt);
      ASSERT_EQ(keys_scalar, keys_avx2) << "mix64 n=" << n << " off=" << offset;

      scalar.tabulation_batch(tables.data(), in, keys_scalar.data(), n);
      avx2.tabulation_batch(tables.data(), in, keys_avx2.data(), n);
      ASSERT_EQ(keys_scalar, keys_avx2)
          << "tabulation n=" << n << " off=" << offset;

      // The fused AoS sweep: in-bounds edges must reproduce mix64_batch's
      // keys (plus the extracted elems) on both tiers; one out-of-bounds
      // set anywhere must turn the return value false on both tiers.
      const std::uint32_t set_bound =
          1 + static_cast<std::uint32_t>(rng.next_below(std::uint64_t{5000}));
      std::vector<Edge> edges(n);
      for (std::size_t i = 0; i < n; ++i) {
        edges[i] = {static_cast<SetId>(rng.next_below(set_bound)), in[i]};
      }
      std::vector<std::uint64_t> elems_scalar(n), elems_avx2(n);
      ASSERT_TRUE(scalar.hash_edges_u64(edges.data(), elems_scalar.data(),
                                        keys_scalar.data(), n, salt,
                                        set_bound));
      ASSERT_TRUE(avx2.hash_edges_u64(edges.data(), elems_avx2.data(),
                                      keys_avx2.data(), n, salt, set_bound));
      ASSERT_EQ(keys_scalar, keys_avx2)
          << "hash_edges keys n=" << n << " off=" << offset;
      ASSERT_EQ(elems_scalar, elems_avx2)
          << "hash_edges elems n=" << n << " off=" << offset;
      std::vector<std::uint64_t> keys_ref(n);
      scalar.mix64_batch(elems_scalar.data(), keys_ref.data(), n, salt);
      ASSERT_EQ(keys_ref, keys_scalar)
          << "hash_edges vs mix64_batch n=" << n << " off=" << offset;
      edges[rng.next_below(n)].set = set_bound;
      ASSERT_FALSE(scalar.hash_edges_u64(edges.data(), elems_scalar.data(),
                                         keys_scalar.data(), n, salt,
                                         set_bound));
      ASSERT_FALSE(avx2.hash_edges_u64(edges.data(), elems_avx2.data(),
                                       keys_avx2.data(), n, salt, set_bound));

      // Bounds spanning empty, everything, and a mid-distribution cut.
      for (const std::uint64_t bound :
           {std::uint64_t{0}, ~std::uint64_t{0}, keys_scalar[n / 2],
            rng.next()}) {
        ASSERT_EQ(scalar.count_below_u64(keys_scalar.data(), n, bound),
                  avx2.count_below_u64(keys_scalar.data(), n, bound))
            << "count n=" << n << " off=" << offset << " bound=" << bound;
        std::vector<std::uint32_t> out_scalar(n), out_avx2(n);
        const std::size_t kept_scalar = scalar.compact_below_u64(
            keys_scalar.data(), n, bound, out_scalar.data());
        const std::size_t kept_avx2 = avx2.compact_below_u64(
            keys_scalar.data(), n, bound, out_avx2.data());
        ASSERT_EQ(kept_scalar, kept_avx2)
            << "compact n=" << n << " off=" << offset << " bound=" << bound;
        out_scalar.resize(kept_scalar);
        out_avx2.resize(kept_avx2);
        ASSERT_EQ(out_scalar, out_avx2)
            << "compact n=" << n << " off=" << offset << " bound=" << bound;
      }
    }
  }
}

TEST(SimdEquivalence, ForcedIsaSketchesMatchBitForBit) {
  if (best_supported_isa() != IsaLevel::kAvx2) {
    GTEST_SKIP() << "CPU has no AVX2; the scalar tier is the only tier here";
  }
  Rng rng(0x151A2B3CULL);
  for (int trial = 0; trial < 12; ++trial) {
    const SetId n = 5 + static_cast<SetId>(rng.next_below(std::uint64_t{40}));
    const ElemId m = 10 + rng.next_below(std::uint64_t{600});
    const GeneratedInstance gen =
        make_uniform(n, m, 1 + rng.next_below(std::uint64_t{30}), rng.next());
    SketchParams params = fuzz_params(rng, n);
    // Half the trials get a tiny budget so the cutoff falls mid-chunk and
    // the saturated (kernel-filtered) path dominates under both tiers.
    if (trial % 2 == 1) {
      params.explicit_budget = 8 + rng.next_below(std::uint64_t{20});
    }
    std::vector<Edge> edges =
        ordered_edges(gen.graph, ArrivalOrder::kRandom, rng.next());
    for (std::size_t d = rng.next_below(std::uint64_t{20});
         d > 0 && !edges.empty(); --d) {
      edges.push_back(edges[rng.next_below(edges.size())]);
    }

    for (const std::size_t chunk : kSweepSizes) {
      SubsampleSketch with_scalar(params);
      SubsampleSketch with_avx2(params);
      {
        IsaGuard guard(IsaLevel::kScalar);
        feed_chunked(with_scalar, edges, chunk);
      }
      {
        IsaGuard guard(IsaLevel::kAvx2);
        feed_chunked(with_avx2, edges, chunk);
      }
      expect_same_sketch(with_scalar, with_avx2, edges, "forced-isa chunk");
    }
  }
}

TEST(SimdEquivalence, ForcedIsaLadderSharedPreFilterMatches) {
  if (best_supported_isa() != IsaLevel::kAvx2) {
    GTEST_SKIP() << "CPU has no AVX2; the scalar tier is the only tier here";
  }
  // The all-saturated shared-candidate shape: tiny budgets saturate every
  // rung early, so the block pre-filter against the max rung cutoff (the
  // compact kernel) carries the run under both tiers.
  const GeneratedInstance gen = make_uniform(30, 3000, 80, 53);
  const auto edges = ordered_edges(gen.graph, ArrivalOrder::kRandom, 13);
  std::vector<SketchParams> rung_params;
  for (const std::uint32_t k : {1u, 2u, 4u, 8u}) {
    SketchParams params;
    params.num_sets = 30;
    params.k = k;
    params.eps = 0.25;
    params.budget_mode = BudgetMode::kExplicit;
    params.explicit_budget = 30 + 15 * k;
    params.hash_seed = 0x5EEDULL;
    rung_params.push_back(params);
  }

  SketchLadder with_scalar(rung_params, nullptr);
  SketchLadder with_avx2(rung_params, nullptr);
  {
    IsaGuard guard(IsaLevel::kScalar);
    VectorStream stream(edges);
    with_scalar.consume(stream, {}, 512);
  }
  {
    IsaGuard guard(IsaLevel::kAvx2);
    VectorStream stream(edges);
    with_avx2.consume(stream, {}, 512);
  }
  for (std::size_t r = 0; r < rung_params.size(); ++r) {
    ASSERT_TRUE(with_avx2.rung(r).saturated()) << "rung " << r;
    expect_same_sketch(with_scalar.rung(r), with_avx2.rung(r), edges,
                       "forced-isa ladder rung");
  }
}

}  // namespace
}  // namespace covstream
