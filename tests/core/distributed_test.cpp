#include "core/distributed.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "core/greedy_on_sketch.hpp"
#include "stream/arrival_order.hpp"
#include "stream/edge_stream.hpp"
#include "workloads/generators.hpp"

namespace covstream {
namespace {

SketchParams shard_params(SetId n, std::size_t budget, std::uint64_t seed) {
  SketchParams params;
  params.num_sets = n;
  params.k = 5;
  params.eps = 0.2;
  params.budget_mode = BudgetMode::kExplicit;
  params.explicit_budget = budget;
  params.hash_seed = seed;
  return params;
}

void expect_same_sketch(const SubsampleSketch& a, const SubsampleSketch& b,
                        ElemId num_elems) {
  EXPECT_EQ(a.retained_elements(), b.retained_elements());
  EXPECT_EQ(a.stored_edges(), b.stored_edges());
  EXPECT_DOUBLE_EQ(a.p_star(), b.p_star());
  for (ElemId e = 0; e < num_elems; ++e) {
    const auto sa = a.sets_of(e);
    const auto sb = b.sets_of(e);
    ASSERT_EQ(sa.size(), sb.size()) << "elem " << e;
    EXPECT_TRUE(std::equal(sa.begin(), sa.end(), sb.begin(), sb.end()));
  }
}

TEST(Merge, TwoPartitionsEqualSingleStream) {
  const GeneratedInstance gen = make_uniform(40, 1500, 30, 3);
  const auto edges = ordered_edges(gen.graph, ArrivalOrder::kRandom, 1);
  const SketchParams params = shard_params(40, 600, 99);

  SubsampleSketch whole(params);
  for (const Edge& edge : edges) whole.update(edge);

  SubsampleSketch left(params), right(params);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    (i % 2 ? left : right).update(edges[i]);
  }
  left.merge_from(right);
  expect_same_sketch(left, whole, gen.graph.num_elems());
}

TEST(Merge, UnsaturatedShardsUnion) {
  const SketchParams params = shard_params(10, 10000, 7);
  SubsampleSketch a(params), b(params);
  a.update({0, 1});
  a.update({1, 2});
  b.update({2, 1});
  b.update({3, 3});
  a.merge_from(b);
  EXPECT_EQ(a.retained_elements(), 3u);
  EXPECT_EQ(a.stored_edges(), 4u);
  const auto sets_of_1 = a.sets_of(1);
  EXPECT_EQ(std::vector<SetId>(sets_of_1.begin(), sets_of_1.end()),
            (std::vector<SetId>{0, 2}));
}

TEST(Merge, DuplicateEdgesAcrossShardsCollapse) {
  const SketchParams params = shard_params(10, 10000, 7);
  SubsampleSketch a(params), b(params);
  a.update({4, 9});
  b.update({4, 9});
  a.merge_from(b);
  EXPECT_EQ(a.stored_edges(), 1u);
}

TEST(Merge, MergeWithEmptyIsIdentity) {
  const GeneratedInstance gen = make_uniform(20, 300, 10, 4);
  const SketchParams params = shard_params(20, 200, 11);
  SubsampleSketch a(params), empty(params);
  VectorStream stream(ordered_edges(gen.graph, ArrivalOrder::kRandom, 2));
  a.consume(stream);
  const std::size_t retained = a.retained_elements();
  const std::size_t edges = a.stored_edges();
  a.merge_from(empty);
  EXPECT_EQ(a.retained_elements(), retained);
  EXPECT_EQ(a.stored_edges(), edges);
}

class ShardSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ShardSweep, ShardedBuilderEqualsSingleStream) {
  const std::size_t shards = GetParam();
  const GeneratedInstance gen = make_zipf(60, 3000, 10, 80, 0.9, 1.2, 5);
  const SketchParams params = shard_params(60, 900, 321);

  SubsampleSketch whole(params);
  VectorStream s1(ordered_edges(gen.graph, ArrivalOrder::kRandom, 3));
  whole.consume(s1);

  ShardedSketchBuilder builder(params, shards);
  VectorStream s2(ordered_edges(gen.graph, ArrivalOrder::kRandom, 3));
  builder.consume(s2);
  const SubsampleSketch merged = builder.finalize();

  expect_same_sketch(merged, whole, gen.graph.num_elems());
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardSweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u));

TEST(Sharded, ParallelPoolMatchesSerial) {
  const GeneratedInstance gen = make_uniform(50, 2000, 40, 6);
  const SketchParams params = shard_params(50, 700, 77);

  ShardedSketchBuilder serial(params, 4);
  VectorStream s1(ordered_edges(gen.graph, ArrivalOrder::kRandom, 4));
  serial.consume(s1);
  const SubsampleSketch a = serial.finalize();

  ThreadPool pool(3);
  ShardedSketchBuilder parallel(params, 4, &pool);
  VectorStream s2(ordered_edges(gen.graph, ArrivalOrder::kRandom, 4));
  parallel.consume(s2);
  const SubsampleSketch b = parallel.finalize();

  expect_same_sketch(a, b, gen.graph.num_elems());
}

TEST(Sharded, GreedyOnMergedSolvesKCover) {
  const GeneratedInstance gen = make_planted_kcover(50, 4, 100, 0.4, 7);
  SketchParams params = shard_params(50, 2000, 13);
  params.k = 4;
  ShardedSketchBuilder builder(params, 4);
  VectorStream stream(ordered_edges(gen.graph, ArrivalOrder::kRandom, 5));
  builder.consume(stream);
  const SubsampleSketch merged = builder.finalize();
  const GreedyResult greedy = greedy_max_cover(merged.view(), 4);
  EXPECT_GE(static_cast<double>(gen.graph.coverage(greedy.solution)),
            0.9 * static_cast<double>(*gen.opt_kcover));
}

TEST(Sharded, PerShardSpaceReported) {
  const GeneratedInstance gen = make_uniform(30, 1000, 20, 8);
  const SketchParams params = shard_params(30, 300, 17);
  ShardedSketchBuilder builder(params, 3);
  VectorStream stream(ordered_edges(gen.graph, ArrivalOrder::kRandom, 6));
  builder.consume(stream);
  EXPECT_GT(builder.max_shard_space_words(), 0u);
}

// ---------------------------------------------------------------------------
// The shared cutoff bound. Each stream below holds about 3.5 budgets of
// capped edges, dealt over 4 shards, so no shard alone ever exceeds the
// budget and evicts on its own: only the bound, fired from the shards'
// combined key histogram, can keep a shard below a quarter of the stream.

/// Edges a sketch with no budget would store: distinct sets per element, at
/// most `cap` of them.
std::size_t capped_edges(const std::vector<Edge>& edges, std::size_t cap) {
  std::unordered_map<ElemId, std::vector<SetId>> sets;
  std::size_t total = 0;
  for (const Edge& edge : edges) {
    std::vector<SetId>& own = sets[edge.elem];
    if (own.size() < cap &&
        std::find(own.begin(), own.end(), edge.set) == own.end()) {
      own.push_back(edge.set);
      ++total;
    }
  }
  return total;
}

/// Builds the 4-shard sketch and the single-stream sketch of `edges`, checks
/// that the two hold the same sketch, and returns the builder's per-shard
/// peak as a fraction of the single-stream peak.
double shared_bound_shard_share(const std::vector<Edge>& edges,
                                const SketchParams& params, ElemId m,
                                ThreadPool* pool = nullptr) {
  const std::size_t capped = capped_edges(edges, params.degree_cap());
  EXPECT_GT(capped, 3 * params.edge_budget());
  EXPECT_LT(capped, 4 * params.edge_budget());

  SubsampleSketch whole(params);
  VectorStream s1(edges);
  whole.consume(s1);

  ShardedSketchBuilder builder(params, 4, pool);
  VectorStream s2(edges);
  builder.consume(s2);
  const double share = static_cast<double>(builder.max_shard_space_words()) /
                       static_cast<double>(whole.peak_space_words());
  const SubsampleSketch merged = builder.finalize();
  EXPECT_TRUE(merged.saturated());
  expect_same_sketch(merged, whole, m);
  return share;
}

TEST(Sharded, SharedBoundFiresBeforeAnyShardSaturates) {
  const SketchParams params = shard_params(40, 20000, 0xb0d1);
  const GeneratedInstance gen = make_uniform(40, 30000, 1875, 31);
  const auto edges = ordered_edges(gen.graph, ArrivalOrder::kRandom, 31);
  // Without the bound each shard peaks near a quarter of 3.5 budgets, about
  // 0.8 of the single-stream sketch's words. With it, about 0.25.
  EXPECT_LT(shared_bound_shard_share(edges, params, 30000), 0.5);
}

TEST(Sharded, SharedBoundExactWhenDegreeCapBinds) {
  // k and eps chosen so the cap is 3 and most elements exceed it: every
  // shard keeps its elements' first-arrived sets, as the single stream does.
  SketchParams params = shard_params(12, 20000, 0xb0d2);
  params.k = 6;
  params.eps = 0.5;
  ASSERT_EQ(params.degree_cap(), 3u);
  const GeneratedInstance gen = make_uniform(12, 23500, 16667, 32);
  const auto edges = ordered_edges(gen.graph, ArrivalOrder::kRandom, 32);
  EXPECT_LT(capped_edges(edges, params.degree_cap()), edges.size() / 2);
  EXPECT_LT(shared_bound_shard_share(edges, params, 23500), 0.5);
}

TEST(Sharded, SharedBoundPoolEqualsSerial) {
  const SketchParams params = shard_params(40, 20000, 0xb0d3);
  const GeneratedInstance gen = make_uniform(40, 30000, 1875, 33);
  const auto edges = ordered_edges(gen.graph, ArrivalOrder::kRandom, 33);
  ThreadPool pool(4);
  EXPECT_LT(shared_bound_shard_share(edges, params, 30000, &pool), 0.5);

  // Barriers sit at fixed stream positions and their scans run one pool
  // task per shard, so the pooled build is the serial build slot for slot.
  ShardedSketchBuilder serial(params, 4);
  VectorStream s1(edges);
  serial.consume(s1);
  ShardedSketchBuilder pooled(params, 4, &pool);
  VectorStream s2(edges);
  pooled.consume(s2);
  EXPECT_EQ(pooled.max_shard_space_words(), serial.max_shard_space_words());
  const SketchView a = serial.finalize().view();
  const SketchView b = pooled.finalize().view();
  EXPECT_EQ(a.num_retained, b.num_retained);
  EXPECT_EQ(a.set_offsets, b.set_offsets);
  EXPECT_EQ(a.set_slots, b.set_slots);
  EXPECT_EQ(a.p_star, b.p_star);
}

TEST(Sharded, SharedBoundSparesALoneElementOverBudget) {
  // One element whose capped degree alone exceeds the budget: the single
  // stream never evicts it and stays unsaturated (p* = 1), so the shards'
  // total passing the budget must not fire the bound.
  const SketchParams params = shard_params(40, 10, 0xb0d4);
  ASSERT_GT(params.degree_cap(), 30u);
  std::vector<Edge> edges;
  for (SetId set = 0; set < 30; ++set) edges.push_back({set, 7});
  SubsampleSketch whole(params);
  VectorStream s1(edges);
  whole.consume(s1);
  ShardedSketchBuilder builder(params, 4);
  VectorStream s2(edges);
  builder.consume(s2);
  const SubsampleSketch merged = builder.finalize();
  EXPECT_FALSE(whole.saturated());
  EXPECT_FALSE(merged.saturated());
  expect_same_sketch(merged, whole, 8);
}

// ---------------------------------------------------------------------------
// Negative paths: the coordinator must refuse incoherent shard sets with a
// distinct, loud error per failure mode — never a silent partial merge.

ShardSnapshot make_shard(std::uint32_t id, std::uint32_t count,
                         const SketchParams& params,
                         ShardRouting routing = ShardRouting::kByElementHash) {
  SubsampleSketch sketch(params);
  sketch.update({0, 100 + id});
  sketch.update({1, 200 + id});
  ShardManifest manifest;
  manifest.shard_id = id;
  manifest.shard_count = count;
  manifest.routing = routing;
  manifest.router_seed = shard_router_seed(params);
  manifest.edges_ingested = 2;
  return ShardSnapshot{manifest, std::move(sketch)};
}

TEST(ShardSetValidation, EmptySetRejected) {
  std::string error;
  EXPECT_FALSE(validate_shard_set({}, &error));
  EXPECT_NE(error.find("shard set is empty"), std::string::npos) << error;
}

TEST(ShardSetValidation, CompleteSetAccepted) {
  const SketchParams params = shard_params(10, 100, 1);
  std::vector<ShardSnapshot> shards;
  for (std::uint32_t id = 0; id < 3; ++id) {
    shards.push_back(make_shard(id, 3, params));
  }
  std::string error;
  EXPECT_TRUE(validate_shard_set(shards, &error)) << error;
  EXPECT_TRUE(merge_shard_set(std::move(shards), 2, nullptr, &error).has_value())
      << error;
}

TEST(ShardSetValidation, MissingShardRejected) {
  const SketchParams params = shard_params(10, 100, 1);
  std::vector<ShardSnapshot> shards;
  shards.push_back(make_shard(0, 3, params));
  shards.push_back(make_shard(2, 3, params));
  std::string error;
  EXPECT_FALSE(validate_shard_set(shards, &error));
  EXPECT_NE(error.find("missing shard 1"), std::string::npos) << error;
  EXPECT_FALSE(merge_shard_set(std::move(shards), 2, nullptr, &error).has_value());
}

TEST(ShardSetValidation, DuplicateShardIdRejected) {
  const SketchParams params = shard_params(10, 100, 1);
  std::vector<ShardSnapshot> shards;
  shards.push_back(make_shard(0, 2, params));
  shards.push_back(make_shard(0, 2, params));
  std::string error;
  EXPECT_FALSE(validate_shard_set(shards, &error));
  EXPECT_NE(error.find("duplicate shard id 0"), std::string::npos) << error;
}

TEST(ShardSetValidation, MismatchedParamsRejected) {
  std::vector<ShardSnapshot> shards;
  shards.push_back(make_shard(0, 2, shard_params(10, 100, 1)));
  shards.push_back(make_shard(1, 2, shard_params(10, 200, 1)));  // budget differs
  std::string error;
  EXPECT_FALSE(validate_shard_set(shards, &error));
  EXPECT_NE(error.find("params mismatch"), std::string::npos) << error;
}

TEST(ShardSetValidation, MismatchedShardCountRejected) {
  const SketchParams params = shard_params(10, 100, 1);
  std::vector<ShardSnapshot> shards;
  shards.push_back(make_shard(0, 2, params));
  shards.push_back(make_shard(1, 3, params));
  std::string error;
  EXPECT_FALSE(validate_shard_set(shards, &error));
  EXPECT_NE(error.find("shard-count mismatch"), std::string::npos) << error;
}

TEST(ShardSetValidation, MismatchedRoutingRejected) {
  const SketchParams params = shard_params(10, 100, 1);
  std::vector<ShardSnapshot> shards;
  shards.push_back(make_shard(0, 2, params, ShardRouting::kByElementHash));
  shards.push_back(make_shard(1, 2, params, ShardRouting::kRoundRobin));
  std::string error;
  EXPECT_FALSE(validate_shard_set(shards, &error));
  EXPECT_NE(error.find("routing mismatch"), std::string::npos) << error;
}

TEST(ShardSetValidation, MismatchedSeedSurfacesAsParamsMismatch) {
  // A different hash seed changes both the router seed and the params; the
  // shard was genuinely built over a different partition of a different
  // hash function, and either check must fire before any merge happens.
  std::vector<ShardSnapshot> shards;
  shards.push_back(make_shard(0, 2, shard_params(10, 100, 1)));
  shards.push_back(make_shard(1, 2, shard_params(10, 100, 2)));
  std::string error;
  EXPECT_FALSE(validate_shard_set(shards, &error));
  EXPECT_NE(error.find("mismatch"), std::string::npos) << error;
}

TEST(ShardSetValidation, TooManyShardsRejected) {
  const SketchParams params = shard_params(10, 100, 1);
  std::vector<ShardSnapshot> shards;
  shards.push_back(make_shard(0, 1, params));
  shards.push_back(make_shard(0, 1, params));
  std::string error;
  EXPECT_FALSE(validate_shard_set(shards, &error));
  EXPECT_NE(error.find("too many shards"), std::string::npos) << error;
}

TEST(ShardSnapshotFrame, RoundTripPreservesManifest) {
  const SketchParams params = shard_params(10, 100, 1);
  const ShardSnapshot original = make_shard(1, 4, params);
  SnapshotWriter writer(ShardSnapshot::kSnapshotType);
  original.save(writer);
  SnapshotReader reader(writer.finish());
  std::optional<ShardSnapshot> loaded = ShardSnapshot::load_snapshot(reader);
  ASSERT_TRUE(loaded.has_value()) << reader.error();
  EXPECT_TRUE(reader.at_end());
  EXPECT_EQ(loaded->manifest.shard_id, 1u);
  EXPECT_EQ(loaded->manifest.shard_count, 4u);
  EXPECT_EQ(loaded->manifest.routing, ShardRouting::kByElementHash);
  EXPECT_EQ(loaded->manifest.router_seed, shard_router_seed(params));
  EXPECT_EQ(loaded->manifest.edges_ingested, 2u);
  EXPECT_TRUE(loaded->sketch.params() == params);
}

TEST(ShardSnapshotFrame, CorruptManifestFieldsFailTheReader) {
  const SketchParams params = shard_params(10, 100, 1);

  const auto write_frame = [&params](std::uint32_t id, std::uint32_t count,
                                     std::uint32_t routing,
                                     std::uint64_t router_seed) {
    SubsampleSketch sketch(params);
    SnapshotWriter writer(ShardSnapshot::kSnapshotType);
    writer.begin_section(snapshot_tag('S', 'H', 'R', 'D'));
    writer.u32(id);
    writer.u32(count);
    writer.u32(routing);
    writer.u64(router_seed);
    writer.u64(0);  // edges_ingested
    sketch.save(writer);
    writer.end_section();
    return writer.finish();
  };
  const std::uint64_t seed = shard_router_seed(params);

  struct Case {
    std::vector<std::uint8_t> image;
    const char* expected;
  };
  const Case cases[] = {
      {write_frame(0, 0, 1, seed), "shard count is zero"},
      {write_frame(5, 2, 1, seed), "shard id out of range"},
      {write_frame(0, 2, 9, seed), "unknown routing mode"},
      {write_frame(0, 2, 1, seed + 1), "router seed does not match"},
  };
  for (const Case& c : cases) {
    SnapshotReader reader(c.image);
    EXPECT_FALSE(ShardSnapshot::load_snapshot(reader).has_value());
    EXPECT_NE(reader.error().find(c.expected), std::string::npos)
        << reader.error();
  }
}

}  // namespace
}  // namespace covstream
