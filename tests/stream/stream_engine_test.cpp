// Determinism contract of the batched ingestion pipeline (DESIGN.md §5.7):
// pool-parallel fan-out is bit-for-bit equal to serial execution for every
// shard strategy, and chunk boundaries are never observable — any batch size
// yields the same consumer state.
#include "stream/stream_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "core/distributed.hpp"
#include "core/setcover_multipass.hpp"
#include "core/setcover_outliers.hpp"
#include "core/sketch_ladder.hpp"
#include "core/streaming_kcover.hpp"
#include "sketch/l0_kcover.hpp"
#include "stream/arrival_order.hpp"
#include "util/bitvec.hpp"
#include "workloads/generators.hpp"

namespace covstream {
namespace {

std::vector<Edge> test_edges(SetId n, ElemId m, std::uint64_t seed) {
  const GeneratedInstance gen = make_uniform(n, m, 25, seed);
  return ordered_edges(gen.graph, ArrivalOrder::kRandom, seed + 1);
}

/// Bit-for-bit sketch comparison through the solver view (slot numbering is
/// allocation-order, so identical update sequences give identical views).
void expect_same_sketch(const SubsampleSketch& a, const SubsampleSketch& b,
                        const std::string& label) {
  EXPECT_EQ(a.retained_elements(), b.retained_elements()) << label;
  EXPECT_EQ(a.stored_edges(), b.stored_edges()) << label;
  EXPECT_EQ(a.p_star(), b.p_star()) << label;
  const SketchView va = a.view();
  const SketchView vb = b.view();
  EXPECT_EQ(va.set_offsets, vb.set_offsets) << label;
  EXPECT_EQ(va.set_slots, vb.set_slots) << label;
}

/// Content equality only (same retained elements with the same edges): slot
/// numbering depends on update order, which differs between a merged build
/// and a single-stream build.
void expect_equivalent_sketch(const SubsampleSketch& a, const SubsampleSketch& b,
                              ElemId num_elems, const std::string& label) {
  EXPECT_EQ(a.retained_elements(), b.retained_elements()) << label;
  EXPECT_EQ(a.stored_edges(), b.stored_edges()) << label;
  EXPECT_EQ(a.p_star(), b.p_star()) << label;
  for (ElemId e = 0; e < num_elems; ++e) {
    const auto sa = a.sets_of(e);
    const auto sb = b.sets_of(e);
    ASSERT_EQ(sa.size(), sb.size()) << label << " elem " << e;
    EXPECT_TRUE(std::equal(sa.begin(), sa.end(), sb.begin(), sb.end()))
        << label << " elem " << e;
  }
}

std::vector<SketchParams> ladder_params(SetId n, std::uint64_t seed) {
  std::vector<SketchParams> rungs;
  for (const std::uint32_t k : {1u, 4u, 16u}) {
    SketchParams params;
    params.num_sets = n;
    params.k = k;
    params.eps = 0.3;
    params.budget_mode = BudgetMode::kExplicit;
    params.explicit_budget = 400 + 100 * k;
    params.hash_seed = seed;
    rungs.push_back(params);
  }
  return rungs;
}

// ------------------------------------------------------------ raw engine ----

TEST(StreamEngine, RunDeliversEveryEdgeInOrder) {
  const auto edges = test_edges(20, 500, 3);
  for (const std::size_t batch : {std::size_t{1}, std::size_t{7},
                                  std::size_t{4096}, edges.size()}) {
    VectorStream stream(edges);
    const StreamEngine engine({batch, nullptr});
    std::vector<Edge> seen;
    const auto stats = engine.run(stream, {}, [&](std::span<const Edge> chunk) {
      seen.insert(seen.end(), chunk.begin(), chunk.end());
    });
    EXPECT_EQ(seen, edges) << "batch=" << batch;
    EXPECT_EQ(stats.edges_read, edges.size());
    EXPECT_EQ(stats.edges_kept, edges.size());
  }
}

TEST(StreamEngine, FilterAppliedOncePerChunkBeforeDelivery) {
  const auto edges = test_edges(20, 500, 4);
  VectorStream stream(edges);
  const StreamEngine engine({64, nullptr});
  std::size_t filter_calls = 0;
  std::vector<Edge> seen;
  const auto stats = engine.run(
      stream,
      [&](const Edge& edge) {
        ++filter_calls;
        return edge.elem % 3 == 0;
      },
      [&](std::span<const Edge> chunk) {
        seen.insert(seen.end(), chunk.begin(), chunk.end());
      });
  std::vector<Edge> expected;
  for (const Edge& edge : edges) {
    if (edge.elem % 3 == 0) expected.push_back(edge);
  }
  EXPECT_EQ(seen, expected);
  EXPECT_EQ(filter_calls, edges.size()) << "exactly one filter call per edge";
  EXPECT_EQ(stats.edges_read, edges.size());
  EXPECT_EQ(stats.edges_kept, expected.size());
}

TEST(StreamEngine, EmptyStreamDeliversNothing) {
  VectorStream stream({});
  const StreamEngine engine;
  std::size_t sink_calls = 0;
  const auto stats =
      engine.run(stream, {}, [&](std::span<const Edge>) { ++sink_calls; });
  EXPECT_EQ(sink_calls, 0u);
  EXPECT_EQ(stats.edges_read, 0u);
  EXPECT_EQ(stream.passes_started(), 1u) << "a run is one pass even when empty";
}

TEST(StreamEngine, RoundRobinPartitionReassembles) {
  const auto edges = test_edges(15, 300, 5);
  constexpr std::size_t kShards = 3;
  VectorStream stream(edges);
  const StreamEngine engine({32, nullptr});
  std::vector<std::vector<Edge>> per_shard(kShards);
  engine.run_partitioned(stream, {}, kShards, StreamEngine::round_robin(kShards),
                         [&](std::size_t s, std::span<const Edge> chunk) {
                           per_shard[s].insert(per_shard[s].end(), chunk.begin(),
                                               chunk.end());
                         });
  // Deal the original stream by hand and compare shard-by-shard.
  std::vector<std::vector<Edge>> expected(kShards);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    expected[i % kShards].push_back(edges[i]);
  }
  EXPECT_EQ(per_shard, expected);
}

TEST(StreamEngine, ElementHashPartitionNeverSplitsAnElement) {
  const auto edges = test_edges(15, 300, 6);
  constexpr std::size_t kShards = 4;
  VectorStream stream(edges);
  const StreamEngine engine({32, nullptr});
  std::vector<std::vector<Edge>> per_shard(kShards);
  engine.run_partitioned(stream, {}, kShards,
                         StreamEngine::by_element_hash(kShards, 42),
                         [&](std::size_t s, std::span<const Edge> chunk) {
                           per_shard[s].insert(per_shard[s].end(), chunk.begin(),
                                               chunk.end());
                         });
  std::size_t total = 0;
  std::vector<std::size_t> owner(301, kShards);
  for (std::size_t s = 0; s < kShards; ++s) {
    total += per_shard[s].size();
    for (const Edge& edge : per_shard[s]) {
      if (owner[edge.elem] == kShards) owner[edge.elem] = s;
      EXPECT_EQ(owner[edge.elem], s) << "element " << edge.elem << " split";
    }
  }
  EXPECT_EQ(total, edges.size());
}

// -------------------------------------------------- ladder (replicated) ----

class EngineDeterminism : public ::testing::TestWithParam<std::size_t> {};

INSTANTIATE_TEST_SUITE_P(Pools, EngineDeterminism,
                         ::testing::Values(std::size_t{2}, std::size_t{4},
                                           std::size_t{8}),
                         [](const auto& info) {
                           return "threads" + std::to_string(info.param);
                         });

TEST_P(EngineDeterminism, LadderPoolEqualsSerial) {
  const auto edges = test_edges(40, 1500, 7);
  const auto params = ladder_params(40, 88);

  SketchLadder serial(params, nullptr);
  VectorStream s1(edges);
  serial.consume(s1);

  ThreadPool pool(GetParam());
  SketchLadder pooled(params, &pool);
  VectorStream s2(edges);
  pooled.consume(s2);

  for (std::size_t r = 0; r < params.size(); ++r) {
    expect_same_sketch(pooled.rung(r), serial.rung(r),
                       "rung " + std::to_string(r));
  }
}

TEST_P(EngineDeterminism, ShardedBuilderPoolEqualsSerial) {
  const auto edges = test_edges(30, 2000, 8);
  SketchParams params;
  params.num_sets = 30;
  params.k = 6;
  params.eps = 0.25;
  params.budget_mode = BudgetMode::kExplicit;
  params.explicit_budget = 900;
  params.hash_seed = 21;

  ShardedSketchBuilder serial(params, 4, nullptr);
  VectorStream s1(edges);
  serial.consume(s1);
  const SubsampleSketch merged_serial = serial.finalize();

  ThreadPool pool(GetParam());
  ShardedSketchBuilder pooled(params, 4, &pool);
  VectorStream s2(edges);
  pooled.consume(s2);
  const SubsampleSketch merged_pooled = pooled.finalize();

  expect_same_sketch(merged_pooled, merged_serial, "merged shards");
}

TEST_P(EngineDeterminism, FilteredLadderPassPoolEqualsSerial) {
  // Algorithm 6's shape: a stateful covered-element mask evaluated by the
  // engine once per chunk (in the reader thread), rungs fed the survivors.
  const auto edges = test_edges(25, 800, 9);
  const auto params = ladder_params(25, 99);

  auto covered_filter = [](BitVec& covered) {
    return [&covered](const Edge& edge) {
      if (covered.test(edge.elem)) return false;
      if (edge.set % 5 == 0) {
        covered.set(edge.elem);
        return false;
      }
      return true;
    };
  };

  BitVec covered_serial(800);
  SketchLadder serial(params, nullptr);
  VectorStream s1(edges);
  serial.consume(s1, covered_filter(covered_serial));

  BitVec covered_pooled(800);
  ThreadPool pool(GetParam());
  SketchLadder pooled(params, &pool);
  VectorStream s2(edges);
  pooled.consume(s2, covered_filter(covered_pooled));

  for (ElemId e = 0; e < 800; ++e) {
    EXPECT_EQ(covered_pooled.test(e), covered_serial.test(e)) << "elem " << e;
  }
  for (std::size_t r = 0; r < params.size(); ++r) {
    expect_same_sketch(pooled.rung(r), serial.rung(r),
                       "filtered rung " + std::to_string(r));
  }
}

TEST_P(EngineDeterminism, L0KCoverSetPartitionEqualsSerial) {
  const auto edges = test_edges(24, 600, 10);

  L0KCover serial(24, 64, 5);
  VectorStream s1(edges);
  serial.consume(s1);

  ThreadPool pool(GetParam());
  L0KCover pooled(24, 64, 5);
  VectorStream s2(edges);
  pooled.consume(s2, &pool);

  EXPECT_EQ(pooled.solve_greedy(4), serial.solve_greedy(4));
  EXPECT_EQ(pooled.space_words(), serial.space_words());
  for (SetId s = 0; s < 24; ++s) {
    const std::vector<SetId> family{s};
    EXPECT_EQ(pooled.estimate_coverage(family), serial.estimate_coverage(family));
  }
}

TEST_P(EngineDeterminism, MultipassSetcoverPoolEqualsSerial) {
  const GeneratedInstance gen = make_planted_setcover(40, 6, 80, 0.4, 11);
  const auto edges = ordered_edges(gen.graph, ArrivalOrder::kRandom, 12);

  MultipassOptions options;
  options.rounds = 3;
  options.stream.eps = 0.4;
  options.stream.seed = 31;

  VectorStream s1(edges);
  const MultipassResult serial = streaming_setcover_multipass(
      s1, 40, gen.graph.num_elems(), options);

  ThreadPool pool(GetParam());
  options.pool = &pool;
  VectorStream s2(edges);
  const MultipassResult pooled = streaming_setcover_multipass(
      s2, 40, gen.graph.num_elems(), options);

  EXPECT_EQ(pooled.solution, serial.solution);
  EXPECT_EQ(pooled.picked_per_iteration, serial.picked_per_iteration);
  EXPECT_EQ(pooled.residual_edges, serial.residual_edges);
  EXPECT_EQ(pooled.covered_everything, serial.covered_everything);
}

TEST_P(EngineDeterminism, StreamingKCoverShardedEqualsSerial) {
  struct Case {
    const char* label;
    std::vector<Edge> edges;
    SetId n;
    std::uint32_t k;
    double eps;
  };
  // The zipf input has elements in more sets than the degree cap allows.
  // A shard split that separates an element's edges keeps a different
  // capped subset than the single stream does, which reorders the greedy
  // picks; the pooled path must route so that never happens.
  const GeneratedInstance zipf = make_zipf(200, 20000, 50, 2000, 0.8, 1.1, 3);
  const std::vector<Case> cases = {
      {"uniform", test_edges(50, 3000, 13), 50, 8, 0.3},
      {"binding cap", ordered_edges(zipf.graph, ArrivalOrder::kRandom, 4), 200,
       100, 0.5},
  };
  for (const Case& c : cases) {
    StreamingOptions options;
    options.eps = c.eps;
    options.seed = 17;

    VectorStream s1(c.edges);
    const KCoverResult serial = streaming_kcover(s1, c.n, c.k, options);

    ThreadPool pool(GetParam());
    VectorStream s2(c.edges);
    const KCoverResult pooled = streaming_kcover(s2, c.n, c.k, options, &pool);

    EXPECT_EQ(pooled.solution, serial.solution) << c.label;
    EXPECT_EQ(pooled.estimated_coverage, serial.estimated_coverage) << c.label;
    EXPECT_EQ(pooled.sketch_retained, serial.sketch_retained) << c.label;
    EXPECT_EQ(pooled.sketch_edges, serial.sketch_edges) << c.label;
    EXPECT_DOUBLE_EQ(pooled.p_star, serial.p_star) << c.label;
  }
  // The second case is only worth its name while some element's degree
  // really exceeds the cap of the sketch streaming_kcover builds.
  std::vector<std::size_t> degree(zipf.graph.num_elems(), 0);
  for (const Edge& edge : cases[1].edges) ++degree[edge.elem];
  StreamingOptions options;
  options.eps = 0.5;
  EXPECT_GT(*std::max_element(degree.begin(), degree.end()),
            options.sketch_params(200, 100, options.eps / 12.0).degree_cap());
}

// -------------------------------------------------- batch-boundary fuzz ----

TEST(StreamEngineBatchFuzz, LadderStateIndependentOfBatchSize) {
  const auto edges = test_edges(30, 900, 14);
  const auto params = ladder_params(30, 55);

  SketchLadder reference(params, nullptr);
  VectorStream s0(edges);
  reference.consume(s0);  // engine default batch

  for (const std::size_t batch : {std::size_t{1}, std::size_t{7},
                                  std::size_t{4096}, edges.size(),
                                  edges.size() / 2}) {
    SketchLadder ladder(params, nullptr);
    VectorStream stream(edges);
    ladder.consume(stream, {}, batch);
    for (std::size_t r = 0; r < params.size(); ++r) {
      expect_same_sketch(ladder.rung(r), reference.rung(r),
                         "batch=" + std::to_string(batch) + " rung " +
                             std::to_string(r));
    }
  }
}

TEST(StreamEngineBatchFuzz, PartitionedStateIndependentOfBatchSize) {
  const auto edges = test_edges(30, 1200, 15);
  SketchParams params;
  params.num_sets = 30;
  params.k = 5;
  params.eps = 0.25;
  params.budget_mode = BudgetMode::kExplicit;
  params.explicit_budget = 700;
  params.hash_seed = 23;

  ShardedSketchBuilder reference(params, 3, nullptr);
  VectorStream s0(edges);
  reference.consume(s0);
  const SubsampleSketch merged_reference = reference.finalize();

  for (const std::size_t batch :
       {std::size_t{1}, std::size_t{7}, std::size_t{4096}, edges.size()}) {
    ShardedSketchBuilder builder(params, 3, nullptr);
    VectorStream stream(edges);
    builder.consume(stream, batch);
    SubsampleSketch merged = builder.finalize();
    expect_same_sketch(merged, merged_reference,
                       "batch=" + std::to_string(batch));
  }
}

TEST(StreamEngineBatchFuzz, HashRoutingMergesToSameSketch) {
  // Element-hash partitioning deals uneven shard loads, but the reduce must
  // still equal the single-stream sketch.
  const auto edges = test_edges(30, 1200, 16);
  SketchParams params;
  params.num_sets = 30;
  params.k = 5;
  params.eps = 0.25;
  params.budget_mode = BudgetMode::kExplicit;
  params.explicit_budget = 700;
  params.hash_seed = 29;

  SubsampleSketch single(params);
  VectorStream s0(edges);
  single.consume(s0);

  ShardedSketchBuilder builder(params, 4, nullptr);
  VectorStream stream(edges);
  builder.consume(stream);
  SubsampleSketch merged = builder.finalize();
  expect_equivalent_sketch(merged, single, 1200, "element-hash");
}

}  // namespace
}  // namespace covstream
