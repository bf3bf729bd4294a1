#include "core/sketch_ladder.hpp"

#include <gtest/gtest.h>

#include "stream/arrival_order.hpp"
#include "workloads/generators.hpp"

namespace covstream {
namespace {

std::vector<SketchParams> three_rungs(SetId n, std::uint64_t seed) {
  std::vector<SketchParams> rungs;
  for (const std::uint32_t k : {1u, 4u, 16u}) {
    SketchParams params;
    params.num_sets = n;
    params.k = k;
    params.eps = 0.3;
    params.budget_mode = BudgetMode::kExplicit;
    params.explicit_budget = 300 + 100 * k;
    params.hash_seed = seed;
    rungs.push_back(params);
  }
  return rungs;
}

/// Algorithm 5's shape: one budget, and k alone sets the cap
/// ceil(n ln(1/eps) / (eps k)) = ceil(120.4 / k) at n = 30, eps = 0.3. The
/// caps 121, 61, 41 and 31 reach n and share one sketch; 16 and 17 share a
/// binding cap of 8; 5, 8 and 32 stand alone: 5 sketches for 9 rungs.
std::vector<SketchParams> algorithm5_rungs(SetId n, std::uint64_t seed) {
  std::vector<SketchParams> rungs;
  for (const std::uint32_t k : {1u, 2u, 3u, 4u, 5u, 8u, 16u, 17u, 32u}) {
    SketchParams params;
    params.num_sets = n;
    params.k = k;
    params.eps = 0.3;
    params.budget_mode = BudgetMode::kExplicit;
    params.explicit_budget = 600;
    params.hash_seed = seed;
    rungs.push_back(params);
  }
  return rungs;
}

/// Builds the ladder over `edges` and checks that it holds `sketches`
/// distinct sketches and that every rung reads what a standalone per-edge
/// sketch with its params holds: the view's CSR, p* and an estimate.
void expect_rungs_match_standalone(const std::vector<SketchParams>& rung_params,
                                   const std::vector<Edge>& edges,
                                   std::size_t sketches) {
  SketchLadder ladder(rung_params, nullptr);
  VectorStream stream(edges);
  ladder.consume(stream);
  ASSERT_EQ(ladder.size(), rung_params.size());
  EXPECT_EQ(ladder.sketch_count(), sketches);

  const std::vector<SetId> family = {0, 3, 7, 12};
  for (std::size_t r = 0; r < rung_params.size(); ++r) {
    SubsampleSketch standalone(rung_params[r]);
    for (const Edge& edge : edges) standalone.update(edge);
    EXPECT_EQ(ladder.rung(r).retained_elements(), standalone.retained_elements())
        << "rung " << r;
    EXPECT_EQ(ladder.rung(r).stored_edges(), standalone.stored_edges())
        << "rung " << r;
    const SketchView got = ladder.rung(r).view();
    const SketchView want = standalone.view();
    EXPECT_EQ(got.num_retained, want.num_retained) << "rung " << r;
    EXPECT_EQ(got.set_offsets, want.set_offsets) << "rung " << r;
    EXPECT_EQ(got.set_slots, want.set_slots) << "rung " << r;
    EXPECT_DOUBLE_EQ(got.p_star, want.p_star) << "rung " << r;
    EXPECT_DOUBLE_EQ(got.estimate_coverage(family),
                     standalone.estimate_coverage(family))
        << "rung " << r;
  }
}

TEST(SketchLadder, EachRungMatchesStandaloneSketch) {
  const GeneratedInstance gen = make_uniform(30, 800, 20, 5);
  const auto edges = ordered_edges(gen.graph, ArrivalOrder::kRandom, 1);
  // Budgets differ per rung, so no two rungs share a sketch.
  expect_rungs_match_standalone(three_rungs(30, 77), edges, 3);

  // Elements of degree ~9 on average, so the caps below n bind.
  const GeneratedInstance dense = make_uniform(30, 200, 60, 5);
  const auto dense_edges = ordered_edges(dense.graph, ArrivalOrder::kRandom, 1);
  const auto grid = algorithm5_rungs(30, 77);
  ASSERT_GE(grid.front().degree_cap(), 30u);
  ASSERT_LT(grid.back().degree_cap(), 30u);
  expect_rungs_match_standalone(grid, dense_edges, 5);
  // The caps below n do bind here: a cap of 4 leaves room for more elements.
  SubsampleSketch uncapped(grid.front());
  SubsampleSketch capped(grid.back());
  for (const Edge& edge : dense_edges) {
    uncapped.update(edge);
    capped.update(edge);
  }
  EXPECT_GT(capped.retained_elements(), uncapped.retained_elements());
}

TEST(SketchLadder, ParallelEqualsSerial) {
  const GeneratedInstance gen = make_uniform(40, 1500, 30, 6);
  const auto edges = ordered_edges(gen.graph, ArrivalOrder::kRandom, 2);
  const auto rung_params = three_rungs(40, 88);

  SketchLadder serial(rung_params, nullptr);
  VectorStream s1(edges);
  serial.consume(s1);

  ThreadPool pool(3);
  SketchLadder parallel(rung_params, &pool);
  VectorStream s2(edges);
  parallel.consume(s2);

  for (std::size_t r = 0; r < rung_params.size(); ++r) {
    EXPECT_EQ(parallel.rung(r).retained_elements(),
              serial.rung(r).retained_elements());
    EXPECT_EQ(parallel.rung(r).stored_edges(), serial.rung(r).stored_edges());
    EXPECT_DOUBLE_EQ(parallel.rung(r).p_star(), serial.rung(r).p_star());
  }
}

TEST(SketchLadder, FilterHidesEdges) {
  const GeneratedInstance gen = make_uniform(20, 400, 15, 7);
  const auto rung_params = three_rungs(20, 99);
  SketchLadder ladder(rung_params, nullptr);
  VectorStream stream(ordered_edges(gen.graph, ArrivalOrder::kRandom, 3));
  // Hide all even elements from every rung.
  ladder.consume(stream, [](const Edge& edge) { return edge.elem % 2 == 1; });
  for (std::size_t r = 0; r < ladder.size(); ++r) {
    for (ElemId e = 0; e < 400; e += 2) {
      EXPECT_FALSE(ladder.rung(r).is_retained(e)) << "rung " << r;
    }
  }
}

TEST(SketchLadder, PeakSpaceSumsRungs) {
  // A shared sketch counts once: the sum runs over distinct sketches, which
  // are contiguous runs of rungs.
  const GeneratedInstance gen = make_uniform(30, 200, 60, 8);
  const auto rung_params = algorithm5_rungs(30, 111);
  SketchLadder ladder(rung_params, nullptr);
  VectorStream stream(ordered_edges(gen.graph, ArrivalOrder::kRandom, 4));
  ladder.consume(stream);
  std::size_t sum = 0;
  std::size_t distinct = 0;
  for (std::size_t r = 0; r < ladder.size(); ++r) {
    if (r == 0 || &ladder.rung(r) != &ladder.rung(r - 1)) {
      sum += ladder.rung(r).peak_space_words();
      ++distinct;
    }
  }
  EXPECT_EQ(distinct, ladder.sketch_count());
  EXPECT_EQ(ladder.peak_space_words(), sum);
}

}  // namespace
}  // namespace covstream
