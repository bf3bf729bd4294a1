#include <gtest/gtest.h>

#include <cmath>

#include "sketch/kmv.hpp"
#include "sketch/l0_kcover.hpp"
#include "stream/arrival_order.hpp"
#include "stream/edge_stream.hpp"
#include "workloads/generators.hpp"

namespace covstream {
namespace {

TEST(Kmv, ExactBelowCapacity) {
  KmvSketch sketch(64, 1);
  for (ElemId e = 0; e < 50; ++e) sketch.add(e);
  EXPECT_TRUE(sketch.is_exact());
  EXPECT_DOUBLE_EQ(sketch.estimate(), 50.0);
}

TEST(Kmv, DuplicatesDoNotInflate) {
  KmvSketch sketch(64, 2);
  for (int round = 0; round < 10; ++round) {
    for (ElemId e = 0; e < 30; ++e) sketch.add(e);
  }
  EXPECT_DOUBLE_EQ(sketch.estimate(), 30.0);
}

TEST(Kmv, EstimateWithinTolerance) {
  const std::size_t truth = 100000;
  KmvSketch sketch(1024, 3);
  for (ElemId e = 0; e < truth; ++e) sketch.add(e);
  EXPECT_FALSE(sketch.is_exact());
  EXPECT_NEAR(sketch.estimate(), static_cast<double>(truth), 0.15 * truth);
}

TEST(Kmv, MergeEqualsUnion) {
  KmvSketch a(256, 7), b(256, 7), whole(256, 7);
  for (ElemId e = 0; e < 5000; ++e) {
    (e % 2 ? a : b).add(e);
    whole.add(e);
  }
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.estimate(), whole.estimate());
}

TEST(Kmv, MergeWithOverlapStillUnion) {
  KmvSketch a(128, 9), b(128, 9), whole(128, 9);
  for (ElemId e = 0; e < 3000; ++e) {
    if (e < 2000) a.add(e);
    if (e >= 1000) b.add(e);
    whole.add(e);
  }
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.estimate(), whole.estimate());
}

TEST(Kmv, SpaceBoundedByCapacity) {
  KmvSketch sketch(100, 11);
  for (ElemId e = 0; e < 100000; ++e) sketch.add(e);
  EXPECT_LE(sketch.space_words(), 2u + 100u);
}

class KmvAccuracy : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KmvAccuracy, RelativeErrorShrinksWithCapacity) {
  const std::size_t capacity = GetParam();
  const std::size_t truth = 50000;
  KmvSketch sketch(capacity, 13);
  for (ElemId e = 0; e < truth; ++e) sketch.add(e * 977 + 3);
  const double rel_err =
      std::abs(sketch.estimate() - static_cast<double>(truth)) / truth;
  // ~2/sqrt(capacity) tolerance (a few standard deviations).
  EXPECT_LT(rel_err, 3.0 / std::sqrt(static_cast<double>(capacity)));
}

INSTANTIATE_TEST_SUITE_P(Capacities, KmvAccuracy,
                         ::testing::Values(64, 256, 1024, 4096));

TEST(L0KCover, OracleEstimatesFamilyCoverage) {
  const GeneratedInstance gen = make_uniform(30, 2000, 100, 21);
  VectorStream stream(ordered_edges(gen.graph, ArrivalOrder::kRandom, 1));
  L0KCover oracle(30, 512, 33);
  oracle.consume(stream);
  const std::vector<SetId> family{0, 5, 9};
  const double truth = static_cast<double>(gen.graph.coverage(family));
  EXPECT_NEAR(oracle.estimate_coverage(family), truth, 0.2 * truth + 5.0);
}

TEST(L0KCover, GreedySolvesPlantedInstance) {
  const GeneratedInstance gen = make_planted_kcover(40, 4, 50, 0.3, 25);
  VectorStream stream(ordered_edges(gen.graph, ArrivalOrder::kRandom, 2));
  L0KCover oracle(40, L0KCover::capacity_for(40, 4, 0.2), 35);
  oracle.consume(stream);
  const std::vector<SetId> solution = oracle.solve_greedy(4);
  const double truth = static_cast<double>(gen.graph.coverage(solution));
  EXPECT_GE(truth, 0.8 * static_cast<double>(*gen.opt_kcover));
}

TEST(L0KCover, ExhaustiveBeatsOrMatchesGreedyEstimate) {
  const GeneratedInstance gen = make_planted_kcover(10, 2, 20, 0.4, 27);
  VectorStream stream(ordered_edges(gen.graph, ArrivalOrder::kRandom, 3));
  L0KCover oracle(10, 256, 37);
  oracle.consume(stream);
  const auto greedy = oracle.solve_greedy(2);
  const auto best = oracle.solve_exhaustive(2);
  EXPECT_GE(oracle.estimate_coverage(best), oracle.estimate_coverage(greedy) - 1e-9);
}

TEST(L0KCover, SpaceGrowsLinearlyInCapacity) {
  const L0KCover small(100, 32, 1);
  const L0KCover big(100, 320, 1);
  // Empty sketches: fixed overhead only. Feed elements to saturate.
  EXPECT_LT(small.space_words(), big.space_words() + 100 * 32);
  const std::size_t cap_small = L0KCover::capacity_for(1000, 5, 0.1);
  const std::size_t cap_big = L0KCover::capacity_for(1000, 50, 0.1);
  EXPECT_NEAR(static_cast<double>(cap_big) / static_cast<double>(cap_small), 10.0,
              0.5);
}

TEST(L0KCover, CapacityForMatchesAppendixScaling) {
  // t ~ k log n / eps^2: halving eps quadruples t.
  const std::size_t t1 = L0KCover::capacity_for(500, 10, 0.2);
  const std::size_t t2 = L0KCover::capacity_for(500, 10, 0.1);
  EXPECT_NEAR(static_cast<double>(t2) / static_cast<double>(t1), 4.0, 0.2);
}

}  // namespace
}  // namespace covstream
