#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/setcover_multipass.hpp"
#include "core/setcover_outliers.hpp"
#include "core/setcover_submodule.hpp"
#include "stream/arrival_order.hpp"
#include "stream/edge_stream.hpp"
#include "workloads/generators.hpp"

namespace covstream {
namespace {

StreamingOptions options_with(double eps, std::uint64_t seed) {
  StreamingOptions options;
  options.eps = eps;
  options.seed = seed;
  return options;
}

double coverage_fraction(const CoverageInstance& g, const std::vector<SetId>& sol) {
  return static_cast<double>(g.coverage(sol)) /
         static_cast<double>(g.num_covered_by_all());
}

/// Algorithm 4's evaluation on a fresh view and a fresh solver.
SubmoduleResult evaluate_fresh(const SubsampleSketch& sketch,
                               const SubmoduleParams& sub) {
  const SketchView view = sketch.view();
  Solver solver(view);
  return setcover_submodule_evaluate(view, solver, sub);
}

TEST(Submodule, DeriveMatchesPaperFormulas) {
  const SubmoduleParams sub = SubmoduleParams::derive(10, 0.5, 0.05);
  EXPECT_EQ(sub.k_prime, 10u);
  const double log_inv_lambda = std::log(1.0 / 0.05);
  EXPECT_NEAR(sub.eps_inner, 0.5 / (13.0 * log_inv_lambda), 1e-12);
  EXPECT_EQ(sub.budget_sets,
            static_cast<std::uint32_t>(std::ceil(10.0 * log_inv_lambda)));
  EXPECT_NEAR(sub.acceptance_fraction(),
              1.0 - 0.05 - sub.eps_inner * log_inv_lambda, 1e-12);
}

TEST(Submodule, FeasibleWhenGuessIsLargeEnough) {
  const GeneratedInstance gen = make_planted_setcover(60, 4, 50, 0.4, 1);
  const SubmoduleParams sub = SubmoduleParams::derive(4, 0.5, 0.05);
  const StreamingOptions options = options_with(0.3, 21);
  SubsampleSketch sketch(submodule_sketch_params(60, sub, options, 4.0));
  VectorStream stream(ordered_edges(gen.graph, ArrivalOrder::kRandom, 1));
  sketch.consume(stream);
  const SubmoduleResult result = evaluate_fresh(sketch, sub);
  EXPECT_TRUE(result.feasible);
  EXPECT_LE(result.solution.size(), sub.budget_sets);
}

TEST(Submodule, InfeasibleWhenGuessTooSmall) {
  // 8 disjoint blocks: no single set plus log(1/lambda) slack covers 95%+.
  const GeneratedInstance gen = make_planted_setcover(40, 8, 50, 0.3, 2);
  const SubmoduleParams sub = SubmoduleParams::derive(1, 0.5, 0.05);
  const StreamingOptions options = options_with(0.3, 22);
  SubsampleSketch sketch(submodule_sketch_params(40, sub, options, 4.0));
  VectorStream stream(ordered_edges(gen.graph, ArrivalOrder::kRandom, 2));
  sketch.consume(stream);
  const SubmoduleResult result = evaluate_fresh(sketch, sub);
  EXPECT_FALSE(result.feasible);
}

TEST(Submodule, EmptySketchIsTriviallyFeasible) {
  const SubmoduleParams sub = SubmoduleParams::derive(2, 0.5, 0.05);
  const StreamingOptions options = options_with(0.3, 23);
  SubsampleSketch sketch(submodule_sketch_params(10, sub, options, 4.0));
  const SubmoduleResult result = evaluate_fresh(sketch, sub);
  EXPECT_TRUE(result.feasible);
  EXPECT_TRUE(result.solution.empty());
}

TEST(Outliers, PlanFollowsAlgorithmFive) {
  OutliersOptions options;
  options.stream = options_with(0.3, 24);
  options.lambda = 0.1;
  const OutliersPlan plan = plan_outliers(100, options);
  EXPECT_NEAR(plan.lambda_prime, 0.1 * std::exp(-0.15), 1e-12);
  EXPECT_NEAR(plan.eps_prime, 0.1 * (1.0 - std::exp(-0.15)), 1e-12);
  ASSERT_FALSE(plan.guesses.empty());
  EXPECT_EQ(plan.guesses.front().k_prime, 1u);
  EXPECT_EQ(plan.guesses.back().k_prime, 100u);
  // Guesses strictly increase.
  for (std::size_t i = 1; i < plan.guesses.size(); ++i) {
    EXPECT_GT(plan.guesses[i].k_prime, plan.guesses[i - 1].k_prime);
  }
}

TEST(Outliers, SinglePassAndCoverage) {
  const GeneratedInstance gen = make_planted_setcover(80, 5, 60, 0.4, 3);
  OutliersOptions options;
  options.stream = options_with(0.5, 25);
  options.lambda = 0.1;
  VectorStream stream(ordered_edges(gen.graph, ArrivalOrder::kRandom, 3));
  const OutliersResult result = streaming_setcover_outliers(stream, 80, options);
  EXPECT_EQ(result.passes, 1u);
  ASSERT_TRUE(result.feasible);
  // Coverage >= 1 - lambda (with the sketch's own slack; use a margin).
  EXPECT_GE(coverage_fraction(gen.graph, result.solution), 1.0 - 0.1 - 0.05);
}

class OutliersGuarantee : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(OutliersGuarantee, SizeWithinBound) {
  const std::uint32_t k_star = GetParam();
  const GeneratedInstance gen = make_planted_setcover(
      std::max<SetId>(40, 10 * k_star), k_star, 40, 0.4, 100 + k_star);
  OutliersOptions options;
  options.stream = options_with(0.5, 26 + k_star);
  options.lambda = 0.1;
  VectorStream stream(ordered_edges(gen.graph, ArrivalOrder::kRandom, k_star));
  const OutliersResult result = streaming_setcover_outliers(
      stream, gen.graph.num_sets(), options);
  ASSERT_TRUE(result.feasible);
  const double bound =
      (1.0 + options.stream.eps) * std::log(1.0 / options.lambda) *
      static_cast<double>(k_star);
  EXPECT_LE(static_cast<double>(result.solution.size()), std::ceil(bound) + 1.0)
      << "k*=" << k_star;
  EXPECT_GE(coverage_fraction(gen.graph, result.solution), 1.0 - 0.15)
      << "k*=" << k_star;
}

INSTANTIATE_TEST_SUITE_P(KStars, OutliersGuarantee, ::testing::Values(1u, 3u, 6u));

TEST(Outliers, AcceptedGuessNearOptimum) {
  const GeneratedInstance gen = make_planted_setcover(100, 6, 50, 0.4, 5);
  OutliersOptions options;
  options.stream = options_with(0.5, 27);
  options.lambda = 0.1;
  VectorStream stream(ordered_edges(gen.graph, ArrivalOrder::kRandom, 5));
  const OutliersResult result = streaming_setcover_outliers(stream, 100, options);
  ASSERT_TRUE(result.feasible);
  // Accepted k' <= (1 + eps/3) k* (ladder granularity), up to rounding.
  EXPECT_LE(result.accepted_k_prime,
            static_cast<std::uint32_t>(std::ceil(6.0 * (1.0 + 0.5 / 3.0))) + 1);
}

TEST(Outliers, ParallelLadderMatchesSerial) {
  const GeneratedInstance gen = make_planted_setcover(60, 4, 40, 0.4, 6);
  OutliersOptions serial;
  serial.stream = options_with(0.5, 28);
  serial.lambda = 0.1;
  VectorStream stream1(ordered_edges(gen.graph, ArrivalOrder::kRandom, 6));
  const OutliersResult a = streaming_setcover_outliers(stream1, 60, serial);

  ThreadPool pool(3);
  OutliersOptions parallel = serial;
  parallel.pool = &pool;
  VectorStream stream2(ordered_edges(gen.graph, ArrivalOrder::kRandom, 6));
  const OutliersResult b = streaming_setcover_outliers(stream2, 60, parallel);

  EXPECT_EQ(a.solution, b.solution);
  EXPECT_EQ(a.accepted_k_prime, b.accepted_k_prime);
}

TEST(Outliers, SharedViewAcceptanceMatchesFreshSolverPerRung) {
  // accept_smallest_guess evaluates every rung that reads one sketch on one
  // view and one warm solver; a fresh view and solver per rung must accept
  // the same guess with the same solution.
  const GeneratedInstance gen = make_planted_setcover(80, 6, 50, 0.4, 15);
  OutliersOptions options;
  options.stream = options_with(0.5, 37);
  options.lambda = 0.1;
  const OutliersPlan plan = plan_outliers(80, options);
  SketchLadder ladder = outliers_ladder(80, plan, options.stream, nullptr);
  VectorStream stream(ordered_edges(gen.graph, ArrivalOrder::kRandom, 15));
  ladder.consume(stream);
  ASSERT_LT(ladder.sketch_count(), ladder.size());
  const OutliersResult shared = accept_smallest_guess(ladder, plan, nullptr);
  ASSERT_TRUE(shared.feasible);
  // Guesses before the accepted one ran on the same warm solver.
  EXPECT_GT(shared.accepted_k_prime, plan.guesses.front().k_prime);

  std::size_t accepted = plan.guesses.size();
  SubmoduleResult fresh;
  for (std::size_t i = 0; i < plan.guesses.size(); ++i) {
    fresh = evaluate_fresh(ladder.rung(i), plan.guesses[i]);
    if (fresh.feasible) {
      accepted = i;
      break;
    }
  }
  ASSERT_LT(accepted, plan.guesses.size());
  EXPECT_EQ(shared.accepted_k_prime, plan.guesses[accepted].k_prime);
  EXPECT_EQ(shared.solution, fresh.solution);
  EXPECT_DOUBLE_EQ(shared.sketch_cover_fraction, fresh.sketch_cover_fraction);
}

TEST(Multipass, CoversEverythingOnPlanted) {
  const GeneratedInstance gen = make_planted_setcover(80, 6, 60, 0.4, 7);
  MultipassOptions options;
  options.stream = options_with(0.5, 29);
  options.rounds = 3;
  VectorStream stream(ordered_edges(gen.graph, ArrivalOrder::kRandom, 7));
  const MultipassResult result =
      streaming_setcover_multipass(stream, 80, gen.graph.num_elems(), options);
  EXPECT_TRUE(result.covered_everything);
  EXPECT_EQ(gen.graph.coverage(result.solution), gen.graph.num_covered_by_all());
}

TEST(Multipass, SolutionSizeWithinLogMBound) {
  const GeneratedInstance gen = make_planted_setcover(100, 5, 80, 0.4, 8);
  MultipassOptions options;
  options.stream = options_with(0.5, 30);
  options.rounds = 3;
  VectorStream stream(ordered_edges(gen.graph, ArrivalOrder::kRandom, 8));
  const MultipassResult result =
      streaming_setcover_multipass(stream, 100, gen.graph.num_elems(), options);
  const double bound = (1.0 + 0.5) *
                       std::log(static_cast<double>(gen.graph.num_elems())) * 5.0;
  EXPECT_LE(static_cast<double>(result.solution.size()), bound);
}

TEST(Multipass, MergedModeUsesRPasses) {
  const GeneratedInstance gen = make_planted_setcover(60, 4, 50, 0.4, 9);
  for (const std::size_t rounds : {std::size_t{2}, std::size_t{3}, std::size_t{4}}) {
    MultipassOptions options;
    options.stream = options_with(0.5, 31);
    options.rounds = rounds;
    VectorStream stream(ordered_edges(gen.graph, ArrivalOrder::kRandom, 9));
    const MultipassResult result =
        streaming_setcover_multipass(stream, 60, gen.graph.num_elems(), options);
    EXPECT_EQ(result.passes, rounds) << "rounds=" << rounds;
    EXPECT_TRUE(result.covered_everything);
  }
}

TEST(Multipass, SingleRoundIsOfflineGreedyOverStoredEdges) {
  const GeneratedInstance gen = make_planted_setcover(40, 3, 40, 0.4, 11);
  MultipassOptions options;
  options.stream = options_with(0.5, 33);
  options.rounds = 1;
  VectorStream stream(ordered_edges(gen.graph, ArrivalOrder::kRandom, 11));
  const MultipassResult result =
      streaming_setcover_multipass(stream, 40, gen.graph.num_elems(), options);
  EXPECT_EQ(result.passes, 1u);
  EXPECT_TRUE(result.covered_everything);
  EXPECT_EQ(result.residual_edges, gen.graph.num_edges());
  EXPECT_EQ(result.solution.size(), 3u);  // greedy nails planted instances
}

TEST(Multipass, MorePassesStoreFewerResidualEdges) {
  const GeneratedInstance gen = make_planted_setcover(120, 8, 100, 0.4, 12);
  std::size_t previous = static_cast<std::size_t>(-1);
  for (const std::size_t rounds : {std::size_t{1}, std::size_t{3}}) {
    MultipassOptions options;
    options.stream = options_with(0.5, 34);
    options.rounds = rounds;
    VectorStream stream(ordered_edges(gen.graph, ArrivalOrder::kRandom, 12));
    const MultipassResult result =
        streaming_setcover_multipass(stream, 120, gen.graph.num_elems(), options);
    EXPECT_LT(result.residual_edges, previous) << "rounds=" << rounds;
    previous = result.residual_edges;
    EXPECT_TRUE(result.covered_everything);
  }
}

TEST(Multipass, SolutionHasNoDuplicates) {
  const GeneratedInstance gen = make_planted_setcover(50, 4, 30, 0.4, 13);
  MultipassOptions options;
  options.stream = options_with(0.5, 35);
  options.rounds = 3;
  VectorStream stream(ordered_edges(gen.graph, ArrivalOrder::kRandom, 13));
  const MultipassResult result =
      streaming_setcover_multipass(stream, 50, gen.graph.num_elems(), options);
  std::set<SetId> unique(result.solution.begin(), result.solution.end());
  EXPECT_EQ(unique.size(), result.solution.size());
}

TEST(Multipass, ReportsSpaceBreakdown) {
  const GeneratedInstance gen = make_planted_setcover(60, 4, 50, 0.4, 14);
  MultipassOptions options;
  options.stream = options_with(0.5, 36);
  options.rounds = 2;
  VectorStream stream(ordered_edges(gen.graph, ArrivalOrder::kRandom, 14));
  const MultipassResult result =
      streaming_setcover_multipass(stream, 60, gen.graph.num_elems(), options);
  EXPECT_EQ(result.bitmap_words, (gen.graph.num_elems() + 63) / 64);
  EXPECT_EQ(result.space_words,
            result.sketch_words + result.bitmap_words + result.residual_words);
}

}  // namespace
}  // namespace covstream
