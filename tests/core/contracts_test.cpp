// Contract (failure-injection) tests: COVSTREAM_CHECK aborts on API misuse,
// verified with gtest death tests. These pin down the library's documented
// preconditions so misuse fails loudly instead of corrupting results.
#include <gtest/gtest.h>

#include "core/oracle_hardness.hpp"
#include "core/params.hpp"
#include "core/sketch_ladder.hpp"
#include "core/subsample_sketch.hpp"
#include "core/weighted_sketch.hpp"
#include "graph/coverage_instance.hpp"
#include "sketch/kmv.hpp"
#include "util/bitvec.hpp"
#include "util/stats.hpp"

namespace covstream {
namespace {

SketchParams valid_params() {
  SketchParams params;
  params.num_sets = 10;
  params.k = 2;
  params.eps = 0.2;
  params.budget_mode = BudgetMode::kExplicit;
  params.explicit_budget = 100;
  return params;
}

using ContractsDeathTest = ::testing::Test;

TEST(ContractsDeathTest, SketchRejectsOutOfRangeSetId) {
  SubsampleSketch sketch(valid_params());
  EXPECT_DEATH(sketch.update({10, 0}), "set < params_.num_sets");
}

// The range rules live in one predicate (SketchParams::is_valid) shared by
// the aborting validate() and the snapshot loader's fail-the-reader path,
// so the abort message names the predicate, not the individual field.

TEST(ContractsDeathTest, ParamsRejectZeroSets) {
  SketchParams params = valid_params();
  params.num_sets = 0;
  EXPECT_DEATH(SubsampleSketch{params}, "is_valid");
}

TEST(ContractsDeathTest, ParamsRejectBadEps) {
  SketchParams params = valid_params();
  params.eps = 0.0;
  EXPECT_DEATH(SubsampleSketch{params}, "is_valid");
  params.eps = 1.5;
  EXPECT_DEATH(SubsampleSketch{params}, "is_valid");
}

TEST(ContractsDeathTest, ParamsRejectZeroExplicitBudget) {
  SketchParams params = valid_params();
  params.explicit_budget = 0;
  EXPECT_DEATH(SubsampleSketch{params}, "is_valid");
}

TEST(ContractsDeathTest, MergeRejectsMismatchedSeeds) {
  SketchParams a = valid_params();
  SketchParams b = valid_params();
  b.hash_seed = a.hash_seed + 1;
  SubsampleSketch left(a), right(b);
  EXPECT_DEATH(left.merge_from(right), "hash_seed");
}

TEST(ContractsDeathTest, LadderRejectsMixedSeeds) {
  // The ladder hashes each chunk once for every rung, so its rungs must
  // share one seed (and one set universe).
  std::vector<SketchParams> rungs = {valid_params(), valid_params()};
  rungs[1].k = 4;
  rungs[1].hash_seed = rungs[0].hash_seed + 1;
  EXPECT_DEATH((SketchLadder{rungs, nullptr}), "hash_seed");
  rungs[1].hash_seed = rungs[0].hash_seed;
  rungs[1].num_sets = 11;
  EXPECT_DEATH((SketchLadder{rungs, nullptr}), "num_sets");
}

TEST(ContractsDeathTest, WeightedSketchRejectsNonPositiveWeight) {
  WeightedSubsampleSketch sketch(valid_params());
  EXPECT_DEATH(sketch.update({0, 1, 0.0}), "weight > 0");
  EXPECT_DEATH(sketch.update({0, 1, -2.0}), "weight > 0");
}

TEST(ContractsDeathTest, WeightedSketchRejectsInconsistentWeight) {
  WeightedSubsampleSketch sketch(valid_params());
  sketch.update({0, 7, 2.0});
  EXPECT_DEATH(sketch.update({1, 7, 3.0}), "weight");
}

TEST(ContractsDeathTest, InstanceRejectsOutOfRangeEdges) {
  EXPECT_DEATH(CoverageInstance::from_edges(2, 2, {{2, 0}}), "set < num_sets");
  EXPECT_DEATH(CoverageInstance::from_edges(2, 2, {{0, 5}}), "elem < num_elems");
}

TEST(ContractsDeathTest, BitVecBoundsChecked) {
  BitVec bits(8);
  EXPECT_DEATH(bits.test(8), "i < bits_");
  EXPECT_DEATH(bits.set(100), "i < bits_");
}

TEST(ContractsDeathTest, KmvRejectsTinyCapacity) {
  EXPECT_DEATH(KmvSketch(1, 0), "capacity_ >= 2");
}

TEST(ContractsDeathTest, KmvMergeRejectsMismatchedSeeds) {
  KmvSketch a(8, 1), b(8, 2);
  EXPECT_DEATH(a.merge(b), "seed_");
}

TEST(ContractsDeathTest, QuantileRejectsEmptyAndBadQ) {
  EXPECT_DEATH(quantile({}, 0.5), "empty");
  EXPECT_DEATH(quantile({1.0}, 1.5), "q >= 0.0 && q <= 1.0");
}

TEST(ContractsDeathTest, PurificationRejectsBadK) {
  EXPECT_DEATH(PurificationInstance::make(10, 11, 0.2, 1), "k >= 1 && k <= n");
}

}  // namespace
}  // namespace covstream
