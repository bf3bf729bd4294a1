#include "core/subsample_sketch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <set>

#include "core/params.hpp"
#include "hash/hash64.hpp"
#include "stream/arrival_order.hpp"
#include "stream/edge_stream.hpp"
#include "util/rng.hpp"
#include "workloads/generators.hpp"

namespace covstream {
namespace {

SketchParams base_params(SetId n, std::uint32_t k, std::size_t budget,
                         std::uint64_t seed = 99) {
  SketchParams params;
  params.num_sets = n;
  params.k = k;
  params.eps = 0.2;
  params.budget_mode = BudgetMode::kExplicit;
  params.explicit_budget = budget;
  params.hash_seed = seed;
  return params;
}

TEST(Params, DegreeCapFormula) {
  SketchParams params = base_params(1000, 10, 100000);
  params.eps = 0.1;
  // ceil(n ln(1/eps) / (eps k)) = ceil(1000 * 2.302... / 1) = 2303.
  EXPECT_EQ(params.degree_cap(), 2303u);
  params.enforce_degree_cap = false;
  EXPECT_GT(params.degree_cap(), 1u << 30);
}

TEST(Params, PaperBudgetGrowsWithInverseEps) {
  SketchParams coarse = base_params(500, 5, 1);
  coarse.budget_mode = BudgetMode::kPaper;
  coarse.eps = 0.5;
  SketchParams fine = coarse;
  fine.eps = 0.1;
  EXPECT_GT(fine.edge_budget(), coarse.edge_budget());
}

TEST(Params, PracticalBudgetLinearInN) {
  SketchParams small = base_params(100, 5, 1);
  small.budget_mode = BudgetMode::kPractical;
  SketchParams large = small;
  large.num_sets = 10000;
  const double ratio = static_cast<double>(large.edge_budget()) /
                       static_cast<double>(small.edge_budget());
  EXPECT_GT(ratio, 100.0);   // super-linear by the log factor
  EXPECT_LT(ratio, 400.0);   // but near-linear
}

TEST(Params, TheoryBudgetsFlooredAtNButExplicitIsLiteral) {
  SketchParams params = base_params(5000, 1, 10);
  EXPECT_EQ(params.edge_budget(), 10u) << "explicit budgets taken literally";
  params.budget_mode = BudgetMode::kPractical;
  params.practical_c = 1e-9;
  EXPECT_GE(params.edge_budget(), 5000u) << "theory modes floored at n";
}

TEST(Sketch, KeepsEverythingUnderGenerousBudget) {
  const GeneratedInstance gen = make_uniform(30, 300, 10, 5);
  SubsampleSketch sketch(base_params(30, 5, 1 << 20));
  VectorStream stream(ordered_edges(gen.graph, ArrivalOrder::kRandom, 1));
  sketch.consume(stream);
  EXPECT_FALSE(sketch.saturated());
  EXPECT_DOUBLE_EQ(sketch.p_star(), 1.0);
  EXPECT_EQ(sketch.retained_elements(), gen.graph.num_covered_by_all());
  EXPECT_EQ(sketch.stored_edges(), gen.graph.num_edges());
}

TEST(Sketch, RespectsEdgeBudget) {
  const GeneratedInstance gen = make_uniform(50, 2000, 40, 6);
  const std::size_t budget = 500;
  SubsampleSketch sketch(base_params(50, 5, budget));
  VectorStream stream(ordered_edges(gen.graph, ArrivalOrder::kRandom, 2));
  sketch.consume(stream);
  EXPECT_TRUE(sketch.saturated());
  EXPECT_LE(sketch.stored_edges(), budget);
  EXPECT_LT(sketch.p_star(), 1.0);
}

TEST(Sketch, RetainedAreExactlySmallestHashes) {
  const GeneratedInstance gen = make_uniform(40, 1000, 25, 7);
  SketchParams params = base_params(40, 5, 400, /*seed=*/123);
  params.enforce_degree_cap = false;
  SubsampleSketch sketch(params);
  VectorStream stream(ordered_edges(gen.graph, ArrivalOrder::kRandom, 3));
  sketch.consume(stream);

  // Reference: sort elements by hash; take the maximal prefix fitting 400.
  const Mix64Hash hash(123);
  std::vector<std::pair<std::uint64_t, ElemId>> order;
  for (ElemId e = 0; e < gen.graph.num_elems(); ++e) {
    if (gen.graph.elem_degree(e) > 0) order.emplace_back(hash(e), e);
  }
  std::sort(order.begin(), order.end());
  std::set<ElemId> expected;
  std::size_t edges = 0;
  for (const auto& [h, elem] : order) {
    if (edges + gen.graph.elem_degree(elem) > 400 && !expected.empty()) break;
    edges += gen.graph.elem_degree(elem);
    expected.insert(elem);
  }
  EXPECT_EQ(sketch.retained_elements(), expected.size());
  for (const ElemId elem : expected) EXPECT_TRUE(sketch.is_retained(elem));
}

TEST(Sketch, DegreeCapEnforced) {
  // One super-popular element with degree 200; cap must truncate it.
  std::vector<Edge> edges;
  for (SetId s = 0; s < 200; ++s) edges.push_back({s, 0});
  edges.push_back({0, 1});
  SketchParams params = base_params(200, 50, 1 << 20);
  params.eps = 0.5;  // cap = ceil(200 * ln 2 / (0.5 * 50)) = ceil(5.54) = 6
  SubsampleSketch sketch(params);
  for (const Edge& edge : edges) sketch.update(edge);
  EXPECT_EQ(sketch.sets_of(0).size(), params.degree_cap());
  EXPECT_EQ(sketch.sets_of(1).size(), 1u);
}

TEST(Sketch, StreamingMatchesOfflineUncapped) {
  const GeneratedInstance gen = make_uniform(60, 800, 15, 8);
  SketchParams params = base_params(60, 10, 300, /*seed=*/777);
  params.enforce_degree_cap = false;

  SubsampleSketch offline = SubsampleSketch::build_offline(gen.graph, params);
  for (const ArrivalOrder order :
       {ArrivalOrder::kRandom, ArrivalOrder::kSetMajor, ArrivalOrder::kRoundRobin,
        ArrivalOrder::kElementMajor}) {
    SubsampleSketch streaming(params);
    VectorStream stream(ordered_edges(gen.graph, order, 4));
    streaming.consume(stream);
    EXPECT_EQ(streaming.retained_elements(), offline.retained_elements())
        << to_string(order);
    EXPECT_EQ(streaming.stored_edges(), offline.stored_edges()) << to_string(order);
    EXPECT_DOUBLE_EQ(streaming.p_star(), offline.p_star()) << to_string(order);
    // Uncapped: per-element edge lists must match exactly.
    for (ElemId e = 0; e < gen.graph.num_elems(); ++e) {
      const auto a = streaming.sets_of(e);
      const auto b = offline.sets_of(e);
      ASSERT_EQ(a.size(), b.size()) << to_string(order);
      EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
    }
  }
}

TEST(Sketch, StreamingMatchesOfflineCappedCounts) {
  const GeneratedInstance gen = make_zipf(80, 500, 5, 60, 0.9, 1.3, 9);
  SketchParams params = base_params(80, 40, 600, /*seed=*/555);
  params.eps = 0.5;  // small cap to force truncation

  SubsampleSketch offline = SubsampleSketch::build_offline(gen.graph, params);
  SubsampleSketch streaming(params);
  VectorStream stream(ordered_edges(gen.graph, ArrivalOrder::kRandom, 5));
  streaming.consume(stream);

  // Capped edges are "chosen arbitrarily": only retained sets + per-element
  // counts must agree.
  EXPECT_EQ(streaming.retained_elements(), offline.retained_elements());
  EXPECT_EQ(streaming.stored_edges(), offline.stored_edges());
  for (ElemId e = 0; e < gen.graph.num_elems(); ++e) {
    EXPECT_EQ(streaming.sets_of(e).size(), offline.sets_of(e).size());
  }
}

TEST(Sketch, OrderInvariance) {
  const GeneratedInstance gen = make_zipf(50, 600, 4, 40, 1.0, 1.1, 10);
  SketchParams params = base_params(50, 5, 350, /*seed=*/321);
  std::set<ElemId> reference;
  bool first = true;
  for (const ArrivalOrder order :
       {ArrivalOrder::kRandom, ArrivalOrder::kSetMajorShuffled,
        ArrivalOrder::kRoundRobin}) {
    SubsampleSketch sketch(params);
    VectorStream stream(ordered_edges(gen.graph, order, 6));
    sketch.consume(stream);
    std::set<ElemId> retained;
    for (ElemId e = 0; e < gen.graph.num_elems(); ++e) {
      if (sketch.is_retained(e)) retained.insert(e);
    }
    if (first) {
      reference = retained;
      first = false;
    } else {
      EXPECT_EQ(retained, reference) << to_string(order);
    }
  }
}

TEST(Sketch, DedupeHandlesRepeatedEdges) {
  SketchParams params = base_params(5, 2, 100);
  params.dedupe_edges = true;
  SubsampleSketch sketch(params);
  for (int round = 0; round < 4; ++round) {
    sketch.update({1, 42});
    sketch.update({3, 42});
  }
  EXPECT_EQ(sketch.stored_edges(), 2u);
  EXPECT_EQ(sketch.sets_of(42).size(), 2u);
}

TEST(Sketch, NoDedupeCountsRepeats) {
  SketchParams params = base_params(5, 2, 100);
  params.dedupe_edges = false;
  SubsampleSketch sketch(params);
  sketch.update({1, 42});
  sketch.update({1, 42});
  EXPECT_EQ(sketch.stored_edges(), 2u);
}

TEST(Sketch, EstimateIsExactWhenUnsaturated) {
  const GeneratedInstance gen = make_uniform(20, 200, 10, 11);
  SketchParams params = base_params(20, 5, 1 << 20);
  params.enforce_degree_cap = false;
  SubsampleSketch sketch(params);
  VectorStream stream(ordered_edges(gen.graph, ArrivalOrder::kRandom, 7));
  sketch.consume(stream);
  const std::vector<SetId> family{0, 3, 7, 12};
  EXPECT_DOUBLE_EQ(sketch.estimate_coverage(family),
                   static_cast<double>(gen.graph.coverage(family)));
}

class SketchAccuracy : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SketchAccuracy, EstimateErrorShrinksWithBudget) {
  const std::size_t budget = GetParam();
  const GeneratedInstance gen = make_uniform(100, 20000, 300, 12);
  const std::vector<SetId> family{1, 2, 3, 4, 5};
  const double truth = static_cast<double>(gen.graph.coverage(family));

  double total_rel_err = 0.0;
  const int trials = 8;
  for (int t = 0; t < trials; ++t) {
    SketchParams params = base_params(100, 5, budget, /*seed=*/1000 + t);
    SubsampleSketch sketch(params);
    VectorStream stream(ordered_edges(gen.graph, ArrivalOrder::kRandom, t));
    sketch.consume(stream);
    total_rel_err += std::abs(sketch.estimate_coverage(family) - truth) / truth;
  }
  const double mean_rel_err = total_rel_err / trials;
  // Sampling error ~ 1/sqrt(retained covered) — generous envelope.
  EXPECT_LT(mean_rel_err, 6.0 / std::sqrt(static_cast<double>(budget) / 10.0));
}

INSTANTIATE_TEST_SUITE_P(Budgets, SketchAccuracy,
                         ::testing::Values(1000, 4000, 16000));

TEST(Sketch, ViewMatchesSketchState) {
  // The fleet serves estimates from the view's set->slot CSR, so the view
  // must answer exactly what the sketch's own scan answers — to the bit, on
  // every family, in each regime the sketch can be in.
  constexpr SetId kSets = 30;
  const GeneratedInstance gen = make_uniform(kSets, 400, 60, 13);
  SketchParams capped = base_params(kSets, 20, 1 << 20);
  capped.eps = 0.5;
  ASSERT_EQ(capped.degree_cap(), 3u);  // ceil(30 ln 2 / (0.5 * 20))
  const auto clips_an_element = [&gen](const SubsampleSketch& sketch) {
    for (ElemId e = 0; e < gen.graph.num_elems(); ++e) {
      if (sketch.is_retained(e) &&
          sketch.sets_of(e).size() < gen.graph.elem_degree(e)) {
        return true;
      }
    }
    return false;
  };
  struct Regime {
    const char* name;
    SketchParams params;
    std::function<bool(const SubsampleSketch&)> holds;
  };
  const Regime regimes[] = {
      {"unsaturated", base_params(kSets, 5, 1 << 20),
       [](const SubsampleSketch& s) {
         return !s.saturated() && s.p_star() == 1.0;
       }},
      {"saturated", base_params(kSets, 5, 250),
       [](const SubsampleSketch& s) {
         return s.saturated() && s.p_star() < 1.0;
       }},
      {"degree cap binds", capped, clips_an_element},
  };

  // 200 families: the empty one, all sets, duplicate ids, and random draws
  // (with repeats, since ids are drawn with replacement).
  std::vector<std::vector<SetId>> families = {{}, {}, {4, 4, 4}, {7, 3, 7, 3}};
  for (SetId s = 0; s < kSets; ++s) families[1].push_back(s);
  Rng rng(0xFA3171E5);
  while (families.size() < 200) {
    std::vector<SetId> family(1 + rng.next_below(std::uint64_t{2 * kSets}));
    for (SetId& set : family) set = rng.next_below(kSets);
    families.push_back(std::move(family));
  }

  for (const Regime& regime : regimes) {
    SCOPED_TRACE(regime.name);
    SubsampleSketch sketch(regime.params);
    VectorStream stream(ordered_edges(gen.graph, ArrivalOrder::kRandom, 8));
    sketch.consume(stream);
    ASSERT_TRUE(regime.holds(sketch));
    const SketchView view = sketch.view();
    EXPECT_EQ(view.num_retained, sketch.retained_elements());
    EXPECT_EQ(view.num_edges(), sketch.stored_edges());
    EXPECT_EQ(view.p_star, sketch.p_star());
    for (const std::vector<SetId>& family : families) {
      EXPECT_EQ(view.estimate_coverage(family), sketch.estimate_coverage(family));
    }
  }
}

TEST(Sketch, ViewNeighborhoodOfAllSetsIsAllRetained) {
  const GeneratedInstance gen = make_uniform(25, 300, 10, 14);
  SubsampleSketch sketch(base_params(25, 5, 200));
  VectorStream stream(ordered_edges(gen.graph, ArrivalOrder::kRandom, 9));
  sketch.consume(stream);
  const SketchView view = sketch.view();
  std::vector<SetId> all(25);
  for (SetId s = 0; s < 25; ++s) all[s] = s;
  EXPECT_EQ(view.neighborhood_size(all), view.num_retained);
}

TEST(Sketch, PurgeRemovesMatchingElements) {
  const GeneratedInstance gen = make_uniform(20, 100, 8, 15);
  SubsampleSketch sketch(base_params(20, 5, 1 << 20));
  VectorStream stream(ordered_edges(gen.graph, ArrivalOrder::kRandom, 10));
  sketch.consume(stream);
  const std::size_t before = sketch.retained_elements();
  sketch.purge([](ElemId e) { return e % 2 == 0; });
  EXPECT_LT(sketch.retained_elements(), before);
  for (ElemId e = 0; e < 100; e += 2) EXPECT_FALSE(sketch.is_retained(e));
  // View remains consistent after purge.
  const SketchView view = sketch.view();
  EXPECT_EQ(view.num_retained, sketch.retained_elements());
  EXPECT_EQ(view.num_edges(), sketch.stored_edges());
}

TEST(Sketch, PurgeThenUpdateStillWorks) {
  SubsampleSketch sketch(base_params(10, 2, 1000));
  for (SetId s = 0; s < 10; ++s) sketch.update({s, s});
  sketch.purge([](ElemId e) { return e < 5; });
  EXPECT_EQ(sketch.retained_elements(), 5u);
  sketch.update({0, 100});
  EXPECT_TRUE(sketch.is_retained(100));
}

TEST(Sketch, SingleElementMayExceedBudget) {
  // A single element's capped degree can exceed the budget; the sketch must
  // keep at least that one element rather than going empty.
  SketchParams params = base_params(100, 50, 10);
  params.enforce_degree_cap = false;
  SubsampleSketch sketch(params);
  for (SetId s = 0; s < 100; ++s) sketch.update({s, 7});
  EXPECT_EQ(sketch.retained_elements(), 1u);
  EXPECT_EQ(sketch.stored_edges(), 100u);
}

TEST(Sketch, SpaceWordsTracksState) {
  const GeneratedInstance gen = make_uniform(40, 800, 20, 16);
  SubsampleSketch sketch(base_params(40, 5, 300));
  VectorStream stream(ordered_edges(gen.graph, ArrivalOrder::kRandom, 11));
  sketch.consume(stream);
  EXPECT_GT(sketch.space_words(), sketch.retained_elements());
  EXPECT_GE(sketch.peak_space_words(), sketch.space_words());
}

TEST(Sketch, PeakSpaceBoundedByBudgetTerms) {
  const GeneratedInstance gen = make_uniform(50, 5000, 100, 17);
  const std::size_t budget = 800;
  SubsampleSketch sketch(base_params(50, 5, budget));
  VectorStream stream(ordered_edges(gen.graph, ArrivalOrder::kRandom, 12));
  sketch.consume(stream);
  // Substrate layout (DESIGN.md §5.6): every component is linear in the
  // peak retained count R and peak stored edges E, both <= budget + 1 (one
  // overshoot edge before eviction). Per slot: table bucket (<= 4 words at
  // max load with power-of-two growth), elem id (1), span (1.5), heap entry
  // (2) + back pointer (0.5), free-list entry (0.5); per edge <= 1 word in
  // the slab (power-of-two block rounding). Generous envelope:
  EXPECT_LE(sketch.peak_space_words(), 64 + 10 * (budget + 1) + (budget + 1));
}

TEST(Sketch, EmptyFamilyEstimatesZero) {
  SubsampleSketch sketch(base_params(10, 2, 100));
  sketch.update({0, 1});
  const std::vector<SetId> empty_family;
  EXPECT_DOUBLE_EQ(sketch.estimate_coverage(empty_family), 0.0);
}

TEST(Sketch, OfflineOnEmptyInstance) {
  const CoverageInstance g = CoverageInstance::from_edges(5, 10, {});
  SubsampleSketch sketch = SubsampleSketch::build_offline(g, base_params(5, 2, 100));
  EXPECT_EQ(sketch.retained_elements(), 0u);
  EXPECT_DOUBLE_EQ(sketch.p_star(), 1.0);
}

}  // namespace
}  // namespace covstream
