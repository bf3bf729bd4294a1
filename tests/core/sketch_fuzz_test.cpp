// Model-based fuzzing of the streaming sketch: an independent reference
// implementation of Algorithm 1 (hash-sort + maximal capped prefix) is
// checked against the streaming eviction construction across randomized
// instances, budgets, caps, duplicate injections, and arrival orders.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "core/subsample_sketch.hpp"
#include "hash/hash64.hpp"
#include "stream/arrival_order.hpp"
#include "util/rng.hpp"
#include "workloads/generators.hpp"

namespace covstream {
namespace {

struct ModelResult {
  std::set<ElemId> retained;
  std::map<ElemId, std::size_t> stored_degree;
  std::size_t stored_edges = 0;
};

/// Reference model: dedupe the edge list, sort elements by hash, take the
/// maximal prefix whose capped degrees fit the budget (always admitting the
/// first element).
ModelResult reference_sketch(const std::vector<Edge>& edges,
                             const SketchParams& params) {
  const Mix64Hash hash(params.hash_seed);
  std::map<ElemId, std::set<SetId>> adjacency;
  for (const Edge& edge : edges) adjacency[edge.elem].insert(edge.set);

  std::vector<std::pair<std::uint64_t, ElemId>> order;
  order.reserve(adjacency.size());
  for (const auto& [elem, sets] : adjacency) order.emplace_back(hash(elem), elem);
  std::sort(order.begin(), order.end());

  ModelResult model;
  const std::size_t cap = params.degree_cap();
  const std::size_t budget = params.edge_budget();
  for (const auto& [h, elem] : order) {
    const std::size_t take = std::min(adjacency[elem].size(), cap);
    if (model.stored_edges + take > budget && !model.retained.empty()) break;
    model.retained.insert(elem);
    model.stored_degree[elem] = take;
    model.stored_edges += take;
  }
  return model;
}

SketchParams random_params(Rng& rng, SetId n) {
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

TEST(SketchFuzz, StreamingMatchesReferenceModel) {
  Rng rng(0xF0220F00ULL);
  for (int trial = 0; trial < 60; ++trial) {
    const SetId n = 5 + static_cast<SetId>(rng.next_below(std::uint64_t{40}));
    const ElemId m = 10 + rng.next_below(std::uint64_t{400});
    const std::size_t set_size = 1 + rng.next_below(std::uint64_t{30});
    const GeneratedInstance gen = make_uniform(n, m, set_size, rng.next());
    const SketchParams params = random_params(rng, n);

    std::vector<Edge> edges = ordered_edges(
        gen.graph,
        trial % 2 ? ArrivalOrder::kRandom : ArrivalOrder::kRoundRobin, rng.next());
    // Inject duplicates at random positions.
    const std::size_t dupes = rng.next_below(std::uint64_t{20});
    for (std::size_t d = 0; d < dupes && !edges.empty(); ++d) {
      edges.push_back(edges[rng.next_below(edges.size())]);
    }
    rng.shuffle(edges);

    const ModelResult model = reference_sketch(edges, params);
    SubsampleSketch sketch(params);
    for (const Edge& edge : edges) sketch.update(edge);

    ASSERT_EQ(sketch.retained_elements(), model.retained.size())
        << "trial " << trial << " n=" << n << " budget=" << params.explicit_budget;
    ASSERT_EQ(sketch.stored_edges(), model.stored_edges) << "trial " << trial;
    for (const auto& [elem, degree] : model.stored_degree) {
      ASSERT_TRUE(sketch.is_retained(elem)) << "trial " << trial;
      ASSERT_EQ(sketch.sets_of(elem).size(), degree)
          << "trial " << trial << " elem " << elem;
    }
  }
}

TEST(SketchFuzz, OfflineBuilderMatchesReferenceModel) {
  Rng rng(0xBEEF);
  for (int trial = 0; trial < 30; ++trial) {
    const SetId n = 5 + static_cast<SetId>(rng.next_below(std::uint64_t{30}));
    const ElemId m = 10 + rng.next_below(std::uint64_t{300});
    const GeneratedInstance gen =
        make_uniform(n, m, 1 + rng.next_below(std::uint64_t{25}), rng.next());
    const SketchParams params = random_params(rng, n);

    const ModelResult model = reference_sketch(gen.graph.edge_list(), params);
    const SubsampleSketch sketch = SubsampleSketch::build_offline(gen.graph, params);
    ASSERT_EQ(sketch.retained_elements(), model.retained.size()) << trial;
    ASSERT_EQ(sketch.stored_edges(), model.stored_edges) << trial;
  }
}

TEST(SketchFuzz, MergeOfRandomPartitionsMatchesWhole) {
  Rng rng(0xCAFE);
  for (int trial = 0; trial < 30; ++trial) {
    const SetId n = 5 + static_cast<SetId>(rng.next_below(std::uint64_t{30}));
    const ElemId m = 20 + rng.next_below(std::uint64_t{300});
    const GeneratedInstance gen =
        make_uniform(n, m, 2 + rng.next_below(std::uint64_t{20}), rng.next());
    const SketchParams params = random_params(rng, n);
    const auto edges = ordered_edges(gen.graph, ArrivalOrder::kRandom, rng.next());

    SubsampleSketch whole(params);
    for (const Edge& edge : edges) whole.update(edge);

    const std::size_t parts = 2 + rng.next_below(std::uint64_t{4});
    std::vector<SubsampleSketch> shards;
    for (std::size_t p = 0; p < parts; ++p) shards.emplace_back(params);
    for (const Edge& edge : edges) {
      shards[rng.next_below(static_cast<std::uint64_t>(parts))].update(edge);
    }
    SubsampleSketch merged = std::move(shards.front());
    for (std::size_t p = 1; p < parts; ++p) merged.merge_from(shards[p]);

    ASSERT_EQ(merged.retained_elements(), whole.retained_elements()) << trial;
    ASSERT_EQ(merged.stored_edges(), whole.stored_edges()) << trial;
    ASSERT_DOUBLE_EQ(merged.p_star(), whole.p_star()) << trial;
  }
}

TEST(SketchFuzz, PurgeKeepsInvariants) {
  Rng rng(0xD00D);
  for (int trial = 0; trial < 20; ++trial) {
    const SetId n = 10 + static_cast<SetId>(rng.next_below(std::uint64_t{20}));
    const GeneratedInstance gen =
        make_uniform(n, 200, 5 + rng.next_below(std::uint64_t{10}), rng.next());
    SketchParams params = random_params(rng, n);
    SubsampleSketch sketch(params);
    for (const Edge& edge : gen.graph.edge_list()) sketch.update(edge);

    const std::uint64_t modulus = 2 + rng.next_below(std::uint64_t{5});
    sketch.purge([modulus](ElemId e) { return e % modulus == 0; });

    // Invariant: view edge/element counts consistent with accessors.
    const SketchView view = sketch.view();
    ASSERT_EQ(view.num_retained, sketch.retained_elements());
    ASSERT_EQ(view.num_edges(), sketch.stored_edges());
    for (ElemId e = 0; e < 200; e += modulus) {
      ASSERT_FALSE(sketch.is_retained(e));
    }
  }
}

}  // namespace
}  // namespace covstream
