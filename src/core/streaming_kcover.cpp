#include "core/streaming_kcover.hpp"

#include <algorithm>
#include <cmath>

#include "core/distributed.hpp"

namespace covstream {

SketchParams StreamingOptions::sketch_params(SetId num_sets, std::uint32_t k,
                                             double eps_override,
                                             double delta_override) const {
  SketchParams params;
  params.num_sets = num_sets;
  params.k = std::max<std::uint32_t>(1, std::min<std::uint32_t>(k, num_sets));
  params.eps = eps_override > 0.0 ? eps_override : eps;
  if (delta_override > 0.0) {
    params.delta_pp = delta_override;
  } else if (delta_pp > 0.0) {
    params.delta_pp = delta_pp;
  } else {
    // Algorithm 3's choice: delta'' = 2 + log n.
    params.delta_pp = 2.0 + std::log(std::max<double>(2.0, num_sets));
  }
  params.elems_hint = elems_hint;
  params.budget_mode = budget_mode;
  params.practical_c = practical_c;
  params.explicit_budget = explicit_budget;
  params.enforce_degree_cap = enforce_degree_cap;
  params.hash_seed = seed;
  return params;
}

KCoverResult kcover_on_view(const SketchView& view, Solver& solver,
                            std::uint32_t k) {
  const GreedyResult greedy = solver.max_cover(k);
  KCoverResult result;
  result.solver_space_words = solver.space_words();
  result.solution = greedy.solution;
  result.estimated_coverage =
      view.p_star > 0.0 ? static_cast<double>(greedy.covered) / view.p_star : 0.0;
  result.sketch_retained = view.num_retained;
  result.sketch_edges = view.num_edges();
  result.p_star = view.p_star;
  return result;
}

KCoverResult kcover_with_solver(const SubsampleSketch& sketch,
                                const SketchView& view, Solver& solver,
                                std::uint32_t k) {
  KCoverResult result = kcover_on_view(view, solver, k);
  result.space_words = sketch.peak_space_words();
  result.final_space_words = sketch.space_words();
  return result;
}

KCoverResult kcover_on_sketch(const SubsampleSketch& sketch, std::uint32_t k,
                              ThreadPool* pool) {
  const SketchView view = sketch.view();
  Solver solver(view, pool);
  return kcover_with_solver(sketch, view, solver, k);
}

KCoverResult streaming_kcover(EdgeStream& stream, SetId num_sets, std::uint32_t k,
                              const StreamingOptions& options, ThreadPool* pool) {
  // Algorithm 3: eps' = eps / 12 drives the sketch; greedy runs on the view.
  SketchParams params = options.sketch_params(num_sets, k, options.eps / 12.0);
  if (pool != nullptr && pool->thread_count() > 1) {
    // Pool path: one shard per thread fed by the engine's partitioned deal,
    // reduced by merging. Element-hash routing keeps every edge of an
    // element on one shard, so the merge equals the single-stream sketch
    // even when the degree cap binds (DESIGN.md §5.5, §5.14) and everything
    // downstream of the sketch is unchanged. The shards share one cutoff
    // bound, so together they hold about one budget of edges.
    ShardedSketchBuilder builder(params, pool->thread_count(), pool);
    builder.consume(stream, options.batch_edges);
    const std::size_t shard_peak = builder.max_shard_space_words();
    const SubsampleSketch sketch = builder.finalize();
    KCoverResult result = kcover_on_sketch(sketch, k, pool);
    result.space_words = std::max(result.space_words,
                                  shard_peak * pool->thread_count());
    result.passes = stream.passes_started();
    return result;
  }
  SubsampleSketch sketch(params);
  sketch.consume(stream, options.batch_edges);
  KCoverResult result = kcover_on_sketch(sketch, k);
  result.passes = stream.passes_started();
  return result;
}

}  // namespace covstream
