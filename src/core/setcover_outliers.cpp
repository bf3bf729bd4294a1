#include "core/setcover_outliers.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

namespace covstream {

OutliersPlan plan_outliers(SetId num_sets, const OutliersOptions& options) {
  const double eps = options.stream.eps;
  const double lambda = options.lambda;
  COVSTREAM_CHECK(eps > 0.0 && eps <= 1.0);
  COVSTREAM_CHECK(lambda > 0.0 && lambda <= 1.0 / std::exp(1.0));

  OutliersPlan plan;
  // Algorithm 5 line 1.
  plan.eps_prime = lambda * (1.0 - std::exp(-eps / 2.0));
  plan.lambda_prime = lambda * std::exp(-eps / 2.0);
  const double ladder_len =
      std::log(std::max<double>(2.0, num_sets)) / std::log1p(eps / 3.0);
  const double c_prime = std::max(1.0, options.c_confidence * ladder_len);
  // Algorithm 4 line 1: delta'' = log_{1+eps} n * (log(C'n) + 2).
  plan.delta_pp = std::max(
      1.0, (std::log(std::max<double>(2.0, num_sets)) / std::log1p(eps)) *
               (std::log(c_prime * std::max<double>(2.0, num_sets)) + 2.0));

  // Geometric guesses k' = growth^i clipped to [1, n], deduplicated after
  // rounding. Paper growth: 1 + eps/3.
  const double growth =
      options.guess_growth > 1.0 ? options.guess_growth : 1.0 + eps / 3.0;
  double k_prime = 1.0;
  std::uint32_t last = 0;
  while (true) {
    const std::uint32_t k = static_cast<std::uint32_t>(
        std::min<double>(num_sets, std::ceil(k_prime)));
    if (k != last) {
      plan.guesses.push_back(
          SubmoduleParams::derive(k, plan.eps_prime, plan.lambda_prime));
      last = k;
    }
    if (k >= num_sets) break;
    k_prime *= growth;
  }
  return plan;
}

SketchLadder outliers_ladder(SetId num_sets, const OutliersPlan& plan,
                             const StreamingOptions& stream, ThreadPool* pool) {
  std::vector<SketchParams> rung_params;
  rung_params.reserve(plan.guesses.size());
  for (const SubmoduleParams& sub : plan.guesses) {
    rung_params.push_back(
        submodule_sketch_params(num_sets, sub, stream, plan.delta_pp));
  }
  return SketchLadder(rung_params, pool);
}

OutliersResult accept_smallest_guess(const SketchLadder& ladder,
                                     const OutliersPlan& plan,
                                     ThreadPool* pool) {
  COVSTREAM_CHECK(ladder.size() == plan.guesses.size());
  OutliersResult result;
  result.ladder_rungs = ladder.size();
  result.ladder_sketches = ladder.sketch_count();
  result.space_words = ladder.peak_space_words();
  // The solver borrows the view: drop it before the view changes.
  const SubsampleSketch* viewed = nullptr;
  SketchView view;
  std::optional<Solver> solver;
  for (std::size_t i = 0; i < plan.guesses.size(); ++i) {
    if (&ladder.rung(i) != viewed) {
      viewed = &ladder.rung(i);
      solver.reset();
      view = viewed->view();
      solver.emplace(view, pool);
    }
    const SubmoduleResult sub =
        setcover_submodule_evaluate(view, *solver, plan.guesses[i]);
    if (sub.feasible) {
      result.feasible = true;
      result.solution = sub.solution;
      result.accepted_k_prime = plan.guesses[i].k_prime;
      result.sketch_cover_fraction = sub.sketch_cover_fraction;
      break;
    }
  }
  return result;
}

OutliersResult streaming_setcover_outliers(EdgeStream& stream, SetId num_sets,
                                           const OutliersOptions& options) {
  const OutliersPlan plan = plan_outliers(num_sets, options);
  SketchLadder ladder =
      outliers_ladder(num_sets, plan, options.stream, options.pool);
  // The single shared pass, batched through the engine.
  ladder.consume(stream, {}, options.stream.batch_edges);
  OutliersResult result = accept_smallest_guess(ladder, plan, options.pool);
  result.passes = stream.passes_started();
  return result;
}

}  // namespace covstream
