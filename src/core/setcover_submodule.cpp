#include "core/setcover_submodule.hpp"

#include <algorithm>
#include <cmath>

namespace covstream {

SubmoduleParams SubmoduleParams::derive(std::uint32_t k_prime, double eps_prime,
                                        double lambda_prime) {
  COVSTREAM_CHECK(k_prime >= 1);
  COVSTREAM_CHECK(lambda_prime > 0.0 && lambda_prime <= 1.0 / std::exp(1.0));
  COVSTREAM_CHECK(eps_prime > 0.0 && eps_prime <= 1.0);
  SubmoduleParams sub;
  sub.k_prime = k_prime;
  sub.lambda_prime = lambda_prime;
  const double log_inv_lambda = std::log(1.0 / lambda_prime);
  // Algorithm 4 line 1: eps = eps' / (13 log(1/lambda')).
  sub.eps_inner = std::min(1.0, eps_prime / (13.0 * log_inv_lambda));
  sub.budget_sets = static_cast<std::uint32_t>(
      std::max<double>(1.0, std::ceil(static_cast<double>(k_prime) * log_inv_lambda)));
  return sub;
}

double SubmoduleParams::acceptance_fraction() const {
  const double log_inv_lambda = std::log(1.0 / lambda_prime);
  // Algorithm 4 line 4: accept if >= 1 - lambda' - eps*log(1/lambda') covered.
  return std::max(0.0, 1.0 - lambda_prime - eps_inner * log_inv_lambda);
}

SketchParams submodule_sketch_params(SetId num_sets, const SubmoduleParams& sub,
                                     const StreamingOptions& options,
                                     double delta_pp) {
  return options.sketch_params(num_sets, sub.budget_sets, sub.eps_inner, delta_pp);
}

SubmoduleResult setcover_submodule_evaluate(const SketchView& view,
                                            Solver& solver,
                                            const SubmoduleParams& sub) {
  SubmoduleResult result;
  if (view.num_retained == 0) {
    // Empty sketch: nothing (left) to cover; the empty family is feasible
    // (the cover_fraction(0) == 1.0 convention — solve/greedy_engine.hpp).
    result.feasible = true;
    result.sketch_cover_fraction = 1.0;
    return result;
  }
  const std::size_t target = static_cast<std::size_t>(
      std::ceil(sub.acceptance_fraction() * static_cast<double>(view.num_retained)));
  const GreedyResult greedy =
      solver.cover_target(sub.budget_sets, std::max<std::size_t>(1, target));
  result.sketch_cover_fraction =
      static_cast<double>(greedy.covered) / static_cast<double>(view.num_retained);
  result.feasible = greedy.covered >= target;
  if (result.feasible) result.solution = greedy.solution;
  return result;
}

}  // namespace covstream
