// Algorithm 4 / Lemma 3.2: the feasibility submodule for set cover.
//
// Given a guess k' for the minimum set-cover size, a sketch tuned for
// k = k' * log(1/lambda') is built over the stream; greedy then tries to pick
// k' * log(1/lambda') sets covering a (1 - lambda' - eps*log(1/lambda'))
// fraction of the sketch's elements. Failure certifies (w.h.p.) that no set
// cover of size k' exists; success yields a small family covering almost
// everything.
//
// The sketch-building pass is shared across guesses by Algorithm 5, so this
// module exposes the parameter derivation and the post-pass evaluation
// separately.
#pragma once

#include <cstdint>
#include <vector>

#include "core/greedy_on_sketch.hpp"
#include "core/streaming_kcover.hpp"
#include "core/subsample_sketch.hpp"
#include "util/common.hpp"

namespace covstream {

struct SubmoduleParams {
  std::uint32_t k_prime = 1;    // guessed cover size
  double lambda_prime = 0.1;    // residual-outlier target, in (0, 1/e]
  double eps_inner = 0.01;      // the submodule's eps (paper: eps'/(13 log(1/lambda')))
  std::uint32_t budget_sets = 1;  // k' * ceil(log(1/lambda')): greedy's set budget

  /// Derives the paper's parameters from (k', eps', lambda', C') — the
  /// Algorithm 4 preamble. delta'' is folded into `options` by the caller.
  static SubmoduleParams derive(std::uint32_t k_prime, double eps_prime,
                                double lambda_prime);

  /// Fraction of sketch elements greedy must cover to declare feasibility.
  double acceptance_fraction() const;
};

struct SubmoduleResult {
  bool feasible = false;            // "returned false" when !feasible
  std::vector<SetId> solution;      // <= budget_sets sets
  double sketch_cover_fraction = 0; // achieved on the sketch
};

/// SketchParams for the sketch this submodule needs (k = budget_sets).
SketchParams submodule_sketch_params(SetId num_sets, const SubmoduleParams& sub,
                                     const StreamingOptions& options,
                                     double delta_pp);

/// Post-pass evaluation: greedy on the already-built sketch's view, through
/// `solver` built over that view (the shared solver engine, DESIGN.md
/// §5.10), + the coverage test of Algorithm 4 lines 4-7. Guesses that read
/// one sketch pass one warm solver; the solution is the same as a fresh
/// solver's.
SubmoduleResult setcover_submodule_evaluate(const SketchView& view,
                                            Solver& solver,
                                            const SubmoduleParams& sub);

}  // namespace covstream
