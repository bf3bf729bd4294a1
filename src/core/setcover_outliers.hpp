// Algorithm 5 / Theorem 3.3: single-pass (1+eps) log(1/lambda)-approximate
// set cover with lambda outliers, O~_lambda(n) space, edge arrival.
//
// Strategy: guess the optimal cover size k' on the geometric grid
// (1 + eps/3)^i, build one sketch per guess in a single shared pass (the
// paper's "run these in parallel"; guesses whose degree caps reach n read
// one sketch, core/sketch_ladder.hpp), then accept the smallest guess whose
// Algorithm-4 evaluation succeeds.
#pragma once

#include <cstdint>
#include <vector>

#include "core/setcover_submodule.hpp"
#include "core/sketch_ladder.hpp"
#include "core/streaming_kcover.hpp"
#include "parallel/thread_pool.hpp"
#include "stream/edge_stream.hpp"
#include "util/common.hpp"

namespace covstream {

struct OutliersOptions {
  StreamingOptions stream;  // eps here is the theorem's eps
  double lambda = 0.1;      // outlier fraction, in (0, 1/e]
  double c_confidence = 1.0;  // the theorem's C >= 1
  /// Geometric growth of the k' guess ladder; 0 means the paper's 1 + eps/3.
  /// Coarser ladders trade solution size for fewer sketches (ablation knob).
  double guess_growth = 0.0;
  ThreadPool* pool = nullptr;
};

struct OutliersResult {
  bool feasible = false;           // false only if every guess failed
  std::vector<SetId> solution;
  std::uint32_t accepted_k_prime = 0;  // the guess that succeeded
  double sketch_cover_fraction = 0.0;
  std::size_t ladder_rungs = 0;
  std::size_t ladder_sketches = 0;  // distinct sketches the rungs read
  std::size_t space_words = 0;  // sum of the sketches' peaks (they coexist)
  std::size_t passes = 0;
};

/// Derived per-guess parameters; exposed for tests/ablations.
struct OutliersPlan {
  double eps_prime = 0.0;    // lambda (1 - e^{-eps/2})
  double lambda_prime = 0.0; // lambda e^{-eps/2}
  double delta_pp = 0.0;
  std::vector<SubmoduleParams> guesses;  // increasing k'
};
OutliersPlan plan_outliers(SetId num_sets, const OutliersOptions& options);

/// The ladder `plan` needs: rung i is guess i's Algorithm-4 sketch.
SketchLadder outliers_ladder(SetId num_sets, const OutliersPlan& plan,
                             const StreamingOptions& stream, ThreadPool* pool);

/// Algorithm 5's acceptance loop on a consumed ladder: evaluates guesses in
/// increasing k' and accepts the first feasible one. One view and one warm
/// solver serve each run of rungs that read the same sketch. Fills every
/// field but `passes`.
OutliersResult accept_smallest_guess(const SketchLadder& ladder,
                                     const OutliersPlan& plan,
                                     ThreadPool* pool);

/// Runs Algorithm 5 over a single pass of `stream`.
OutliersResult streaming_setcover_outliers(EdgeStream& stream, SetId num_sets,
                                           const OutliersOptions& options);

}  // namespace covstream
