// Algorithm 3 / Theorem 3.1: single-pass (1 - 1/e - eps)-approximate k-cover
// in the edge-arrival model using O~(n) space.
//
// Build H<=n(k, eps/12, 2 + log n) over the stream, then run greedy on the
// sketch. The returned solution is the greedy pick; `estimated_coverage` is
// the sketch's unbiased estimate of its true coverage.
#pragma once

#include <cstdint>
#include <vector>

#include "core/greedy_on_sketch.hpp"
#include "core/params.hpp"
#include "core/subsample_sketch.hpp"
#include "parallel/thread_pool.hpp"
#include "stream/edge_stream.hpp"
#include "util/common.hpp"

namespace covstream {

/// Knobs shared by the streaming algorithms. Defaults follow the paper where
/// the paper fixes a value (delta'' = 2 + log n via `auto_delta`), and use
/// the Practical budget mode otherwise (DESIGN.md §2.2).
struct StreamingOptions {
  double eps = 0.2;
  BudgetMode budget_mode = BudgetMode::kPractical;
  double practical_c = 4.0;
  std::size_t explicit_budget = 0;
  double delta_pp = 0.0;  // 0 = the paper's choice for the algorithm
  std::uint64_t seed = 0xc0ffee5eedULL;  // overridden by callers in practice
  bool enforce_degree_cap = true;
  std::uint64_t elems_hint = 1u << 20;
  /// Stream-engine chunk size for every pass (0 = engine default); a pure
  /// buffering knob, never observable in results.
  std::size_t batch_edges = 0;

  /// Assembles SketchParams for a sketch tuned to solution size `k`.
  SketchParams sketch_params(SetId num_sets, std::uint32_t k,
                             double eps_override = 0.0,
                             double delta_override = 0.0) const;
};

struct KCoverResult {
  std::vector<SetId> solution;
  double estimated_coverage = 0.0;  // |Gamma(sketch, sol)| / p*
  std::size_t sketch_retained = 0;
  std::size_t sketch_edges = 0;
  double p_star = 1.0;
  std::size_t space_words = 0;        // peak sketch space over the pass
  std::size_t final_space_words = 0;  // steady-state sketch size at end of pass
  std::size_t solver_space_words = 0; // solver index + scratch for the solve
  std::size_t passes = 0;
};

/// Runs Algorithm 3 over one pass of `stream`. `num_sets` is n (known up
/// front, as in the paper); `k` is the cover size. With a pool, the sketch is
/// built as one element-hash shard per pool thread and reduced by merging —
/// content-identical to the single-threaded sketch (same retained elements,
/// edges, and p*, even when the degree cap binds; DESIGN.md §5.5), so the
/// solution and estimates are identical. Space accounting differs by
/// construction: `space_words` reports the distributed peak (shards coexist
/// during the pass).
KCoverResult streaming_kcover(EdgeStream& stream, SetId num_sets, std::uint32_t k,
                              const StreamingOptions& options,
                              ThreadPool* pool = nullptr);

/// The same algorithm when the sketch has already been built (lets callers
/// reuse one sketch for several k <= sketch k; used by tests, benches, and
/// the serve path). The solve runs through the shared solver engine
/// (DESIGN.md §5.10); `pool` (nullable) parallelizes large decrement sweeps
/// without changing the solution.
KCoverResult kcover_on_sketch(const SubsampleSketch& sketch, std::uint32_t k,
                              ThreadPool* pool = nullptr);

/// The solve + result assembly of kcover_on_sketch for callers that keep a
/// warm Solver over one view across queries. `view` must be `solver`'s view
/// and `sketch` its owner.
KCoverResult kcover_with_solver(const SubsampleSketch& sketch,
                                const SketchView& view, Solver& solver,
                                std::uint32_t k);

/// The same from the view alone, for holders of a view without its sketch
/// (each fleet handle): every field but the sketch's space words
/// (`space_words`, `final_space_words`), which the caller fills in.
KCoverResult kcover_on_view(const SketchView& view, Solver& solver,
                            std::uint32_t k);

}  // namespace covstream
