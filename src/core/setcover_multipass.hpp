// Algorithm 6 / Theorem 3.4: r-pass (1+eps) log m set cover in
// O~(n m^{3/(2+r)} + m) space, edge arrival.
//
// Each of the r-1 iterations runs Algorithm 5 with lambda = m^{-1/(2+r)} on
// the yet-uncovered subgraph G_i, then a final stage stores G_r's residual
// edges outright and covers them with exact greedy. Covered elements are
// tracked in an m-bit bitmap — the "+m" term of the space bound
// (DESIGN.md §5.3).
//
// Pass accounting: as in the paper, the covered-element marking of S_{i-1}
// rides in the next sketch pass ("virtually construct G_i"), and elements
// covered later in that pass are purged from the sketches at its end (still
// a valid, slightly smaller sketch of G_i); r passes total.
#pragma once

#include <cstdint>
#include <vector>

#include "core/setcover_outliers.hpp"
#include "stream/edge_stream.hpp"
#include "util/common.hpp"

namespace covstream {

struct MultipassOptions {
  StreamingOptions stream;
  std::size_t rounds = 3;  // the paper's r, in [1, log m]
  double c_confidence = 1.0;
  ThreadPool* pool = nullptr;
};

struct MultipassResult {
  std::vector<SetId> solution;
  bool covered_everything = false;
  std::size_t passes = 0;
  double lambda = 0.0;             // realized m^{-1/(2+r)} (clamped to <= 1/e)
  std::vector<std::size_t> picked_per_iteration;  // r-1 entries + final stage
  std::size_t residual_edges = 0;  // |G_r| actually stored
  std::size_t space_words = 0;     // sketches + bitmap + residual (peak)
  std::size_t sketch_words = 0;
  std::size_t bitmap_words = 0;
  std::size_t residual_words = 0;
};

/// Runs Algorithm 6 over `stream`. `num_elems` is m; element ids must be
/// dense in [0, m) (required by the covered bitmap, as in the paper's +m
/// space term).
MultipassResult streaming_setcover_multipass(EdgeStream& stream, SetId num_sets,
                                             ElemId num_elems,
                                             const MultipassOptions& options);

}  // namespace covstream
