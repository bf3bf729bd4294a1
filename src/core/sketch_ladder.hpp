// A ladder of H<=n sketches built in a single streaming pass.
//
// Algorithm 5 guesses the set-cover size k' over a geometric grid and "runs
// these in parallel", one sketch per guess. But k' reaches a sketch only
// through the degree cap ceil(n ln(1/eps) / (eps k')), and a cap at or above
// n never binds, since an edge list holds distinct set ids. So rungs whose
// params differ only in k and whose caps clamp to the same min(cap, n) read
// ONE SubsampleSketch: rung(i) returns the sketch rung i reads, and the
// ladder stores and admits into each distinct sketch once (DESIGN.md §5.5).
// Caps fall as k' grows, so the rungs that share a sketch are contiguous.
//
// Every rung shares one hash seed and one set universe (the constructor
// checks it), so the ladder hashes each chunk's elements ONCE into shared
// scratch spans and every distinct sketch admits off the same keys: a ladder
// pass costs one hash sweep instead of one per sketch (DESIGN.md §5.8).
// With a ThreadPool the sketches admit chunk-parallel; they are independent,
// so parallel == serial bit-for-bit (DESIGN.md §5.7).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/subsample_sketch.hpp"
#include "parallel/thread_pool.hpp"
#include "stream/stream_engine.hpp"

namespace covstream {

class SketchLadder {
 public:
  /// One rung per entry of `rung_params` (nonempty); all must share
  /// hash_seed and num_sets.
  explicit SketchLadder(const std::vector<SketchParams>& rung_params,
                        ThreadPool* pool = nullptr);

  /// Number of rungs.
  std::size_t size() const { return sketch_of_.size(); }

  /// Number of distinct sketches the rungs read.
  std::size_t sketch_count() const { return sketches_.size(); }

  /// The sketch rung `i` reads; equal, content for content, to a standalone
  /// sketch built with rung i's params over the same edges. Its params()
  /// are those of the first rung that reads it.
  const SubsampleSketch& rung(std::size_t i) const {
    return sketches_[sketch_of_[i]];
  }

  /// Feeds a buffered chunk of edges to every distinct sketch, one task per
  /// sketch: the chunk is hashed once, and each sketch runs the substrate's
  /// batched admission over the shared (elem, key) spans.
  void update_chunk(std::span<const Edge> edges);

  /// Runs one full pass of the stream through all rungs (engine-batched
  /// chunks into update_chunk). `filter` may be empty; otherwise edges
  /// failing it are dropped once per chunk, before any rung sees them (used
  /// by Algorithm 6 to hide covered elements). `batch_edges` = 0 picks the
  /// engine default.
  void consume(EdgeStream& stream, const EdgeFilter& filter = {},
               std::size_t batch_edges = 0);

  /// Removes retained elements matching `pred` from every distinct sketch
  /// (Algorithm 6's end-of-pass purge of just-covered elements).
  template <typename Pred>
  void purge(Pred&& pred) {
    for (SubsampleSketch& sketch : sketches_) sketch.purge(pred);
  }

  /// Sum of the distinct sketches' peak spaces (they coexist during the
  /// pass); a shared sketch counts once.
  std::size_t peak_space_words() const;

 private:
  std::vector<SubsampleSketch> sketches_;
  std::vector<std::size_t> sketch_of_;  // rung -> index into sketches_
  ThreadPool* pool_ = nullptr;
  // One hash sweep per chunk, shared read-only across all sketch tasks; once
  // every sketch is saturated, one pre-filter sweep (against the max
  // cutoff) compacts shared candidates too.
  std::vector<ElemId> elem_scratch_;
  std::vector<std::uint64_t> key_scratch_;
  std::vector<std::uint32_t> candidate_scratch_;
};

}  // namespace covstream
