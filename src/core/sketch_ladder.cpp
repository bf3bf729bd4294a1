#include "core/sketch_ladder.hpp"

#include <algorithm>

#include "hash/simd/kernels.hpp"
#include "parallel/parallel_for.hpp"

namespace covstream {
namespace {

/// True when a sketch built with `a` is a sketch built with `b`: the params
/// differ at most in k, and the caps bind alike (a cap at or above n never
/// binds, since a list holds distinct set ids).
bool same_sketch(SketchParams a, const SketchParams& b) {
  if (std::min<std::size_t>(a.degree_cap(), a.num_sets) !=
      std::min<std::size_t>(b.degree_cap(), b.num_sets)) {
    return false;
  }
  a.k = b.k;
  return a == b;
}

}  // namespace

SketchLadder::SketchLadder(const std::vector<SketchParams>& rung_params,
                           ThreadPool* pool)
    : pool_(pool) {
  COVSTREAM_CHECK(!rung_params.empty());
  sketch_of_.reserve(rung_params.size());
  for (const SketchParams& params : rung_params) {
    // The shared hash sweep and its one bounds check need one seed and one
    // set universe across the ladder.
    COVSTREAM_CHECK(params.hash_seed == rung_params.front().hash_seed);
    COVSTREAM_CHECK(params.num_sets == rung_params.front().num_sets);
    if (sketches_.empty() || !same_sketch(sketches_.back().params(), params)) {
      sketches_.emplace_back(params);
    }
    sketch_of_.push_back(sketches_.size() - 1);
  }
}

void SketchLadder::update_chunk(std::span<const Edge> edges) {
  if (edges.empty()) return;
  // One hash sweep for the whole ladder; sketches admit off the shared spans
  // (they differ only in cap/budget/cutoff, DESIGN.md §5.8). Serially the
  // sweep runs in L1-sized blocks so every sketch re-reads hot keys; with a
  // pool the chunk stays whole (one task per sketch per chunk — block-level
  // barriers would dominate), each task streaming the spans on its own
  // core. Block size never changes results (chunk-size independence).
  const Mix64Hash hash(sketches_.front().params().hash_seed);
  const SetId num_sets = sketches_.front().params().num_sets;
  constexpr std::size_t kSharedSweepBlock = 4096;
  const std::size_t block = pool_ == nullptr ? kSharedSweepBlock : edges.size();
  elem_scratch_.resize(std::min(edges.size(), block));
  key_scratch_.resize(std::min(edges.size(), block));
  for (std::size_t at = 0; at < edges.size(); at += block) {
    const std::size_t len = std::min(block, edges.size() - at);
    const std::span<const Edge> part = edges.subspan(at, len);
    // One fused kernel sweep per block (DESIGN.md §5.11): elem extraction
    // off the Edge stride, the shared bounds check, and 4-lane mix64
    // under AVX2 — instead of a per-edge extract loop plus a hash call.
    if (!simd::kernels().hash_edges_u64(part.data(), elem_scratch_.data(),
                                        key_scratch_.data(), len, hash.salt(),
                                        num_sets)) {
      for (const Edge& edge : part) {
        COVSTREAM_CHECK(edge.set < num_sets);
      }
    }
    const std::span<const ElemId> elems(elem_scratch_.data(), len);
    const std::span<const std::uint64_t> keys(key_scratch_.data(), len);
    // Once EVERY sketch is saturated, pre-filter the block ONCE against the
    // max cutoff across sketches: a key at or above it is at or above every
    // sketch's cutoff, so the (typical) all-rejected block costs one sweep
    // instead of one per sketch. Candidates are re-checked against each
    // sketch's live cutoff inside admit_selected, so the shared
    // over-approximation is exact. Cutoffs only fall, so re-reading them per
    // block is safe.
    std::uint64_t max_cutoff = 0;
    for (const SubsampleSketch& sketch : sketches_) {
      max_cutoff = std::max(max_cutoff, sketch.admission_cutoff());
    }
    if (max_cutoff != ~0ULL) {
      // The dispatched compare+compact kernel filters the block in one
      // sweep; the scratch is sized to the block because the AVX2 tier
      // stores 4-wide (entries past `kept` are scratch, never past len).
      if (candidate_scratch_.size() < len) candidate_scratch_.resize(len);
      const std::size_t kept = simd::kernels().compact_below_u64(
          key_scratch_.data(), len, max_cutoff, candidate_scratch_.data());
      // Fully rejected block — the dominant case once saturated. Nothing
      // can mutate any sketch (and every saturated sketch's peak was
      // already recorded at its evictions), so skip the fan-out.
      if (kept == 0) continue;
      const std::span<const std::uint32_t> candidates(candidate_scratch_.data(),
                                                      kept);
      parallel_for_blocked(
          pool_, sketches_.size(),
          [this, part, elems, keys, candidates](std::size_t begin,
                                                std::size_t end) {
            for (std::size_t s = begin; s < end; ++s) {
              sketches_[s].update_candidates_with_keys(part, elems, keys,
                                                       candidates);
            }
          },
          /*grain=*/1);
      continue;
    }
    parallel_for_blocked(
        pool_, sketches_.size(),
        [this, part, elems, keys](std::size_t begin, std::size_t end) {
          for (std::size_t s = begin; s < end; ++s) {
            sketches_[s].update_chunk_with_keys(part, elems, keys);
          }
        },
        /*grain=*/1);
  }
}

void SketchLadder::consume(EdgeStream& stream, const EdgeFilter& filter,
                           std::size_t batch_edges) {
  // update_chunk already fans sketches out over the pool (one task per
  // sketch per chunk, barrier between chunks), so one engine chunk feed
  // suffices and the per-chunk hash sweep runs once.
  const StreamEngine engine({batch_edges, nullptr});
  engine.run(stream, filter,
             [this](std::span<const Edge> chunk) { update_chunk(chunk); });
}

std::size_t SketchLadder::peak_space_words() const {
  std::size_t total = 0;
  for (const SubsampleSketch& sketch : sketches_) {
    total += sketch.peak_space_words();
  }
  return total;
}

}  // namespace covstream
