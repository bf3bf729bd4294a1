#include "core/sketch_ladder.hpp"

#include <algorithm>

#include "hash/simd/kernels.hpp"
#include "parallel/parallel_for.hpp"

namespace covstream {

SketchLadder::SketchLadder(std::vector<SketchParams> rung_params, ThreadPool* pool)
    : pool_(pool) {
  rungs_.reserve(rung_params.size());
  for (SketchParams& params : rung_params) {
    rungs_.emplace_back(params);
  }
  recompute_shared_keys();
}

void SketchLadder::recompute_shared_keys() {
  // Keys can be shared iff every rung hashes elements identically AND agrees
  // on the set universe (the chunk-level bounds check runs once, against the
  // shared num_sets).
  shared_keys_ =
      !rungs_.empty() &&
      std::all_of(rungs_.begin(), rungs_.end(), [&](const SubsampleSketch& r) {
        return r.params().hash_seed == rungs_.front().params().hash_seed &&
               r.params().num_sets == rungs_.front().params().num_sets;
      });
}

void SketchLadder::update(const Edge& edge) {
  for (SubsampleSketch& rung : rungs_) rung.update(edge);
}

void SketchLadder::update_chunk(std::span<const Edge> edges) {
  if (edges.empty() || rungs_.empty()) return;
  if (shared_keys_) {
    // One hash sweep for the whole ladder; rungs admit off the shared spans
    // (they differ only in cap/budget/cutoff, DESIGN.md §5.8). Serially the
    // sweep runs in L1-sized blocks so every rung re-reads hot keys; with a
    // pool the chunk stays whole (one task per rung per chunk — block-level
    // barriers would dominate), each task streaming the spans on its own
    // core. Block size never changes results (chunk-size independence).
    const Mix64Hash hash(rungs_.front().params().hash_seed);
    const SetId num_sets = rungs_.front().params().num_sets;
    constexpr std::size_t kSharedSweepBlock = 4096;
    const std::size_t block =
        pool_ == nullptr ? kSharedSweepBlock : edges.size();
    elem_scratch_.resize(std::min(edges.size(), block));
    key_scratch_.resize(std::min(edges.size(), block));
    for (std::size_t at = 0; at < edges.size(); at += block) {
      const std::size_t len = std::min(block, edges.size() - at);
      const std::span<const Edge> part = edges.subspan(at, len);
      // One fused kernel sweep per block (DESIGN.md §5.11): elem extraction
      // off the Edge stride, the shared bounds check, and 4-lane mix64
      // under AVX2 — instead of a per-edge extract loop plus a hash call.
      if (!simd::kernels().hash_edges_u64(part.data(), elem_scratch_.data(),
                                          key_scratch_.data(), len,
                                          hash.salt(), num_sets)) {
        for (const Edge& edge : part) {
          COVSTREAM_CHECK(edge.set < num_sets);
        }
      }
      const std::span<const ElemId> elems(elem_scratch_.data(), len);
      const std::span<const std::uint64_t> keys(key_scratch_.data(), len);
      // Once EVERY rung is saturated, pre-filter the block ONCE against the
      // max cutoff across rungs: a key at or above it is at or above every
      // rung's cutoff, so the (typical) all-rejected block costs one sweep
      // instead of H. Candidates are re-checked against each rung's live
      // cutoff inside admit_selected, so the shared over-approximation is
      // exact. Cutoffs only fall, so re-reading them per block is safe.
      std::uint64_t max_cutoff = 0;
      for (const SubsampleSketch& rung : rungs_) {
        max_cutoff = std::max(max_cutoff, rung.admission_cutoff());
      }
      if (max_cutoff != ~0ULL) {
        // The dispatched compare+compact kernel filters the block in one
        // sweep; the scratch is sized to the block because the AVX2 tier
        // stores 4-wide (entries past `kept` are scratch, never past len).
        if (candidate_scratch_.size() < len) candidate_scratch_.resize(len);
        const std::size_t kept = simd::kernels().compact_below_u64(
            key_scratch_.data(), len, max_cutoff, candidate_scratch_.data());
        // Fully rejected block — the dominant case once saturated. Nothing
        // can mutate any rung (and every saturated rung's peak was already
        // recorded at its evictions), so skip the per-rung fan-out.
        if (kept == 0) continue;
        const std::span<const std::uint32_t> candidates(
            candidate_scratch_.data(), kept);
        parallel_for_blocked(
            pool_, rungs_.size(),
            [this, part, elems, keys, candidates](std::size_t begin,
                                                  std::size_t end) {
              for (std::size_t r = begin; r < end; ++r) {
                rungs_[r].update_candidates_with_keys(part, elems, keys,
                                                      candidates);
              }
            },
            /*grain=*/1);
        continue;
      }
      parallel_for_blocked(
          pool_, rungs_.size(),
          [this, part, elems, keys](std::size_t begin, std::size_t end) {
            for (std::size_t r = begin; r < end; ++r) {
              rungs_[r].update_chunk_with_keys(part, elems, keys);
            }
          },
          /*grain=*/1);
    }
    return;
  }
  parallel_for_blocked(
      pool_, rungs_.size(),
      [this, edges](std::size_t begin, std::size_t end) {
        for (std::size_t r = begin; r < end; ++r) rungs_[r].update_chunk(edges);
      },
      /*grain=*/1);
}

void SketchLadder::consume(EdgeStream& stream, const EdgeFilter& filter,
                           std::size_t batch_edges) {
  // update_chunk already fans rungs out over the pool (one task per rung per
  // chunk, barrier between chunks), so one engine chunk feed suffices and
  // the per-chunk hash sweep runs once.
  const StreamEngine engine({batch_edges, nullptr});
  engine.run(stream, filter,
             [this](std::span<const Edge> chunk) { update_chunk(chunk); });
}

void SketchLadder::save(SnapshotWriter& writer) const {
  writer.begin_section(snapshot_tag('L', 'D', 'D', 'R'));
  writer.u64(rungs_.size());
  for (const SubsampleSketch& rung : rungs_) rung.save(writer);
  writer.end_section();
}

std::optional<SketchLadder> SketchLadder::load_snapshot(SnapshotReader& reader,
                                                        ThreadPool* pool) {
  if (!reader.begin_section(snapshot_tag('L', 'D', 'D', 'R'))) return std::nullopt;
  const std::uint64_t count = reader.u64();
  if (!reader.ok()) return std::nullopt;
  // Bound the count against the payload BEFORE reserving: every rung's
  // SKCH section occupies at least its section header (12 bytes) on the
  // wire, so a forged count implying more rungs than the payload can hold
  // must fail the reader, not reserve hundreds of megabytes of rungs_.
  if (count > reader.remaining() / 12) {
    reader.fail("sketch ladder: rung count overruns the section payload");
    return std::nullopt;
  }
  SketchLadder ladder;
  ladder.pool_ = pool;
  ladder.rungs_.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t r = 0; r < count; ++r) {
    std::optional<SubsampleSketch> rung = SubsampleSketch::load_snapshot(reader);
    if (!rung) return std::nullopt;
    ladder.rungs_.push_back(std::move(*rung));
  }
  if (!reader.end_section()) return std::nullopt;
  ladder.recompute_shared_keys();
  return ladder;
}

std::size_t SketchLadder::peak_space_words() const {
  std::size_t total = 0;
  for (const SubsampleSketch& rung : rungs_) total += rung.peak_space_words();
  return total;
}

void SketchLadder::merge_from(const SketchLadder& other) {
  COVSTREAM_CHECK(rungs_.size() == other.rungs_.size());
  for (std::size_t i = 0; i < rungs_.size(); ++i) {
    rungs_[i].merge_from(other.rungs_[i]);
  }
}

}  // namespace covstream
