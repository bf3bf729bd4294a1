#include "core/weighted_sketch.hpp"

#include <algorithm>
#include <cmath>

#include "solve/coverage_index.hpp"
#include "util/bitvec.hpp"

namespace covstream {

double WeightedSketchView::estimate_weighted_coverage(
    std::span<const SetId> family) const {
  BitVec touched(num_retained);
  double total = 0.0;
  for (const SetId set : family) {
    for (const std::uint32_t slot : slots_of(set)) {
      if (touched.set_if_clear(slot)) total += slot_value[slot];
    }
  }
  return total;
}

WeightedGreedyResult weighted_greedy_max_cover(const WeightedSketchView& view,
                                               std::uint32_t k) {
  CoverageIndex index(view);
  GreedyScratch scratch;
  return greedy_solve_lazy_weighted(index, view.slot_value, scratch, k);
}

WeightedSubsampleSketch::WeightedSubsampleSketch(SketchParams params)
    : params_((params.validate(), params)),
      hash_(params_.hash_seed),
      degree_cap_(params_.degree_cap()),
      edge_budget_(params_.edge_budget()),
      core_(params_.num_sets, degree_cap_, edge_budget_, kInfiniteKey,
            kBaseSpaceWords) {}

double WeightedSubsampleSketch::key_of(ElemId elem, double weight) const {
  COVSTREAM_CHECK(weight > 0.0);
  // key = -log(1 - u)/w is Exp(w)-distributed AND monotone increasing in the
  // unit hash u, so for w == 1 the kept prefix coincides with the unweighted
  // sketch's min-hash prefix (u in [0, 1), so the argument stays positive).
  const double u = hash_to_unit(hash_(elem));
  return -std::log1p(-u) / weight;
}

void WeightedSubsampleSketch::absorb_admitted(const WeightedEdge& edge,
                                              std::uint32_t slot, bool created) {
  if (created) {
    if (slot >= weight_of_slot_.size()) {
      const std::size_t grown = slot + 1 - weight_of_slot_.size();
      weight_of_slot_.resize(slot + 1, 1.0);
      core_.track_policy_space(grown);  // one word per double
    }
    weight_of_slot_[slot] = edge.weight;
  } else {
    // Weights must be a function of the element, not of the arrival.
    COVSTREAM_CHECK(std::abs(weight_of_slot_[slot] - edge.weight) <
                    1e-9 * (1.0 + std::abs(edge.weight)));
  }

  if (core_.add_edge(slot, edge.set)) {
    core_.enforce_budget();
  }
}

void WeightedSubsampleSketch::update(const WeightedEdge& edge) {
  COVSTREAM_CHECK(edge.set < params_.num_sets);
  bool created = false;
  const std::uint32_t slot =
      core_.admit(edge.elem, key_of(edge.elem, edge.weight), created);
  core_.note_peak();
  if (slot == MinHashCore<double>::kNoSlot) return;
  absorb_admitted(edge, slot, created);
}

void WeightedSubsampleSketch::update_chunk(std::span<const WeightedEdge> edges) {
  // Mirrors SubsampleSketch::update_chunk: per-edge until the first
  // eviction (everything survives an infinite cutoff), batched pre-filter
  // for the saturated remainder.
  std::size_t start = 0;
  if (!core_.saturated()) {
    while (start < edges.size()) {
      update(edges[start]);
      ++start;
      if (core_.saturated()) break;
    }
    if (start == edges.size()) return;
  }
  const std::span<const WeightedEdge> rest = edges.subspan(start);
  elem_scratch_.resize(rest.size());
  key_scratch_.resize(rest.size());
  for (std::size_t i = 0; i < rest.size(); ++i) {
    COVSTREAM_CHECK(rest[i].set < params_.num_sets);
    elem_scratch_[i] = rest[i].elem;
    key_scratch_[i] = key_of(rest[i].elem, rest[i].weight);
  }
  core_.admit_batch(
      std::span<const ElemId>(elem_scratch_),
      std::span<const double>(key_scratch_),
      [rest](std::size_t i) { return rest[i].set; },
      [this, rest](std::size_t i, std::uint32_t slot, bool created) {
        absorb_admitted(rest[i], slot, created);
      });
  core_.note_peak();  // standing footprint for all-rejected chunks
}

double WeightedSubsampleSketch::tau_star() const {
  if (!saturated()) return kInfiniteKey;
  if (core_.live_elements() == 0) return core_.cutoff();
  return core_.max_live_key();
}

double WeightedSubsampleSketch::ht_value(std::uint32_t slot, double tau) const {
  // Horvitz–Thompson correction. Unsaturated sketch: inclusion prob. 1.
  const double weight = weight_of_slot_[slot];
  if (!saturated()) return weight;
  const double inclusion = 1.0 - std::exp(-weight * tau);
  COVSTREAM_CHECK(inclusion > 0.0);
  return weight / inclusion;
}

WeightedSketchView WeightedSubsampleSketch::view() const {
  WeightedSketchView view;
  view.num_sets = params_.num_sets;
  view.tau_star = tau_star();
  view.num_retained = core_.build_csr(
      params_.num_sets, view.set_offsets, view.set_slots,
      [&](std::uint32_t slot) {
        view.slot_value.push_back(ht_value(slot, view.tau_star));
      });
  return view;
}

double WeightedSubsampleSketch::estimate_weighted_coverage(
    std::span<const SetId> family) const {
  std::vector<bool> in_family(params_.num_sets, false);
  for (const SetId set : family) {
    COVSTREAM_CHECK(set < params_.num_sets);
    in_family[set] = true;
  }
  const double tau = tau_star();
  double total = 0.0;
  for (std::uint32_t slot = 0; slot < core_.slot_count(); ++slot) {
    if (core_.alive(slot) &&
        core_.any_edge(slot, [&](SetId set) { return in_family[set]; })) {
      total += ht_value(slot, tau);
    }
  }
  return total;
}

void WeightedSubsampleSketch::merge_from(const WeightedSubsampleSketch& other) {
  COVSTREAM_CHECK(params_.hash_seed == other.params_.hash_seed);
  COVSTREAM_CHECK(params_.num_sets == other.params_.num_sets);
  COVSTREAM_CHECK(degree_cap_ == other.degree_cap_);
  COVSTREAM_CHECK(edge_budget_ == other.edge_budget_);

  core_.merge_from(
      other.core_, [this, &other](std::uint32_t mine, std::uint32_t theirs) {
        // Mirror the weight the other shard recorded for the slot the merge
        // just minted (same growth accounting as absorb_admitted).
        if (mine >= weight_of_slot_.size()) {
          const std::size_t grown = mine + 1 - weight_of_slot_.size();
          weight_of_slot_.resize(mine + 1, 1.0);
          core_.track_policy_space(grown);
        }
        weight_of_slot_[mine] = other.weight_of_slot_[theirs];
      });
  core_.enforce_budget();
  core_.note_peak();
}

void WeightedSubsampleSketch::save(SnapshotWriter& writer) const {
  writer.begin_section(snapshot_tag('W', 'S', 'K', 'C'));
  params_.save(writer);
  // Weights precede the core so load can hand the core the policy-side word
  // count its tracked-vs-audit space check needs.
  writer.f64_array(weight_of_slot_);
  core_.save(writer);
  writer.end_section();
}

std::optional<WeightedSubsampleSketch> WeightedSubsampleSketch::load_snapshot(
    SnapshotReader& reader) {
  if (!reader.begin_section(snapshot_tag('W', 'S', 'K', 'C'))) return std::nullopt;
  SketchParams params;
  if (!params.load(reader)) return std::nullopt;
  WeightedSubsampleSketch sketch(params);
  if (!reader.f64_array(sketch.weight_of_slot_, 1ull << 40)) return std::nullopt;
  if (!sketch.core_.load(reader, sketch.weight_of_slot_.size())) {
    return std::nullopt;
  }
  if (sketch.weight_of_slot_.size() > sketch.core_.slot_count()) {
    reader.fail("weighted sketch: weight array outgrew the slot range");
    return std::nullopt;
  }
  for (std::uint32_t slot = 0; slot < sketch.core_.slot_count(); ++slot) {
    if (sketch.core_.alive(slot) &&
        (slot >= sketch.weight_of_slot_.size() ||
         !(sketch.weight_of_slot_[slot] > 0.0))) {
      reader.fail("weighted sketch: live slot without a positive weight");
      return std::nullopt;
    }
  }
  if (!reader.end_section()) return std::nullopt;
  return sketch;
}

WeightedKCoverResult streaming_weighted_kcover(
    const std::vector<WeightedEdge>& stream, SetId num_sets, std::uint32_t k,
    const SketchParams& params) {
  COVSTREAM_CHECK(params.num_sets == num_sets);
  WeightedSubsampleSketch sketch(params);
  // Feed engine-sized chunks through the batched path (identical result to
  // per-edge updates; chunk size is a buffering knob only).
  const std::span<const WeightedEdge> all(stream);
  constexpr std::size_t kChunk = 1 << 15;
  for (std::size_t at = 0; at < all.size(); at += kChunk) {
    sketch.update_chunk(all.subspan(at, std::min(kChunk, all.size() - at)));
  }
  const WeightedGreedyResult greedy = weighted_greedy_max_cover(sketch.view(), k);
  WeightedKCoverResult result;
  result.solution = greedy.solution;
  result.estimated_value = greedy.value;
  result.space_words = sketch.peak_space_words();
  return result;
}

}  // namespace covstream
