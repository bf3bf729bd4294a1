#include "core/subsample_sketch.hpp"

#include <algorithm>

#include "hash/simd/kernels.hpp"
#include "stream/stream_engine.hpp"
#include "util/space_meter.hpp"

namespace covstream {

std::size_t SketchView::neighborhood_size(std::span<const SetId> family) const {
  BitVec touched(num_retained);
  std::size_t count = 0;
  for (const SetId set : family) {
    for (const std::uint32_t slot : slots_of(set)) {
      if (touched.set_if_clear(slot)) ++count;
    }
  }
  return count;
}

double SketchView::estimate_coverage(std::span<const SetId> family) const {
  COVSTREAM_CHECK(p_star > 0.0);
  return static_cast<double>(neighborhood_size(family)) / p_star;
}

std::size_t SketchView::space_words() const {
  return set_offsets.size() + words_for_u32(set_slots.size());
}

SubsampleSketch::SubsampleSketch(SketchParams params)
    : params_((params.validate(), params)),
      hash_(params_.hash_seed),
      degree_cap_(params_.degree_cap()),
      edge_budget_(params_.edge_budget()),
      core_(degree_cap_, edge_budget_, ~0ULL, kBaseSpaceWords) {}

void SubsampleSketch::update(const Edge& edge) {
  COVSTREAM_CHECK(edge.set < params_.num_sets);
  bool created = false;
  const std::uint32_t slot = core_.admit(edge.elem, hash_(edge.elem), created);
  core_.note_peak();
  if (slot == MinHashCore<std::uint64_t>::kNoSlot) return;  // evicted earlier
  absorb_admitted(slot, edge.set);
}

void SubsampleSketch::update_chunk(std::span<const Edge> edges) {
  // One fused kernel sweep per chunk (hash/simd/kernels.hpp, DESIGN.md
  // §5.11): elem extraction off the 16-byte Edge stride, the set bounds
  // check, and the mix64 hash in a single pass. Both admission regimes run
  // off the precomputed spans — admit_batch's dense sweep covers the
  // unsaturated case (and its live cutoff check keeps a mid-chunk
  // saturation exact), its count/compact pre-filter the saturated one.
  elem_scratch_.resize(edges.size());
  key_scratch_.resize(edges.size());
  if (!simd::kernels().hash_edges_u64(edges.data(), elem_scratch_.data(),
                                      key_scratch_.data(), edges.size(),
                                      hash_.salt(), params_.num_sets)) {
    // The fused sweep only reports THAT a set was out of bounds; re-run the
    // per-edge check to fail on the offending edge.
    for (const Edge& edge : edges) {
      COVSTREAM_CHECK(edge.set < params_.num_sets);
    }
  }
  update_chunk_with_keys(edges, elem_scratch_, key_scratch_);
}

void SubsampleSketch::update_chunk_with_keys(std::span<const Edge> edges,
                                             std::span<const ElemId> elems,
                                             std::span<const std::uint64_t> keys) {
  COVSTREAM_CHECK(edges.size() == keys.size());
  core_.admit_batch(elems, keys,
                    [this, edges](std::size_t i, std::uint32_t slot, bool) {
                      absorb_admitted(slot, edges[i].set);
                    });
  // One standing-footprint observation per chunk: rejected edges never move
  // the counter, so this reproduces the historical after-every-edge sample.
  core_.note_peak();
}

void SubsampleSketch::update_candidates_with_keys(
    std::span<const Edge> edges, std::span<const ElemId> elems,
    std::span<const std::uint64_t> keys,
    std::span<const std::uint32_t> candidates) {
  COVSTREAM_CHECK(edges.size() == keys.size());
  core_.admit_selected(elems, keys, candidates,
                       [this, edges](std::size_t i, std::uint32_t slot, bool) {
                         absorb_admitted(slot, edges[i].set);
                       });
  core_.note_peak();
}

void SubsampleSketch::consume(EdgeStream& stream, std::size_t batch_edges) {
  const StreamEngine engine({batch_edges, nullptr});
  engine.run(stream, {},
             [this](std::span<const Edge> chunk) { update_chunk(chunk); });
}

SubsampleSketch SubsampleSketch::build_offline(const CoverageInstance& instance,
                                               SketchParams params) {
  // Algorithm 1: visit elements in increasing hash order, adding each with at
  // most degree_cap of its edges, stopping at the budget (maximal prefix).
  SubsampleSketch sketch(params);
  const Mix64Hash hash(params.hash_seed);
  std::vector<std::pair<std::uint64_t, ElemId>> order;
  order.reserve(instance.num_elems());
  for (ElemId e = 0; e < instance.num_elems(); ++e) {
    if (instance.elem_degree(e) > 0) order.emplace_back(hash(e), e);
  }
  std::sort(order.begin(), order.end());
  std::vector<SetId> capped;
  for (const auto& [h, elem] : order) {
    const auto sets = instance.sets_of(elem);
    const std::size_t take = std::min(sets.size(), sketch.degree_cap_);
    if (sketch.core_.stored_edges() + take > sketch.edge_budget_ &&
        sketch.core_.live_elements() >= 1) {
      sketch.core_.set_cutoff(h);
      break;
    }
    capped.assign(sets.begin(), sets.begin() + take);
    std::sort(capped.begin(), capped.end());
    const std::uint32_t slot = sketch.core_.create_slot(elem, h);
    sketch.core_.assign_edges(slot, capped);
  }
  sketch.core_.note_peak();
  return sketch;
}

double SubsampleSketch::p_star() const {
  if (!saturated()) return 1.0;
  // Largest retained hash; an emptied (fully evicted) sketch reports the
  // cutoff itself.
  if (core_.live_elements() == 0) return hash_to_unit(core_.cutoff());
  return hash_to_unit(core_.max_live_key());
}

std::span<const SetId> SubsampleSketch::sets_of(ElemId elem) const {
  const std::uint32_t slot = core_.find(elem);
  if (slot == MinHashCore<std::uint64_t>::kNoSlot) return {};
  return core_.edges_of(slot);
}

bool SubsampleSketch::is_retained(ElemId elem) const {
  return core_.find(elem) != MinHashCore<std::uint64_t>::kNoSlot;
}

void SubsampleSketch::merge_from(const SubsampleSketch& other) {
  COVSTREAM_CHECK(params_.hash_seed == other.params_.hash_seed);
  COVSTREAM_CHECK(params_.num_sets == other.params_.num_sets);
  COVSTREAM_CHECK(degree_cap_ == other.degree_cap_);
  COVSTREAM_CHECK(edge_budget_ == other.edge_budget_);
  COVSTREAM_CHECK(params_.dedupe_edges && other.params_.dedupe_edges);

  core_.merge_from(other.core_);
  core_.enforce_budget();
  core_.note_peak();
}

SketchView SubsampleSketch::view() const {
  SketchView view;
  view.num_sets = params_.num_sets;
  view.p_star = p_star();
  view.num_retained = core_.build_csr(params_.num_sets, view.set_offsets,
                                      view.set_slots, [](std::uint32_t) {});
  return view;
}

void SubsampleSketch::save(SnapshotWriter& writer) const {
  writer.begin_section(snapshot_tag('S', 'K', 'C', 'H'));
  params_.save(writer);
  core_.save(writer);
  writer.end_section();
}

std::optional<SubsampleSketch> SubsampleSketch::load_snapshot(
    SnapshotReader& reader) {
  if (!reader.begin_section(snapshot_tag('S', 'K', 'C', 'H'))) return std::nullopt;
  SketchParams params;
  if (!params.load(reader)) return std::nullopt;
  // Construct from the saved params (rebuilding hash/cap/budget), then let
  // the core replace its state — core load cross-checks the derived
  // admission parameters against the serialized ones.
  SubsampleSketch sketch(params);
  if (!sketch.core_.load(reader, params.num_sets) || !reader.end_section()) {
    return std::nullopt;
  }
  return sketch;
}

double SubsampleSketch::estimate_coverage(std::span<const SetId> family) const {
  // Count retained elements covered by the family without building the view.
  std::vector<bool> in_family(params_.num_sets, false);
  for (const SetId set : family) {
    COVSTREAM_CHECK(set < params_.num_sets);
    in_family[set] = true;
  }
  std::size_t covered = 0;
  for (std::uint32_t slot = 0; slot < core_.slot_count(); ++slot) {
    if (!core_.alive(slot)) continue;
    for (const SetId set : core_.edges_of(slot)) {
      if (in_family[set]) {
        ++covered;
        break;
      }
    }
  }
  const double p = p_star();
  COVSTREAM_CHECK(p > 0.0);
  return static_cast<double>(covered) / p;
}

}  // namespace covstream
