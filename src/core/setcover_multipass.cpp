#include "core/setcover_multipass.hpp"

#include <algorithm>
#include <cmath>

#include "core/greedy_on_sketch.hpp"
#include "sketch/substrate/flat_table.hpp"
#include "solve/cover_tracker.hpp"
#include "stream/stream_engine.hpp"
#include "util/log.hpp"

namespace covstream {
namespace {

/// Builds a SketchView straight from residual edges (set -> dense slot per
/// distinct element) so the final stage can reuse the shared solver engine.
SketchView view_from_edges(SetId num_sets, const std::vector<Edge>& edges) {
  SketchView view;
  view.num_sets = num_sets;
  view.p_star = 1.0;
  FlatElemTable slot_of;
  slot_of.reserve(edges.size());
  for (const Edge& edge : edges) {
    slot_of.find_or_insert(edge.elem, static_cast<std::uint32_t>(slot_of.size()));
  }
  view.num_retained = slot_of.size();
  view.set_offsets.assign(num_sets + 1, 0);
  for (const Edge& edge : edges) ++view.set_offsets[edge.set + 1];
  for (SetId s = 0; s < num_sets; ++s) view.set_offsets[s + 1] += view.set_offsets[s];
  view.set_slots.resize(edges.size());
  std::vector<std::size_t> cursor(view.set_offsets.begin(), view.set_offsets.end() - 1);
  for (const Edge& edge : edges) {
    view.set_slots[cursor[edge.set]++] = slot_of.find(edge.elem);
  }
  return view;
}

}  // namespace

MultipassResult streaming_setcover_multipass(EdgeStream& stream, SetId num_sets,
                                             ElemId num_elems,
                                             const MultipassOptions& options) {
  COVSTREAM_CHECK(options.rounds >= 1);
  const std::size_t r = options.rounds;
  MultipassResult result;
  result.bitmap_words = (num_elems + 63) / 64;

  CoverTracker covered(num_elems);
  std::vector<SetId> chosen;          // full solution so far
  std::vector<SetId> last_iteration;  // S_{i-1}, not yet marked into `covered`
  std::vector<bool> in_last(num_sets, false);
  auto set_last = [&](std::vector<SetId> family) {
    for (const SetId s : last_iteration) in_last[s] = false;
    last_iteration = std::move(family);
    for (const SetId s : last_iteration) in_last[s] = true;
  };

  // lambda = m^{-1/(2+r)}, clamped to Algorithm 5's domain (0, 1/e].
  double lambda = std::pow(static_cast<double>(std::max<ElemId>(2, num_elems)),
                           -1.0 / (2.0 + static_cast<double>(r)));
  if (lambda > 1.0 / std::exp(1.0)) {
    COVSTREAM_WARN("multipass: m too small for r; clamping lambda to 1/e");
    lambda = 1.0 / std::exp(1.0);
  }
  result.lambda = lambda;

  OutliersOptions iter_options;
  iter_options.stream = options.stream;
  iter_options.lambda = lambda;
  iter_options.c_confidence =
      options.c_confidence * std::max<double>(1.0, static_cast<double>(r) - 1.0);

  const OutliersPlan plan = plan_outliers(num_sets, iter_options);
  std::size_t sketch_words_peak = 0;

  for (std::size_t iteration = 1; iteration < r; ++iteration) {
    SketchLadder ladder =
        outliers_ladder(num_sets, plan, iter_options.stream, options.pool);
    // Mark S_{i-1} and feed uncovered edges in the same pass (the paper's
    // "virtually construct G_i"); the engine evaluates this mask once per
    // chunk, before any rung runs. Purge just-covered retained elements
    // afterwards.
    ladder.consume(
        stream,
        [&](const Edge& edge) {
          if (covered.test(edge.elem)) return false;
          if (in_last[edge.set]) {
            covered.mark(edge.elem);
            return false;
          }
          return true;
        },
        options.stream.batch_edges);
    ladder.purge([&](ElemId elem) { return covered.test(elem); });

    OutliersResult accepted = accept_smallest_guess(ladder, plan, options.pool);
    sketch_words_peak = std::max(sketch_words_peak, accepted.space_words);
    result.picked_per_iteration.push_back(accepted.solution.size());
    chosen.insert(chosen.end(), accepted.solution.begin(),
                  accepted.solution.end());
    set_last(std::move(accepted.solution));
  }

  // Final stage: mark S_{r-1}, store G_r's residual edges, cover exactly.
  std::vector<Edge> residual;
  const StreamEngine engine({options.stream.batch_edges, nullptr});
  engine.run(stream, {}, [&](std::span<const Edge> chunk) {
    for (const Edge& edge : chunk) {
      if (covered.test(edge.elem)) continue;
      if (in_last[edge.set]) {
        covered.mark(edge.elem);
        continue;
      }
      residual.push_back(edge);
    }
  });
  // Purge edges whose element got covered later in the pass.
  std::erase_if(residual, [&](const Edge& edge) { return covered.test(edge.elem); });
  result.residual_edges = residual.size();
  result.residual_words = residual.size() * 2;  // ElemId + SetId per stored edge

  const SketchView residual_view = view_from_edges(num_sets, residual);
  Solver final_solver(residual_view, options.pool);
  const GreedyResult final_greedy = final_solver.cover_target(
      num_sets, std::max<std::size_t>(1, residual_view.num_retained));
  chosen.insert(chosen.end(), final_greedy.solution.begin(),
                final_greedy.solution.end());
  result.picked_per_iteration.push_back(final_greedy.solution.size());

  // Deduplicate while preserving pick order.
  std::vector<bool> seen(num_sets, false);
  std::vector<SetId> deduped;
  deduped.reserve(chosen.size());
  for (const SetId s : chosen) {
    if (!seen[s]) {
      seen[s] = true;
      deduped.push_back(s);
    }
  }
  result.solution = std::move(deduped);
  result.covered_everything =
      final_greedy.covered == residual_view.num_retained;
  result.passes = stream.passes_started();
  result.sketch_words = sketch_words_peak;
  result.space_words = result.sketch_words + result.bitmap_words +
                       result.residual_words;
  return result;
}

}  // namespace covstream
