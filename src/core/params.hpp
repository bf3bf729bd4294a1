// Parameters of the H<=n(k, eps, delta'') sketch (Definition 2.1).
//
// The paper's edge budget
//     B = 24 n delta log(1/eps) log n / ((1-eps) eps^3),
//     delta = delta'' * log(log_{1/(1-eps)} m),
// is what the proofs need; at laptop scale it often exceeds the whole input,
// making every run trivially exact. The sketch guarantee is monotone in B,
// so we expose three budget modes (DESIGN.md §2.2):
//   * Paper     — the literal formula (used by tests that verify the formula
//                 itself, and available for full-fidelity runs);
//   * Practical — c * n * log2(n+2) * log2(2/eps) (still O~(n), independent
//                 of m; the default for benches);
//   * Explicit  — caller-chosen budget (used for sweeps).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "sketch/substrate/snapshot.hpp"
#include "util/common.hpp"

namespace covstream {

enum class BudgetMode { kPaper, kPractical, kExplicit };

std::string to_string(BudgetMode mode);

struct SketchParams {
  SetId num_sets = 0;        // n (known up front, as in the paper)
  std::uint32_t k = 1;       // solution size the sketch is tuned for
  double eps = 0.1;          // epsilon in (0, 1]
  double delta_pp = 1.0;     // delta'' >= 1 (failure-probability knob)
  std::uint64_t elems_hint = 1u << 20;  // m used only inside Paper-mode delta

  BudgetMode budget_mode = BudgetMode::kPractical;
  double practical_c = 4.0;            // c in the Practical formula
  std::size_t explicit_budget = 0;     // Explicit mode budget

  bool enforce_degree_cap = true;  // ablation switch (H'p vs Hp)
  std::uint64_t hash_seed = 0x9b97f4a7c15ULL;  // the random function h

  /// Per-element degree cap of H'p: ceil(n * ln(1/eps) / (eps * k)),
  /// clamped to >= 1. Effectively infinite when enforce_degree_cap is false.
  std::size_t degree_cap() const;

  /// Edge budget B per the selected mode (>= n in all modes).
  std::size_t edge_budget() const;

  /// The paper's delta = delta'' * log(log_{1/(1-eps)} m).
  double paper_delta() const;

  /// One range predicate shared by validate() (abort on violation) and
  /// load() (fail the reader on violation) so the two cannot drift.
  bool is_valid() const;

  void validate() const;

  /// Serializes every field (docs/FORMATS.md §3 'PRMS') so a loaded sketch
  /// reconstructs the exact hash function, caps, and budget it was built
  /// with — params are the part of sketch identity that code cannot rederive.
  void save(SnapshotWriter& writer) const;

  /// Restores save()d params in place; validates ranges (the same checks as
  /// validate(), but failing the reader instead of aborting the process).
  bool load(SnapshotReader& reader);

  /// Field-wise equality — the coordinator's shard-coherence check: two
  /// shards are mergeable only if every parameter (seed, budget, caps, all
  /// of it) matches, so a silent partial merge can never happen.
  friend bool operator==(const SketchParams&, const SketchParams&) = default;
};

}  // namespace covstream
