#include "core/params.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace covstream {

std::string to_string(BudgetMode mode) {
  switch (mode) {
    case BudgetMode::kPaper:
      return "paper";
    case BudgetMode::kPractical:
      return "practical";
    case BudgetMode::kExplicit:
      return "explicit";
  }
  return "?";
}

bool SketchParams::is_valid() const {
  return num_sets > 0 && k >= 1 && eps > 0.0 && eps <= 1.0 &&
         delta_pp >= 1.0 &&
         (budget_mode != BudgetMode::kExplicit || explicit_budget > 0) &&
         (budget_mode != BudgetMode::kPractical || practical_c > 0.0);
}

void SketchParams::validate() const { COVSTREAM_CHECK(is_valid()); }

void SketchParams::save(SnapshotWriter& writer) const {
  writer.begin_section(snapshot_tag('P', 'R', 'M', 'S'));
  writer.u32(num_sets);
  writer.u32(k);
  writer.f64(eps);
  writer.f64(delta_pp);
  writer.u64(elems_hint);
  writer.u32(static_cast<std::uint32_t>(budget_mode));
  writer.f64(practical_c);
  writer.u64(explicit_budget);
  writer.u8(enforce_degree_cap ? 1 : 0);
  writer.u64(hash_seed);
  writer.end_section();
}

bool SketchParams::load(SnapshotReader& reader) {
  if (!reader.begin_section(snapshot_tag('P', 'R', 'M', 'S'))) return false;
  num_sets = reader.u32();
  k = reader.u32();
  eps = reader.f64();
  delta_pp = reader.f64();
  elems_hint = reader.u64();
  const std::uint32_t mode = reader.u32();
  practical_c = reader.f64();
  explicit_budget = reader.u64();
  enforce_degree_cap = reader.u8() != 0;
  hash_seed = reader.u64();
  if (!reader.ok()) return false;
  if (mode > static_cast<std::uint32_t>(BudgetMode::kExplicit)) {
    return reader.fail("sketch params: unknown budget mode");
  }
  budget_mode = static_cast<BudgetMode>(mode);
  // validate()'s checks, reported through the reader instead of aborting.
  if (!is_valid()) {
    return reader.fail("sketch params: values out of range");
  }
  return reader.end_section();
}

std::size_t SketchParams::degree_cap() const {
  if (!enforce_degree_cap) return std::numeric_limits<std::size_t>::max();
  const double log_inv_eps = std::log(1.0 / eps);
  const double cap =
      std::ceil(static_cast<double>(num_sets) * log_inv_eps / (eps * k));
  if (!(cap >= 1.0)) return 1;  // eps == 1 collapses the formula; keep >= 1
  if (cap >= 1e18) return std::numeric_limits<std::size_t>::max();
  return static_cast<std::size_t>(cap);
}

double SketchParams::paper_delta() const {
  // Number of geometric levels mu = log_{1/(1-eps)} m = ln m / ln(1/(1-eps)).
  const double m = std::max<double>(4.0, static_cast<double>(elems_hint));
  const double denom = std::log(1.0 / std::max(1e-12, 1.0 - eps));
  const double mu = std::max(2.0, std::log(m) / std::max(1e-12, denom));
  return delta_pp * std::max(1.0, std::log(mu));
}

std::size_t SketchParams::edge_budget() const {
  const double n = static_cast<double>(num_sets);
  double budget = 0.0;
  switch (budget_mode) {
    case BudgetMode::kPaper: {
      const double log_inv_eps = std::max(1e-9, std::log(1.0 / eps));
      const double log_n = std::max(1.0, std::log(n));
      budget = 24.0 * n * paper_delta() * log_inv_eps * log_n /
               ((1.0 - eps + 1e-12) * eps * eps * eps);
      break;
    }
    case BudgetMode::kPractical: {
      budget = practical_c * n * std::log2(n + 2.0) * std::log2(2.0 / eps);
      break;
    }
    case BudgetMode::kExplicit:
      // Explicit budgets are taken literally (space-sweep experiments need
      // budgets below n); the theory modes are floored at n.
      return explicit_budget;
  }
  budget = std::max(budget, n);
  if (budget >= 1e18) return std::numeric_limits<std::size_t>::max();
  return static_cast<std::size_t>(budget);
}

}  // namespace covstream
