#include "pricing/arbitrage.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/telemetry.h"
#include "common/trace.h"

namespace prc::pricing {
namespace {

constexpr double kRelTolerance = 1e-9;

bool approximately_equal(double a, double b) {
  const double scale = std::max({std::abs(a), std::abs(b), 1.0});
  return std::abs(a - b) <= 1e-6 * scale;
}

}  // namespace

std::string PropertyViolation::to_string() const {
  std::ostringstream out;
  out << "property " << property << " violated: " << from.to_string() << " -> "
      << to.to_string() << " lhs=" << lhs << " rhs=" << rhs;
  return out.str();
}

ArbitrageChecker::ArbitrageChecker(VarianceModel model)
    : ArbitrageChecker(model, Grid{}) {}

ArbitrageChecker::ArbitrageChecker(VarianceModel model, Grid grid)
    : model_(model), grid_(grid) {
  PRC_CHECK(grid_.alpha_steps >= 2 && grid_.delta_steps >= 2)
      << "checker grid needs >= 2 steps per axis, got alpha_steps="
      << grid_.alpha_steps << " delta_steps=" << grid_.delta_steps;
  PRC_CHECK(grid_.alpha_min > 0.0 && grid_.alpha_min < grid_.alpha_max &&
            grid_.alpha_max <= 1.0)
      << "checker grid needs 0 < alpha_min < alpha_max <= 1";
  PRC_CHECK(grid_.delta_min >= 0.0 && grid_.delta_min < grid_.delta_max &&
            grid_.delta_max < 1.0)
      << "checker grid needs 0 <= delta_min < delta_max < 1";
}

CheckReport ArbitrageChecker::check(const PricingFunction& pricing,
                                    std::size_t max_violations) const {
  static telemetry::Counter& arbitrage_checks =
      telemetry::counter("pricing.arbitrage_checks");
  static telemetry::Counter& grid_checks =
      telemetry::counter("pricing.arbitrage_grid_checks");
  static telemetry::Counter& violations_counter =
      telemetry::counter("pricing.arbitrage_violations");
  PRC_TRACE_SPAN("pricing.arbitrage_check");
  arbitrage_checks.increment();
  CheckReport report;
  const auto record = [&](PropertyViolation violation) {
    report.arbitrage_avoiding = false;
    if (report.violations.size() < max_violations) {
      report.violations.push_back(std::move(violation));
    }
  };

  std::vector<double> alphas(grid_.alpha_steps);
  std::vector<double> deltas(grid_.delta_steps);
  for (std::size_t i = 0; i < alphas.size(); ++i) {
    alphas[i] = grid_.alpha_min + (grid_.alpha_max - grid_.alpha_min) *
                                      static_cast<double>(i) /
                                      static_cast<double>(alphas.size() - 1);
  }
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    deltas[i] = grid_.delta_min + (grid_.delta_max - grid_.delta_min) *
                                      static_cast<double>(i) /
                                      static_cast<double>(deltas.size() - 1);
  }

  // Every property below prices and re-prices the same grid cells; quote
  // each cell ONCE up front and index into the vectors.  Pricing functions
  // are pure in (alpha, delta), so the precomputed doubles are the exact
  // values the per-cell calls produced.
  const auto cell = [this](std::size_t i, std::size_t j) {
    return i * grid_.delta_steps + j;
  };
  std::vector<query::AccuracySpec> grid_specs;
  grid_specs.reserve(alphas.size() * deltas.size());
  std::vector<double> variance_grid;
  variance_grid.reserve(alphas.size() * deltas.size());
  for (const double alpha : alphas) {
    for (const double delta : deltas) {
      grid_specs.push_back({alpha, delta});
      variance_grid.push_back(model_.contract_variance(grid_specs.back()));
    }
  }
  const std::vector<double> price_grid = pricing.price_all(grid_specs);

  // Property 1: contracts with identical variance must have identical price.
  // Each grid cell is compared with its iso-variance twin at every other
  // grid delta.  The twins sit off the grid (their alpha solves the
  // iso-variance equation), so they are collected in loop order and priced
  // in one batch before the comparisons run in that same order.
  std::vector<std::size_t> from_cells;
  std::vector<query::AccuracySpec> twins;
  for (std::size_t i = 0; i < alphas.size(); ++i) {
    for (std::size_t j = 0; j < deltas.size(); ++j) {
      const double v = variance_grid[cell(i, j)];
      for (double other_delta : deltas) {
        // Exact copies from the same grid vector, so identity compare
        // is the intended duplicate filter.
        if (other_delta == deltas[j]) continue;  // lint:allow float-eq
        const double other_alpha = model_.alpha_for_variance(v, other_delta);
        if (!(other_alpha > 0.0) || other_alpha > 1.0) continue;
        from_cells.push_back(cell(i, j));
        twins.push_back({other_alpha, other_delta});
      }
    }
  }
  const std::vector<double> twin_prices = pricing.price_all(twins);
  for (std::size_t k = 0; k < twins.size(); ++k) {
    const double price_a = price_grid[from_cells[k]];
    ++report.checks_performed;
    if (!approximately_equal(price_a, twin_prices[k])) {
      record({1, grid_specs[from_cells[k]], twins[k], price_a,
              twin_prices[k]});
    }
  }

  // Property 2: raising delta — relative price increase must cover the
  // relative variance decrease.
  for (std::size_t i = 0; i < alphas.size(); ++i) {
    for (std::size_t j = 0; j + 1 < deltas.size(); ++j) {
      const query::AccuracySpec lo{alphas[i], deltas[j]};
      const query::AccuracySpec hi{alphas[i], deltas[j + 1]};
      const double pi_lo = price_grid[cell(i, j)];
      const double pi_hi = price_grid[cell(i, j + 1)];
      const double v_lo = variance_grid[cell(i, j)];
      const double v_hi = variance_grid[cell(i, j + 1)];
      const double lhs = (pi_hi - pi_lo) / pi_hi;
      const double rhs = (v_lo - v_hi) / v_lo;
      ++report.checks_performed;
      if (lhs < rhs - kRelTolerance) record({2, lo, hi, lhs, rhs});
    }
  }

  // Property 3: raising alpha — relative price drop must not exceed the
  // relative variance increase.
  for (std::size_t j = 0; j < deltas.size(); ++j) {
    for (std::size_t i = 0; i + 1 < alphas.size(); ++i) {
      const query::AccuracySpec lo{alphas[i], deltas[j]};
      const query::AccuracySpec hi{alphas[i + 1], deltas[j]};
      const double pi_lo = price_grid[cell(i, j)];
      const double pi_hi = price_grid[cell(i + 1, j)];
      const double v_lo = variance_grid[cell(i, j)];
      const double v_hi = variance_grid[cell(i + 1, j)];
      const double lhs = (pi_lo - pi_hi) / pi_lo;
      const double rhs = (v_hi - v_lo) / v_hi;
      ++report.checks_performed;
      if (lhs > rhs + kRelTolerance) record({3, lo, hi, lhs, rhs});
    }
  }
  grid_checks.increment(report.checks_performed);
  if (!report.arbitrage_avoiding) {
    violations_counter.increment(report.violations.size());
  }
  return report;
}

double AttackResult::savings() const {
  if (!profitable || honest_price <= 0.0) return 0.0;
  return 1.0 - best_attack_cost / honest_price;
}

AttackSimulator::AttackSimulator(VarianceModel model)
    : AttackSimulator(model, SearchSpace{}) {}

AttackSimulator::AttackSimulator(VarianceModel model, SearchSpace space)
    : model_(model), space_(space) {
  PRC_CHECK(space_.max_copies >= 2 && space_.alpha_steps >= 2 &&
            space_.delta_steps >= 1)
      << "attack search space too small";
  PRC_CHECK(space_.alpha_max > 0.0 && space_.alpha_max <= 1.0)
      << "alpha_max must be in (0, 1], got " << space_.alpha_max;
}

AttackResult AttackSimulator::best_attack(
    const PricingFunction& pricing, const query::AccuracySpec& target) const {
  PRC_TIMED_SPAN("pricing.best_attack");
  target.validate();
  AttackResult result;
  result.honest_price = pricing.price(target);
  result.best_attack_cost = result.honest_price;
  const double target_variance = model_.contract_variance(target);

  // A symmetric attack buys m copies of one weaker lattice cell, and the
  // average meets the target when V_w <= m * V(target).  Every copy count
  // sees the same lattice through a wider variance budget, so lay out the
  // cells any m admits (V_w <= max_copies * V(target); floating-point m * x
  // is monotone in m) and price them once, in lattice order.
  const double widest_budget =
      static_cast<double>(space_.max_copies) * target_variance;
  std::vector<query::AccuracySpec> specs;
  std::vector<double> variances;
  for (std::size_t ai = 1; ai <= space_.alpha_steps; ++ai) {
    const double alpha_w =
        target.alpha + (space_.alpha_max - target.alpha) *
                           static_cast<double>(ai) /
                           static_cast<double>(space_.alpha_steps);
    if (!(alpha_w > target.alpha) || alpha_w > 1.0) continue;
    for (std::size_t di = 1; di <= space_.delta_steps; ++di) {
      const double delta_w = target.delta * static_cast<double>(di) /
                             static_cast<double>(space_.delta_steps + 1);
      if (!(delta_w > 0.0) || !(delta_w < target.delta)) continue;
      const query::AccuracySpec spec{alpha_w, delta_w};
      const double variance = model_.contract_variance(spec);
      if (!(variance <= widest_budget)) continue;  // no m averages it down
      specs.push_back(spec);
      variances.push_back(variance);
    }
  }
  const std::vector<double> prices = pricing.price_all(specs);

  // The cheapest attack with m copies is m * (cheapest price among cells
  // with V_w <= m * V(target)): sort by variance, keep a running minimum of
  // price, and each m is one binary search.  Floating-point m * x is
  // monotone in x, so m * min(p) == min(m * p) exactly.
  std::vector<std::pair<double, double>> cheapest_within(specs.size());
  for (std::size_t k = 0; k < specs.size(); ++k) {
    cheapest_within[k] = {variances[k], prices[k]};
  }
  std::sort(cheapest_within.begin(), cheapest_within.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  double cheapest = std::numeric_limits<double>::infinity();
  for (auto& [variance, price] : cheapest_within) {
    if (price < cheapest) cheapest = price;
    price = cheapest;  // now the cheapest price with V_w <= variance
  }
  // Only a strict improvement replaces the incumbent: ties go to the
  // smallest m.
  std::size_t best_copies = 0;
  for (std::size_t m = 2; m <= space_.max_copies; ++m) {
    const double variance_budget = static_cast<double>(m) * target_variance;
    const auto admitted = std::upper_bound(
        cheapest_within.begin(), cheapest_within.end(), variance_budget,
        [](double budget, const auto& cell) { return budget < cell.first; });
    if (admitted == cheapest_within.begin()) continue;
    const double cost = static_cast<double>(m) * std::prev(admitted)->second;
    if (cost < result.best_attack_cost) {
      result.best_attack_cost = cost;
      best_copies = m;
    }
  }
  if (best_copies != 0) {
    // Ties within the winning m go to the lowest lattice index.  Distinct
    // prices may round to the same m * p, so compare products, not prices.
    const auto m = static_cast<double>(best_copies);
    const double variance_budget = m * target_variance;
    for (std::size_t k = 0; k < specs.size(); ++k) {
      if (variances[k] <= variance_budget &&
          m * prices[k] == result.best_attack_cost) {  // lint:allow float-eq
        result.copies = best_copies;
        result.weaker_spec = specs[k];
        result.combined_variance = variances[k] / m;
        break;
      }
    }
  }
  result.profitable =
      result.best_attack_cost < result.honest_price * (1.0 - 1e-9);
  if (!result.profitable) {
    result.best_attack_cost = result.honest_price;
    result.copies = 0;
    result.combined_variance = target_variance;
  }
  return result;
}

}  // namespace prc::pricing
