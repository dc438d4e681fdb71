#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/telemetry.h"
#include "pricing/arbitrage.h"
#include "pricing/pricing.h"
#include "pricing/variance_model.h"

namespace prc::pricing {
namespace {

constexpr std::size_t kTotal = 17568;
constexpr std::size_t kNodes = 8;
const query::AccuracySpec kReference{0.1, 0.5};

VarianceModel model() { return VarianceModel(kTotal, kNodes); }

TEST(VarianceModelTest, ContractVarianceFormula) {
  const query::AccuracySpec spec{0.1, 0.75};
  const double expected = (0.1 * kTotal) * (0.1 * kTotal) * 0.25;
  EXPECT_NEAR(model().contract_variance(spec), expected, 1e-6);
}

TEST(VarianceModelTest, Monotonicity) {
  const auto m = model();
  // Increasing alpha increases variance (coarser answer).
  EXPECT_LT(m.contract_variance({0.05, 0.5}), m.contract_variance({0.1, 0.5}));
  // Increasing delta decreases variance (more confident answer).
  EXPECT_GT(m.contract_variance({0.1, 0.5}), m.contract_variance({0.1, 0.9}));
}

TEST(VarianceModelTest, AlphaForVarianceInverts) {
  const auto m = model();
  const query::AccuracySpec spec{0.07, 0.65};
  const double v = m.contract_variance(spec);
  EXPECT_NEAR(m.alpha_for_variance(v, spec.delta), spec.alpha, 1e-12);
  EXPECT_THROW(m.alpha_for_variance(-1.0, 0.5), std::invalid_argument);
  EXPECT_THROW(m.alpha_for_variance(1.0, 1.0), std::invalid_argument);
}

TEST(VarianceModelTest, ConstructionValidation) {
  EXPECT_THROW(VarianceModel(0, 5), std::invalid_argument);
  EXPECT_THROW(VarianceModel(100, 0), std::invalid_argument);
}

TEST(InverseVariancePricingTest, AnchoredAtReference) {
  const InverseVariancePricing pricing(model(), kReference, 50.0);
  EXPECT_NEAR(pricing.price(kReference), 50.0, 1e-9);
}

TEST(InverseVariancePricingTest, MonotoneTheRightWay) {
  const InverseVariancePricing pricing(model(), kReference, 50.0);
  // Stricter alpha (lower variance) costs more.
  EXPECT_GT(pricing.price({0.05, 0.5}), pricing.price({0.1, 0.5}));
  // Higher confidence costs more.
  EXPECT_GT(pricing.price({0.1, 0.9}), pricing.price({0.1, 0.5}));
}

TEST(InverseVariancePricingTest, RejectsNonPositiveParameters) {
  EXPECT_THROW(InverseVariancePricing(model(), kReference, 50.0, 0.0),
               std::invalid_argument);
  EXPECT_THROW(InverseVariancePricing(model(), kReference, 50.0, -1.0),
               std::invalid_argument);
  EXPECT_THROW(InverseVariancePricing(model(), kReference, 0.0),
               std::invalid_argument);
}

TEST(LinearDiscountPricingTest, BasicShape) {
  const LinearDiscountPricing pricing(1.0, 10.0, 5.0);
  EXPECT_NEAR(pricing.price({0.5, 0.5}), 1.0 + 10.0 * 0.5 + 5.0 * 0.5, 1e-12);
  EXPECT_GT(pricing.price({0.1, 0.5}), pricing.price({0.5, 0.5}));
  EXPECT_THROW(LinearDiscountPricing(0.0, 1.0, 1.0), std::invalid_argument);
}

// --- Theorem 4.2 checker ---------------------------------------------------

TEST(ArbitrageCheckerTest, UnitExponentPasses) {
  const ArbitrageChecker checker(model());
  const InverseVariancePricing pricing(model(), kReference, 50.0, 1.0);
  const auto report = checker.check(pricing);
  EXPECT_TRUE(report.arbitrage_avoiding);
  EXPECT_GT(report.checks_performed, 1000u);
  EXPECT_TRUE(report.violations.empty());
}

TEST(ArbitrageCheckerTest, SteepExponentFailsProperty3) {
  // q > 1: price decays faster than 1/V — the relative price drop along the
  // alpha axis exceeds the relative variance increase.
  const ArbitrageChecker checker(model());
  const InverseVariancePricing pricing(model(), kReference, 50.0, 2.0);
  const auto report = checker.check(pricing);
  EXPECT_FALSE(report.arbitrage_avoiding);
  bool property3 = false;
  for (const auto& v : report.violations) {
    if (v.property == 3) property3 = true;
  }
  EXPECT_TRUE(property3);
}

TEST(ArbitrageCheckerTest, ShallowExponentFailsProperty2) {
  // q < 1: price rises too little when the customer pays for confidence —
  // the relative price increase along the delta axis undershoots the
  // relative variance decrease.
  const ArbitrageChecker checker(model());
  const InverseVariancePricing pricing(model(), kReference, 50.0, 0.5);
  const auto report = checker.check(pricing);
  EXPECT_FALSE(report.arbitrage_avoiding);
  bool property2 = false;
  for (const auto& v : report.violations) {
    if (v.property == 2) property2 = true;
  }
  EXPECT_TRUE(property2);
}

TEST(ArbitrageCheckerTest, LinearPricingFailsProperty1) {
  const ArbitrageChecker checker(model());
  const LinearDiscountPricing pricing(1.0, 10.0, 5.0);
  const auto report = checker.check(pricing);
  EXPECT_FALSE(report.arbitrage_avoiding);
  ASSERT_FALSE(report.violations.empty());
  bool property1_violated = false;
  for (const auto& v : report.violations) {
    if (v.property == 1) property1_violated = true;
    EXPECT_FALSE(v.to_string().empty());
  }
  EXPECT_TRUE(property1_violated);
}

struct ExponentVerdict {
  double exponent;
  bool avoiding;            // checker verdict
  bool averaging_attackable;  // attack-simulator verdict
};

class ExponentSweep : public ::testing::TestWithParam<ExponentVerdict> {};

TEST_P(ExponentSweep, CheckerAndSimulatorAgreeWithTheory) {
  const auto [exponent, avoiding, attackable] = GetParam();
  const InverseVariancePricing pricing(model(), kReference, 50.0, exponent);
  const ArbitrageChecker checker(model());
  EXPECT_EQ(checker.check(pricing).arbitrage_avoiding, avoiding)
      << "q=" << exponent;
  const AttackSimulator simulator(model());
  EXPECT_EQ(simulator.best_attack(pricing, {0.05, 0.9}).profitable,
            attackable)
      << "q=" << exponent;
}

INSTANTIATE_TEST_SUITE_P(
    PowerFamily, ExponentSweep,
    ::testing::Values(
        // q < 1: violates Thm 4.2 (property 2) but averaging cannot profit.
        ExponentVerdict{0.5, false, false},
        ExponentVerdict{0.75, false, false},
        // q = 1: the theorem family; break-even against averaging.
        ExponentVerdict{1.0, true, false},
        // q > 1: violates property 3 AND is strictly attackable.
        ExponentVerdict{1.5, false, true},
        ExponentVerdict{2.0, false, true},
        ExponentVerdict{3.0, false, true}),
    [](const ::testing::TestParamInfo<ExponentVerdict>& case_info) {
      // Appends, not `"q" + std::to_string(...)`: GCC 12 at -O3 reports a
      // false -Wrestrict overlap inside operator+(const char*, string&&).
      std::string name = "q";
      name += std::to_string(static_cast<int>(case_info.param.exponent * 100));
      return name;
    });

TEST(ArbitrageCheckerTest, GridValidation) {
  ArbitrageChecker::Grid bad;
  bad.alpha_steps = 1;
  EXPECT_THROW(ArbitrageChecker(model(), bad), std::invalid_argument);
  ArbitrageChecker::Grid inverted;
  inverted.alpha_min = 0.9;
  inverted.alpha_max = 0.1;
  EXPECT_THROW(ArbitrageChecker(model(), inverted), std::invalid_argument);
}

// --- attack simulator ------------------------------------------------------

TEST(AttackSimulatorTest, BeatsSteepDiscountPricing) {
  // q = 2 decays faster than 1/V: m weak queries with V_i ~ m * V cost about
  // pi / m — the textbook Example 4.1 arbitrage.
  const AttackSimulator simulator(model());
  const InverseVariancePricing pricing(model(), kReference, 50.0, 2.0);
  const query::AccuracySpec target{0.05, 0.9};
  const auto result = simulator.best_attack(pricing, target);
  EXPECT_TRUE(result.profitable);
  EXPECT_GE(result.copies, 2u);
  EXPECT_LT(result.best_attack_cost, result.honest_price);
  EXPECT_GT(result.savings(), 0.3);  // q=2 is badly exposed
  // The attack's averaged answer is genuinely as good as the honest one.
  EXPECT_LE(result.combined_variance,
            model().contract_variance(target) * (1.0 + 1e-9));
  // The weaker contract really is weaker.
  EXPECT_GT(result.weaker_spec.alpha, target.alpha);
  EXPECT_LT(result.weaker_spec.delta, target.delta);
}

TEST(AttackSimulatorTest, CannotBeatTheoremFamily) {
  // q <= 1 never loses to the averaging adversary (q < 1 still violates
  // Theorem 4.2 property 2, but that failure is not exploitable by simple
  // averaging — the checker is deliberately stricter than this simulator).
  const AttackSimulator simulator(model());
  for (double q : {1.0, 0.75}) {
    const InverseVariancePricing pricing(model(), kReference, 50.0, q);
    for (const auto& target :
         {query::AccuracySpec{0.05, 0.9}, query::AccuracySpec{0.1, 0.7},
          query::AccuracySpec{0.02, 0.5}}) {
      const auto result = simulator.best_attack(pricing, target);
      EXPECT_FALSE(result.profitable)
          << "q=" << q << " target=" << target.to_string();
      EXPECT_EQ(result.copies, 0u);
      EXPECT_DOUBLE_EQ(result.best_attack_cost, result.honest_price);
      EXPECT_EQ(result.savings(), 0.0);
    }
  }
}

TEST(AttackSimulatorTest, ExactlyUnitExponentIsBreakEven) {
  // With q = 1 the symmetric attack at equal variance budget costs exactly
  // the honest price: m * c * V_ref / (m V) == c * V_ref / V.  Verify no
  // strict profit is reported (boundary of the Thm 4.2 condition).
  const AttackSimulator simulator(model());
  const InverseVariancePricing pricing(model(), kReference, 100.0, 1.0);
  const auto result = simulator.best_attack(pricing, {0.08, 0.8});
  EXPECT_FALSE(result.profitable);
}

TEST(AttackSimulatorTest, AsymmetricAttackSpotCheck) {
  // Hand-built *asymmetric* two-query attack (the simulator only searches
  // symmetric ones): both weak contracts differ, their average meets the
  // target's variance budget, and the bundle is cheaper under q = 2 but not
  // under the Theorem 4.2 family q = 1.
  const auto m = model();
  const query::AccuracySpec target{0.05, 0.9};
  const query::AccuracySpec weak1{0.055, 0.85};
  const query::AccuracySpec weak2{0.057, 0.86};
  const double combined =
      (m.contract_variance(weak1) + m.contract_variance(weak2)) / 4.0;
  ASSERT_LE(combined, m.contract_variance(target));  // attack is valid

  const InverseVariancePricing steep(m, kReference, 50.0, 2.0);
  EXPECT_LT(steep.price(weak1) + steep.price(weak2), steep.price(target));

  const InverseVariancePricing safe(m, kReference, 50.0, 1.0);
  EXPECT_GE(safe.price(weak1) + safe.price(weak2), safe.price(target));
}

// Reference implementation best_attack is held to: the direct m-major
// lattice scan.  For every copy count m it revisits each admissible cell
// (V_w <= m * V(target)), pricing a cell on first touch, and takes an
// incumbent only on a strict improvement.
AttackResult scan_best_attack(const VarianceModel& variance_model,
                              const AttackSimulator::SearchSpace& space,
                              const PricingFunction& pricing,
                              const query::AccuracySpec& target) {
  target.validate();
  AttackResult result;
  result.honest_price = pricing.price(target);
  result.best_attack_cost = result.honest_price;
  const double target_variance = variance_model.contract_variance(target);
  struct Cell {
    bool valid = false;
    query::AccuracySpec spec;
    double variance = 0.0;
    double price = 0.0;
    bool priced = false;
  };
  std::vector<Cell> cells(space.alpha_steps * space.delta_steps);
  for (std::size_t ai = 1; ai <= space.alpha_steps; ++ai) {
    const double alpha_w =
        target.alpha + (space.alpha_max - target.alpha) *
                           static_cast<double>(ai) /
                           static_cast<double>(space.alpha_steps);
    if (!(alpha_w > target.alpha) || alpha_w > 1.0) continue;
    for (std::size_t di = 1; di <= space.delta_steps; ++di) {
      const double delta_w = target.delta * static_cast<double>(di) /
                             static_cast<double>(space.delta_steps + 1);
      if (!(delta_w > 0.0) || !(delta_w < target.delta)) continue;
      Cell& c = cells[(ai - 1) * space.delta_steps + (di - 1)];
      c.valid = true;
      c.spec = query::AccuracySpec{alpha_w, delta_w};
      c.variance = variance_model.contract_variance(c.spec);
    }
  }
  for (std::size_t m = 2; m <= space.max_copies; ++m) {
    const double variance_budget = static_cast<double>(m) * target_variance;
    for (Cell& c : cells) {
      if (!c.valid || c.variance > variance_budget) continue;
      if (!c.priced) {
        c.price = pricing.price(c.spec);
        c.priced = true;
      }
      const double cost = static_cast<double>(m) * c.price;
      if (cost < result.best_attack_cost) {
        result.best_attack_cost = cost;
        result.copies = m;
        result.weaker_spec = c.spec;
        result.combined_variance = c.variance / static_cast<double>(m);
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

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

// Two flat price levels split at delta = 0.5.  Every weak cell of an attack
// lattice then ties at the same m * price, so the winner is decided by the
// tie rule alone; a weak level just under half the strong one gives
// attacks that undercut the honest price by less than the 1e-9 margin.
class StepPricing final : public PricingFunction {
 public:
  StepPricing(double strong_price, double weak_price)
      : strong_price_(strong_price), weak_price_(weak_price) {}
  std::string name() const override { return "step"; }

 private:
  double psi(const query::AccuracySpec& spec) const override {
    return spec.delta >= 0.5 ? strong_price_ : weak_price_;
  }

  double strong_price_;
  double weak_price_;
};

// Prices by variance band around one target: 150 up to its variance,
// `near_price` up to twice it, `far_price` beyond.  With 60 and 40, two
// copies cost 120 and three copies of a cheaper cell cost exactly 120 too,
// a tie across copy counts that the scan settles for the smaller m.
class BandPricing final : public PricingFunction {
 public:
  BandPricing(const VarianceModel& variance_model,
              const query::AccuracySpec& target, double near_price = 60.0,
              double far_price = 40.0)
      : model_(variance_model),
        target_variance_(variance_model.contract_variance(target)),
        near_price_(near_price),
        far_price_(far_price) {}
  std::string name() const override { return "band"; }

 private:
  double psi(const query::AccuracySpec& spec) const override {
    const double v = model_.contract_variance(spec);
    if (v <= target_variance_) return 150.0;
    return v <= 2.0 * target_variance_ ? near_price_ : far_price_;
  }

  VarianceModel model_;
  double target_variance_;
  double near_price_;
  double far_price_;
};

std::uint64_t quotes_so_far() {
  return telemetry::counter("pricing.quotes").value();
}

// Runs the scan and best_attack on one target and expects every field,
// and the number of quotes each made, to agree bit for bit.  Returns the
// scan's result.
AttackResult expect_matches_scan(const VarianceModel& variance_model,
                                 const AttackSimulator::SearchSpace& space,
                                 const PricingFunction& pricing,
                                 const query::AccuracySpec& target) {
  const std::uint64_t before = quotes_so_far();
  const AttackResult expected =
      scan_best_attack(variance_model, space, pricing, target);
  const std::uint64_t scan_quotes = quotes_so_far() - before;
  const AttackResult actual =
      AttackSimulator(variance_model, space).best_attack(pricing, target);
  const std::uint64_t sorted_quotes = quotes_so_far() - before - scan_quotes;
  const std::string where = pricing.name() + " target=" + target.to_string();
  EXPECT_EQ(actual.profitable, expected.profitable) << where;
  EXPECT_EQ(bits(actual.honest_price), bits(expected.honest_price)) << where;
  EXPECT_EQ(bits(actual.best_attack_cost), bits(expected.best_attack_cost))
      << where;
  EXPECT_EQ(actual.copies, expected.copies) << where;
  EXPECT_EQ(bits(actual.weaker_spec.alpha.value()),
            bits(expected.weaker_spec.alpha.value()))
      << where;
  EXPECT_EQ(bits(actual.weaker_spec.delta.value()),
            bits(expected.weaker_spec.delta.value()))
      << where;
  EXPECT_EQ(bits(actual.combined_variance), bits(expected.combined_variance))
      << where;
  EXPECT_EQ(sorted_quotes, scan_quotes) << where;
  return expected;
}

TEST(AttackSimulatorTest, SortedSearchMatchesLatticeScanBitForBit) {
  const auto m = model();
  const InverseVariancePricing shallow(m, kReference, 50.0, 0.5);
  const InverseVariancePricing theorem(m, kReference, 50.0, 1.0);
  const InverseVariancePricing steep(m, kReference, 50.0, 2.0);
  const LinearDiscountPricing linear(5.0, 40.0, 20.0);
  const FittedTheoremPricing fitted(m, 3.0e6);
  const StepPricing tied(100.0, 40.0);
  const StepPricing near_break_even(100.0, 50.0 * (1.0 - 1e-12));
  const std::vector<const PricingFunction*> fixed_pricings = {
      &shallow, &theorem, &steep, &linear, &fitted, &tied, &near_break_even};
  // The default lattice, plus a coarse one whose few cells and copies make
  // boundary budgets and ties more likely.
  AttackSimulator::SearchSpace coarse;
  coarse.max_copies = 5;
  coarse.alpha_steps = 7;
  coarse.delta_steps = 3;
  coarse.alpha_max = 0.6;
  const AttackSimulator::SearchSpace spaces[] = {{}, coarse};

  Rng rng(20190707);
  std::size_t profitable = 0;
  std::size_t near_misses = 0;  // unprofitable but weaker_spec was set
  for (int trial = 0; trial < 1000; ++trial) {
    const query::AccuracySpec target{0.01 + 0.6 * rng.uniform(),
                                     0.05 + 0.94 * rng.uniform()};
    const auto& space = spaces[trial % 2];
    const BandPricing banded(m, target);
    auto pricings = fixed_pricings;
    pricings.push_back(&banded);
    for (const PricingFunction* pricing : pricings) {
      const AttackResult expected =
          expect_matches_scan(m, space, *pricing, target);
      ASSERT_FALSE(HasFailure()) << "trial " << trial;
      if (expected.profitable) ++profitable;
      const bool spec_kept = expected.weaker_spec.to_string() !=
                             query::AccuracySpec{}.to_string();
      if (!expected.profitable && spec_kept) ++near_misses;
    }
  }
  // Both verdicts and the kept weaker_spec of a sub-margin undercut are
  // exercised.
  EXPECT_GT(profitable, 500u);
  EXPECT_LT(profitable, 6000u);
  EXPECT_GT(near_misses, 50u);
}

TEST(AttackSimulatorTest, SortedSearchMatchesScanOnExactBudgetBoundaries) {
  // Dyadic target and lattice, so the arithmetic is exact: the cells at
  // alpha_w = 2 alpha have V_w = 16 (1 - delta_w) V(target), i.e. exactly
  // 13, 10 and 7 times the target variance.  Each sits on the budget of
  // its copy count, where V_w <= m V(target) must admit it.
  const auto m = model();
  const query::AccuracySpec target{0.125, 0.75};
  AttackSimulator::SearchSpace space;
  space.max_copies = 24;
  space.alpha_steps = 4;
  space.delta_steps = 3;
  space.alpha_max = 0.625;
  const double target_variance = m.contract_variance(target);
  for (const auto& [delta_w, copies] :
       {std::pair{0.1875, 13.0}, {0.375, 10.0}, {0.5625, 7.0}}) {
    ASSERT_EQ(bits(m.contract_variance({0.25, delta_w})),
              bits(copies * target_variance));
  }
  const InverseVariancePricing steep(m, kReference, 50.0, 2.0);
  const InverseVariancePricing theorem(m, kReference, 50.0, 1.0);
  const LinearDiscountPricing linear(5.0, 40.0, 20.0);
  const BandPricing banded(m, target);
  // max_copies = 13 also puts a cell on the widest budget, which decides
  // whether the cell is priced at all.
  AttackSimulator::SearchSpace capped = space;
  capped.max_copies = 13;
  for (const auto& lattice : {space, capped}) {
    for (const PricingFunction* pricing :
         {static_cast<const PricingFunction*>(&steep),
          static_cast<const PricingFunction*>(&theorem),
          static_cast<const PricingFunction*>(&linear),
          static_cast<const PricingFunction*>(&banded)}) {
      expect_matches_scan(m, lattice, *pricing, target);
    }
  }
  // A flat weak price makes the fewest copies cheapest: 7 copies of the
  // cell at exactly 7 V(target) cost 140 < 150, and only if the boundary
  // cell is admitted.
  const BandPricing flat(m, target, 20.0, 20.0);
  const AttackResult attack = expect_matches_scan(m, space, flat, target);
  EXPECT_TRUE(attack.profitable);
  EXPECT_EQ(attack.copies, 7u);
  EXPECT_EQ(bits(attack.combined_variance), bits(target_variance));
}

TEST(PricingFunctionTest, PriceAllMatchesPriceAndCountsEveryQuote) {
  const auto m = model();
  const InverseVariancePricing steep(m, kReference, 50.0, 2.0);
  const LinearDiscountPricing linear(5.0, 40.0, 20.0);
  const FittedTheoremPricing fitted(m, 3.0e6);
  std::vector<query::AccuracySpec> specs;
  Rng rng(11);
  for (int i = 0; i < 64; ++i) {
    specs.push_back({0.01 + 0.9 * rng.uniform(), 0.05 + 0.9 * rng.uniform()});
  }
  auto& prices = telemetry::histogram("pricing.price");
  for (const PricingFunction* pricing :
       {static_cast<const PricingFunction*>(&steep),
        static_cast<const PricingFunction*>(&linear),
        static_cast<const PricingFunction*>(&fitted)}) {
    const std::uint64_t quotes_before = quotes_so_far();
    const std::uint64_t recorded_before = prices.snapshot().count;
    const std::vector<double> batch = pricing->price_all(specs);
    EXPECT_EQ(quotes_so_far() - quotes_before, specs.size());
    EXPECT_EQ(prices.snapshot().count - recorded_before, specs.size());
    ASSERT_EQ(batch.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      EXPECT_EQ(bits(batch[i]), bits(pricing->price(specs[i])))
          << pricing->name() << " " << specs[i].to_string();
    }
  }
  const std::uint64_t quotes_before = quotes_so_far();
  EXPECT_TRUE(steep.price_all({}).empty());
  EXPECT_EQ(quotes_so_far(), quotes_before);
}

TEST(AttackSimulatorTest, SearchSpaceValidation) {
  AttackSimulator::SearchSpace bad;
  bad.max_copies = 1;
  EXPECT_THROW(AttackSimulator(model(), bad), std::invalid_argument);
}

}  // namespace
}  // namespace prc::pricing
