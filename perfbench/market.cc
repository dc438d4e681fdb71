// market_warm and market_durable: one client buying from a DataBroker over
// a 64-node fleet at paper scale (17,568 records), priced by the q = 1
// Theorem 4.2 family.
//
// market_warm: no cap, no WAL.  The warm-up sells every contract of a
// fixed 4 alpha x 4 delta menu once (filling the plan and quote caches and
// finishing the top-ups) and makes one purchase for each of 2 x 10^3
// consumers, so the ledger holds the whole population before timing.  The
// timed loop quotes and sells uniformly random (consumer, menu contract,
// suite range) triples: the market's per-sale path and dp.answer's
// estimate path do the work.  (At 10^4 consumers the per-sale walk over
// the ledger's consumer maps falls out of cache and its cost varies 2x
// between identical runs on a shared machine.)
//
// market_durable: a process-durable WAL in a scratch directory, default
// checkpoint interval.  Contracts are drawn continuously from the
// simulation's default box, so nearly every one misses the plan and quote
// caches.  10^3 consumers, 2 in 7 of them ArbitrageAttackers that search
// for an attack before buying; every buyer quotes first.  A per-consumer
// epsilon' cap refuses a minority of sales.
//
// Both run in passes of kVisitsPerPass visits, each on a freshly built
// fleet and broker, and a run starts a new pass only while one fits in the
// time left.  The population and its spend are then the same in every
// pass, so the per-sale work and the refused share do not depend on how
// many sales a run completes, and each pass samples a fresh memory layout.
#include <stdlib.h>

#include <cmath>
#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/trace.h"
#include "data/dataset.h"
#include "data/partition.h"
#include "dp/private_counting.h"
#include "harness.h"
#include "iot/network.h"
#include "market/broker.h"
#include "market/consumer.h"
#include "pricing/arbitrage.h"
#include "pricing/pricing.h"
#include "pricing/variance_model.h"
#include "query/workload.h"
#include "stats.h"

namespace perfbench {
namespace {

constexpr double kInitialProbability = 0.0173;
constexpr double kBasePrice = 100.0;
const prc::query::AccuracySpec kReference{0.1, 0.5};
// The tail percentile reported as op_tail_us, over every sale of a run.
constexpr double kTailPercentile = 99.0;
const std::size_t kMinSales = samples_for_percentile(kTailPercentile);

constexpr std::size_t kVisitsPerPass = 10000;

// market_warm
constexpr std::size_t kWarmConsumers = 2000;
constexpr double kMenuAlphas[] = {0.05, 0.1, 0.15, 0.2};
constexpr double kMenuDeltas[] = {0.5, 0.6, 0.7, 0.8};

// market_durable: SimulationConfig's default contract box and consumer mix.
// The cap refuses about 8% of a pass's visits (ten per consumer).
constexpr std::size_t kDurableConsumers = 1000;
constexpr double kAlphaMin = 0.03, kAlphaMax = 0.25;
constexpr double kDeltaMin = 0.4, kDeltaMax = 0.9;
constexpr double kEpsilonCap = 0.012;

bool is_attacker(std::size_t consumer) { return consumer % 7 < 2; }

// A scratch directory removed with everything in it when the owner dies.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& parent) {
    std::filesystem::create_directories(parent);
    std::string pattern = parent + "/durable.XXXXXX";
    if (mkdtemp(pattern.data()) == nullptr) {
      throw std::runtime_error("cannot create a directory under " + parent);
    }
    path_ = pattern;
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

class Market final : public Workload {
 public:
  Market(const Options& options, bool durable)
      : options_(options), durable_(durable) {
    if (durable_) scratch_ = std::make_unique<ScratchDir>(options_.scratch_dir);
    const std::size_t consumers = durable_ ? kDurableConsumers : kWarmConsumers;
    for (std::size_t c = 0; c < consumers; ++c) {
      ids_.push_back(std::to_string(c));
    }
    for (const double a : kMenuAlphas) {
      for (const double d : kMenuDeltas) menu_.push_back({a, d});
    }
  }

  void setup() override {
    const auto g0 = now_ns();
    const auto values = generate_ozone(kPaperRecords, options_.seed);
    generate_ms_.push_back(ms_since(g0));
    {
      PRC_TRACE_SPAN("bench.setup.partition");
      const auto t0 = now_ns();
      prc::Rng rng(options_.seed + 1);
      node_data_ = prc::data::partition_values(
          values, kNodes, prc::data::PartitionStrategy::kRoundRobin, rng);
      partition_ms_.push_back(ms_since(t0));
    }
    suite_ = prc::query::default_evaluation_suite(
        prc::data::Column("ozone", values));
    model_.emplace(values.size(), kNodes);
    attack_search_.emplace(*model_);
    build_ms_.push_back(open_market());
    rng_ = prc::Rng(options_.seed + 4);
  }

  PhaseResult run(std::int64_t deadline_ns, std::size_t max_ops) override {
    sales_ = PhaseSamples();
    passes_ = 1;
    phase_completed_ = 0;
    refused_ = 0;
    attacks_ = 0;
    attack_quotes_ = 0;
    PhaseResult result;
    PassClock clock(deadline_ns);
    while (result.ops < max_ops) {
      // A run ends only where a pass ends.
      if (pass_visits_ == kVisitsPerPass) {
        if (!clock.next_pass_fits()) break;
        Exclusions::Scope rebuild(result.excluded);
        check_books(pass_checks_);
        open_market();
        ++passes_;
      }
      const auto v0 = now_ns();
      const std::size_t completed_before = phase_completed_;
      const bool ok = visit();
      sales_.add_work(static_cast<double>(phase_completed_ - completed_before),
                      static_cast<double>(now_ns() - v0) / 1e9);
      ++pass_visits_;
      ++result.ops;
      ++result.attempted;
      if (!ok) ++result.failed;
    }
    ledger_transactions_ = broker_->ledger().transaction_count();
    audit_events_ = broker_->audit_log().size();
    return result;
  }

  void verify(Checks& checks) override {
    checks.expect(sales_.count() >= kMinSales,
                  "too few sales for the reported tail");
    if (durable_) {
      checks.expect(refused_ > 0, "the epsilon cap refused no sale");
    }
    checks.merge(pass_checks_);
    pass_checks_ = Checks();
    check_books(checks);
  }

  void end_to_end(Metrics& m) const override {
    m.set("op_p50_us", sales_.quantile(0.5));
    m.set("op_tail_us", sales_.quantile(kTailPercentile / 100));
    m.set("throughput_per_s", sales_.rate());
  }

  void per_layer(Metrics& m, const TraceView& trace) const override {
    m.set("data.generate_ms", median_ms(generate_ms_));
    m.set("data.partition_ms", median_ms(partition_ms_));
    m.set("iot.build_ms", median_ms(build_ms_));
    const auto quotes = trace.durations_us("bench.market.quote");
    if (!quotes.empty()) {
      m.set("pricing.quote_us_p50", quantile(quotes, 0.5));
      m.set("pricing.quote_us_p99", quantile(quotes, 0.99));
    }
    const auto attacks = trace.durations_us("bench.market.best_attack");
    if (!attacks.empty()) m.set("pricing.best_attack_us", median(attacks));
    m.set("pricing.attacks", static_cast<double>(attacks_));
    m.set("pricing.attack_quotes", static_cast<double>(attack_quotes_));
    m.set("pricing.quotes_per_attack",
          attacks_ == 0 ? 0.0
                        : static_cast<double>(attack_quotes_) /
                              static_cast<double>(attacks_));
    m.set("market.sell_drift", drift());
    m.set("market.refused", static_cast<double>(refused_));
    m.set("market.refused_ratio", refused_ratio());
    m.set("market.ledger_transactions",
          static_cast<double>(ledger_transactions_));
    m.set("market.audit_events", static_cast<double>(audit_events_));
  }

  std::string summary() const override {
    std::ostringstream out;
    out << "# sale_p50_us " << sales_.quantile(0.5) << " us\n"
        << "# sale_p99_us " << sales_.quantile(kTailPercentile / 100)
        << " us (over " << sales_.count() << " sales in " << passes_
        << " passes)\n"
        << "# sales_per_s " << sales_.rate() << " sales/s\n"
        << "# sale_refused_ratio " << refused_ratio() << " (" << refused_
        << " refused of " << phase_completed_ + refused_ << " attempted)\n";
    return out.str();
  }

 private:
  // Builds the fleet, collects it, and opens a broker over it (with its
  // WAL and warm-up); returns the FlatNetwork constructor's time (ms).
  double open_market() {
    broker_.reset();
    counter_.reset();
    network_.reset();
    double build_ms = 0.0;
    {
      PRC_TRACE_SPAN("bench.setup.build");
      const auto t0 = now_ns();
      prc::iot::NetworkConfig config;
      config.seed = options_.seed + 2;
      network_ = std::make_unique<prc::iot::FlatNetwork>(node_data_, config);
      build_ms = ms_since(t0);
    }
    {
      PRC_TRACE_SPAN("bench.setup.collect");
      network_->ensure_sampling_probability(kInitialProbability);
    }
    {
      PRC_TRACE_SPAN("bench.setup.broker");
      counter_ = std::make_unique<prc::dp::PrivateRangeCounter>(
          *network_, prc::dp::PrivateCounterConfig{}, options_.seed + 3);
      if (durable_) {
        // An uncapped opening sale of the box's strictest corner raises
        // the fleet to the highest p any contract needs, so the timed
        // phase runs no collection rounds.
        const prc::query::AccuracySpec corner{kAlphaMin, kDeltaMax};
        make_broker(false)->sell("opening", suite_.front(), corner);
      }
      broker_ = make_broker(durable_);
      if (durable_) {
        wal_path_ = scratch_->path() + "/broker.wal";
        std::filesystem::remove(wal_path_);
        broker_->attach_wal(wal_path_);
      }
    }
    completed_ = 0;
    revenue_ = 0.0;
    pass_visits_ = 0;
    {
      PRC_TRACE_SPAN("bench.setup.warmup");
      warm_up();
    }
    return build_ms;
  }

  // The books of the open market: audit, revenue and transaction count;
  // for market_durable also the cap and recovery from the WAL.
  void check_books(Checks& checks) {
    const auto& ledger = broker_->ledger();
    checks.expect(broker_->audit_log().reconcile(ledger).consistent,
                  "audit log does not reconcile with the ledger");
    checks.expect(std::abs(ledger.total_revenue() - revenue_) <=
                      1e-9 * std::max(1.0, revenue_),
                  "ledger revenue differs from the sum of receipt prices");
    checks.expect(ledger.transaction_count() == completed_,
                  "ledger transaction count differs from completed sales");
    if (!durable_) return;
    bool within_cap = true;
    for (const auto& c : ledger.snapshot().consumers) {
      within_cap = within_cap && c.epsilon.value() <= kEpsilonCap * (1 + 1e-9);
    }
    checks.expect(within_cap, "a consumer was sold more than the cap");

    // Recovery into a fresh broker: never under-counts the released
    // budget and restores every committed transaction.
    const double released = ledger.total_epsilon().value();
    const std::size_t committed = ledger.transaction_count();
    broker_.reset();  // closes the log
    auto fresh = make_broker(true);
    try {
      const auto stats = fresh->recover_and_attach_wal(wal_path_, *model_);
      checks.expect(fresh->ledger().total_epsilon().value() >=
                        released * (1 - 1e-12),
                    "recovery under-counts the released epsilon'");
      checks.expect(fresh->ledger().snapshot().next_sequence == committed,
                    "recovery lost committed transactions");
      checks.expect(stats.orphaned_intents == 0,
                    "a clean shutdown left orphaned intents");
    } catch (const std::exception& e) {
      checks.expect(false, std::string("recovery failed: ") + e.what());
    }
    broker_ = std::move(fresh);
  }

  std::unique_ptr<prc::market::DataBroker> make_broker(bool capped) {
    prc::market::BrokerConfig config;
    if (capped) config.per_consumer_epsilon_cap = kEpsilonCap;
    return std::make_unique<prc::market::DataBroker>(
        *counter_,
        std::make_unique<prc::pricing::InverseVariancePricing>(
            *model_, kReference, kBasePrice, 1.0),
        config);
  }

  void warm_up() {
    if (durable_) return;
    for (const auto& spec : menu_) {
      broker_->quote(spec);
      record_sale(broker_->sell("warmup", suite_.front(), spec).price);
    }
    prc::Rng rng(options_.seed + 5);
    for (const auto& id : ids_) {
      record_sale(broker_->sell(id, pick(suite_, rng), pick(menu_, rng)).price);
    }
  }

  template <typename T>
  static const T& pick(const std::vector<T>& items, prc::Rng& rng) {
    return items[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(items.size()) - 1))];
  }

  void record_sale(double price) {
    ++completed_;
    revenue_ += price;
  }

  // One buyer visit: a random consumer quotes a contract (from the menu on
  // market_warm, from the box on market_durable) and buys it; a
  // market_durable attacker first searches for an averaging attack.
  bool visit() {
    const auto consumer = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(ids_.size()) - 1));
    const prc::query::AccuracySpec spec =
        durable_ ? prc::query::AccuracySpec{rng_.uniform(kAlphaMin, kAlphaMax),
                                            rng_.uniform(kDeltaMin, kDeltaMax)}
                 : pick(menu_, rng_);
    const auto& range = pick(suite_, rng_);
    const std::string& id = ids_[consumer];
    try {
      const double price = timed_quote(spec);
      if (durable_ && is_attacker(consumer)) {
        return attack(id, range, spec, price);
      }
      const auto t0 = now_ns();
      prc::market::PurchaseReceipt receipt;
      {
        PRC_TRACE_SPAN("bench.market.sell");
        receipt = broker_->sell(id, range, spec);
      }
      completed_sale(t0, receipt.price);
      return receipt.price == price && !receipt.degraded;
    } catch (const prc::market::BudgetExceededError& refusal) {
      // A refusal is a correct outcome when the cap really is exhausted
      // and nothing was recorded.
      ++refused_;
      return durable_ && refusal.cap().value() == kEpsilonCap &&
             refusal.spent().value() >= kEpsilonCap &&
             broker_->ledger().transaction_count() == completed_;
    } catch (const std::exception&) {
      return false;
    }
  }

  bool attack(const std::string& id, const prc::query::RangeQuery& range,
              const prc::query::AccuracySpec& spec, double price) {
    prc::pricing::AttackResult plan;
    {
      PRC_TRACE_SPAN("bench.market.best_attack");
      const auto before = counter_value("pricing.quotes");
      plan = attack_search_->best_attack(broker_->pricing(), spec);
      attack_quotes_ += counter_value("pricing.quotes") - before;
      ++attacks_;
    }
    // Theorem 4.2: under q = 1 no averaging attack is profitable, so the
    // attacker buys exactly the contract it wants, in one sale.
    if (plan.profitable) return false;
    prc::market::ArbitrageAttacker attacker(id, *broker_, *attack_search_);
    const auto t0 = now_ns();
    prc::market::StrategyOutcome outcome;
    {
      PRC_TRACE_SPAN("bench.market.acquire");
      outcome = attacker.acquire(range, spec, plan);
    }
    completed_sale(t0, outcome.total_cost);
    return outcome.queries_issued == 1 && outcome.total_cost == price;
  }

  // Records a sale that started at t0 and has just completed.
  void completed_sale(std::int64_t t0, double price) {
    sales_.add(static_cast<double>(now_ns() - t0) / 1e3);
    ++phase_completed_;
    record_sale(price);
  }

  double timed_quote(const prc::query::AccuracySpec& spec) {
    PRC_TRACE_SPAN("bench.market.quote");
    return broker_->quote(spec);
  }

  double refused_ratio() const {
    const auto attempted = phase_completed_ + refused_;
    return attempted == 0 ? 0.0
                          : static_cast<double>(refused_) /
                                static_cast<double>(attempted);
  }

  // Sale p50 of the last tenth of the phase's sales over that of the first
  // tenth: above 1 when per-sale cost grows with the books.
  double drift() const {
    const auto& sales = sales_.all();
    const std::size_t tenth = sales.size() / 10;
    if (tenth == 0) return 0.0;
    const std::vector<double> first(sales.begin(),
                                    sales.begin() + static_cast<long>(tenth));
    const std::vector<double> last(sales.end() - static_cast<long>(tenth),
                                   sales.end());
    return median(last) / median(first);
  }

  Options options_;
  bool durable_;
  std::unique_ptr<ScratchDir> scratch_;
  std::vector<std::string> ids_;
  std::vector<prc::query::AccuracySpec> menu_;
  // Inputs, rebuilt by every setup.
  std::vector<std::vector<double>> node_data_;
  std::vector<prc::query::RangeQuery> suite_;
  std::optional<prc::pricing::VarianceModel> model_;
  std::optional<prc::pricing::AttackSimulator> attack_search_;
  // The open market, rebuilt by every pass.  The broker and counter hold
  // references into the network, so they are declared after it.
  std::unique_ptr<prc::iot::FlatNetwork> network_;
  std::unique_ptr<prc::dp::PrivateRangeCounter> counter_;
  std::unique_ptr<prc::market::DataBroker> broker_;
  std::string wal_path_;
  std::size_t pass_visits_ = 0;
  Checks pass_checks_;
  prc::Rng rng_;
  // Whole-market tallies (warm-up included) for the book checks.
  std::size_t completed_ = 0;
  double revenue_ = 0.0;
  // Timed-phase measurements.
  PhaseSamples sales_;
  std::size_t passes_ = 0;
  std::size_t phase_completed_ = 0;
  std::size_t refused_ = 0;
  std::size_t attacks_ = 0;
  std::uint64_t attack_quotes_ = 0;
  std::size_t ledger_transactions_ = 0;
  std::size_t audit_events_ = 0;
  std::vector<double> generate_ms_;
  std::vector<double> partition_ms_;
  std::vector<double> build_ms_;
};

}  // namespace

std::unique_ptr<Workload> make_market_warm(const Options& options) {
  return std::make_unique<Market>(options, false);
}

std::unique_ptr<Workload> make_market_durable(const Options& options) {
  return std::make_unique<Market>(options, true);
}

}  // namespace perfbench
