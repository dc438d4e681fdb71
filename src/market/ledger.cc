#include "market/ledger.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "common/check.h"
#include "common/telemetry.h"

namespace prc::market {

void Ledger::Reservation::release() noexcept {
  if (ledger_ == nullptr) return;
  Ledger* ledger = ledger_;
  ledger_ = nullptr;
  std::lock_guard<std::mutex> lock(ledger->mutex_);
  auto it = ledger->reserved_by_consumer_.find(consumer_id_);
  if (it != ledger->reserved_by_consumer_.end()) {
    it->second -= epsilon_;
    if (it->second <= 0.0) ledger->reserved_by_consumer_.erase(it);
  }
}

std::size_t Ledger::record(Transaction transaction) {
  std::lock_guard<std::mutex> lock(mutex_);
  return record_locked(std::move(transaction));
}

std::size_t Ledger::record_locked(Transaction transaction) {
  PRC_CHECK(std::isfinite(transaction.price) && transaction.price >= 0.0)
      << "ledger: price must be >= 0, got " << transaction.price;
  PRC_CHECK(std::isfinite(transaction.epsilon_amplified) &&
            transaction.epsilon_amplified >= 0.0)
      << "ledger: released budget must be >= 0, got "
      << transaction.epsilon_amplified;
  PRC_CHECK(transaction.coverage >= 0.0 && transaction.coverage <= 1.0)
      << "ledger: coverage must be in [0, 1], got " << transaction.coverage;
  transaction.sequence = next_sequence_++;
  if (transaction.degraded) ++degraded_sales_;
  total_revenue_ += transaction.price;
  total_epsilon_ += transaction.epsilon_amplified;
  spend_by_consumer_[transaction.consumer_id] += transaction.price;
  epsilon_by_consumer_[transaction.consumer_id] +=
      transaction.epsilon_amplified;
  transactions_.push_back(std::move(transaction));
  // Budget conservation (sequential composition audit): every epsilon'
  // released globally must be attributed to exactly one consumer.  The
  // tolerance scales with the running total because both sides accumulate
  // independent fp rounding.
  PRC_DCHECK(conservation_discrepancy_locked() <=
             1e-9 * (1.0 + total_epsilon_ + total_revenue_))
      << "ledger lost track of released budget: discrepancy "
      << conservation_discrepancy_locked();
  static telemetry::Counter& ledger_transactions =
      telemetry::counter("market.ledger_transactions");
  static telemetry::Gauge& conservation_discrepancy =
      telemetry::gauge("market.ledger_conservation_discrepancy");
  ledger_transactions.increment();
  conservation_discrepancy.set(conservation_discrepancy_locked());
  return transactions_.back().sequence;
}

std::optional<Ledger::Reservation> Ledger::try_reserve(
    const std::string& consumer_id, units::EffectiveEpsilon epsilon,
    units::EffectiveEpsilon cap) {
  PRC_CHECK(std::isfinite(epsilon.value()) && epsilon.value() >= 0.0)
      << "ledger: reserved budget must be >= 0, got " << epsilon.value();
  std::lock_guard<std::mutex> lock(mutex_);
  const auto spent_it = epsilon_by_consumer_.find(consumer_id);
  const double spent =
      spent_it == epsilon_by_consumer_.end() ? 0.0 : spent_it->second;
  const auto held_it = reserved_by_consumer_.find(consumer_id);
  const double held =
      held_it == reserved_by_consumer_.end() ? 0.0 : held_it->second;
  if (spent + held + epsilon.value() > cap.value()) return std::nullopt;
  reserved_by_consumer_[consumer_id] = held + epsilon.value();
  return Reservation(this, consumer_id, epsilon.value());
}

bool Ledger::try_extend(Reservation& reservation,
                        units::EffectiveEpsilon delta,
                        units::EffectiveEpsilon cap) {
  PRC_CHECK(reservation.active())
      << "ledger: extending a released reservation";
  PRC_CHECK(reservation.ledger_ == this)
      << "ledger: reservation belongs to another ledger";
  PRC_CHECK(std::isfinite(delta.value()) && delta.value() >= 0.0)
      << "ledger: reservation extension must be >= 0, got " << delta.value();
  std::lock_guard<std::mutex> lock(mutex_);
  const auto spent_it = epsilon_by_consumer_.find(reservation.consumer_id_);
  const double spent =
      spent_it == epsilon_by_consumer_.end() ? 0.0 : spent_it->second;
  const auto held_it = reserved_by_consumer_.find(reservation.consumer_id_);
  const double held =
      held_it == reserved_by_consumer_.end() ? 0.0 : held_it->second;
  if (spent + held + delta.value() > cap.value()) return false;
  reserved_by_consumer_[reservation.consumer_id_] = held + delta.value();
  reservation.epsilon_ += delta.value();
  return true;
}

std::size_t Ledger::commit(Reservation reservation, Transaction transaction) {
  PRC_CHECK(reservation.active())
      << "ledger: committing a released reservation";
  PRC_CHECK(reservation.ledger_ == this)
      << "ledger: reservation belongs to another ledger";
  PRC_CHECK(reservation.consumer_id_ == transaction.consumer_id)
      << "ledger: reservation for '" << reservation.consumer_id_
      << "' cannot commit a sale to '" << transaction.consumer_id << "'";
  // The reservation was the admission check and the mint barrier extended
  // it to the final plan; anything past fp rounding here is a release the
  // cap never admitted.
  const double reserved = reservation.epsilon_;
  const bool overrun = transaction.epsilon_amplified.value() >
                       reserved + 1e-9 * (1.0 + reserved);
  if (overrun) {
    telemetry::counter("market.ledger_reservation_overruns").increment();
  }
  PRC_DCHECK(!overrun) << "ledger: committing epsilon' "
                       << transaction.epsilon_amplified.value()
                       << " above the reserved " << reserved << " for '"
                       << transaction.consumer_id << "'";
  reservation.ledger_ = nullptr;  // consumed; no destructor-time release
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = reserved_by_consumer_.find(reservation.consumer_id_);
  if (it != reserved_by_consumer_.end()) {
    it->second -= reservation.epsilon_;
    if (it->second <= 0.0) reserved_by_consumer_.erase(it);
  }
  return record_locked(std::move(transaction));
}

std::size_t Ledger::replay(Transaction transaction) {
  std::lock_guard<std::mutex> lock(mutex_);
  PRC_CHECK(transaction.sequence >= next_sequence_)
      << "ledger replay would reuse sequence " << transaction.sequence
      << " (next is " << next_sequence_ << ")";
  next_sequence_ = transaction.sequence;
  return record_locked(std::move(transaction));
}

double Ledger::conservation_discrepancy() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return conservation_discrepancy_locked();
}

double Ledger::conservation_discrepancy_locked() const {
  double epsilon_sum = 0.0;
  for (const auto& [consumer, epsilon] : epsilon_by_consumer_) {
    epsilon_sum += epsilon;
  }
  double spend_sum = 0.0;
  for (const auto& [consumer, spend] : spend_by_consumer_) {
    spend_sum += spend;
  }
  return std::abs(epsilon_sum - total_epsilon_) +
         std::abs(spend_sum - total_revenue_);
}

double Ledger::consumer_spend(const std::string& consumer_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = spend_by_consumer_.find(consumer_id);
  return it == spend_by_consumer_.end() ? 0.0 : it->second;
}

units::EffectiveEpsilon Ledger::consumer_epsilon(
    const std::string& consumer_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = epsilon_by_consumer_.find(consumer_id);
  return it == epsilon_by_consumer_.end() ? 0.0 : it->second;
}

LedgerSnapshot Ledger::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  LedgerSnapshot snap;
  snap.next_sequence = next_sequence_;
  snap.total_revenue = total_revenue_;
  snap.total_epsilon = total_epsilon_;
  snap.orphaned_epsilon = orphaned_epsilon_;
  snap.degraded_sales = degraded_sales_;
  snap.consumers.reserve(
      std::max(spend_by_consumer_.size(), epsilon_by_consumer_.size()));
  for (const auto& [consumer, spend] : spend_by_consumer_) {
    LedgerConsumerTotals totals;
    totals.consumer_id = consumer;
    totals.spend = spend;
    const auto it = epsilon_by_consumer_.find(consumer);
    totals.epsilon = it == epsilon_by_consumer_.end() ? 0.0 : it->second;
    snap.consumers.push_back(std::move(totals));
  }
  // Consumers charged budget but never money (orphan-only) appear in the
  // epsilon map alone.
  for (const auto& [consumer, epsilon] : epsilon_by_consumer_) {
    if (spend_by_consumer_.contains(consumer)) continue;
    LedgerConsumerTotals totals;
    totals.consumer_id = consumer;
    totals.epsilon = epsilon;
    snap.consumers.push_back(std::move(totals));
  }
  std::sort(snap.consumers.begin(), snap.consumers.end(),
            [](const LedgerConsumerTotals& a, const LedgerConsumerTotals& b) {
              return a.consumer_id < b.consumer_id;
            });
  return snap;
}

void Ledger::restore(const LedgerSnapshot& snapshot) {
  std::lock_guard<std::mutex> lock(mutex_);
  PRC_CHECK(next_sequence_ == 0 && transactions_.empty() &&
            spend_by_consumer_.empty() && epsilon_by_consumer_.empty() &&
            degraded_sales_ == 0)
      << "ledger restore requires an empty ledger (recovery is a birth, "
         "not a merge)";
  next_sequence_ = snapshot.next_sequence;
  total_revenue_ = snapshot.total_revenue;
  total_epsilon_ = snapshot.total_epsilon.value();
  orphaned_epsilon_ = snapshot.orphaned_epsilon.value();
  degraded_sales_ = snapshot.degraded_sales;
  for (const auto& totals : snapshot.consumers) {
    spend_by_consumer_[totals.consumer_id] = totals.spend;
    epsilon_by_consumer_[totals.consumer_id] = totals.epsilon.value();
  }
  PRC_CHECK(conservation_discrepancy_locked() <=
            1e-9 * (1.0 + total_epsilon_ + total_revenue_))
      << "restored checkpoint violates budget conservation: discrepancy "
      << conservation_discrepancy_locked();
}

void Ledger::adopt(Ledger& other) {
  // One deadlock-free atomic acquisition: two sequential lock_guards
  // would self-deadlock on `ledger.adopt(ledger)` and invert order
  // against a concurrent `other.adopt(*this)`.
  std::scoped_lock lock(mutex_, other.mutex_);
  PRC_CHECK(next_sequence_ == 0 && transactions_.empty() &&
            spend_by_consumer_.empty() && epsilon_by_consumer_.empty() &&
            reserved_by_consumer_.empty() && degraded_sales_ == 0)
      << "ledger adopt requires an empty ledger (recovery is a birth, "
         "not a merge)";
  PRC_CHECK(other.reserved_by_consumer_.empty())
      << "ledger adopt source still holds live reservations";
  transactions_ = std::move(other.transactions_);
  next_sequence_ = other.next_sequence_;
  degraded_sales_ = other.degraded_sales_;
  total_revenue_ = other.total_revenue_;
  total_epsilon_ = other.total_epsilon_;
  orphaned_epsilon_ = other.orphaned_epsilon_;
  spend_by_consumer_ = std::move(other.spend_by_consumer_);
  epsilon_by_consumer_ = std::move(other.epsilon_by_consumer_);
}

void Ledger::absorb_orphaned(const std::string& consumer_id,
                             units::EffectiveEpsilon epsilon) {
  PRC_CHECK(std::isfinite(epsilon.value()) && epsilon.value() >= 0.0)
      << "ledger: orphaned budget must be >= 0, got " << epsilon.value();
  std::lock_guard<std::mutex> lock(mutex_);
  total_epsilon_ += epsilon.value();
  orphaned_epsilon_ += epsilon.value();
  epsilon_by_consumer_[consumer_id] += epsilon.value();
  static telemetry::Gauge& orphaned_gauge =
      telemetry::gauge("market.ledger_orphaned_epsilon");
  orphaned_gauge.set(orphaned_epsilon_);
}

}  // namespace prc::market
