// Deliberately broken fixture for `prc_lint --self-test`.
//
// no-telemetry-lookup-under-lock must fire on name-keyed registry lookups
// made while a mutex is held (inside a `_locked` helper, or under a lock
// guard in a block still open), and must stay silent on the clean_*
// functions that resolve the name once through a local static reference.
// NOT compiled.

#include <cstddef>
#include <mutex>

#include "common/telemetry.h"

namespace prc_lint_fixture {

class Ledger {
 public:
  std::size_t record_locked(double epsilon);
  std::size_t clean_record_locked(double epsilon);
  void absorb(double epsilon);
  void clean_absorb(double epsilon);

 private:
  std::mutex mutex_;
  std::size_t count_ = 0;
  double total_ = 0.0;
};

// no-telemetry-lookup-under-lock: the caller holds mutex_, and every sale
// re-hashes both names and takes the registry lock inside the ledger's.
std::size_t Ledger::record_locked(double epsilon) {
  total_ += epsilon;
  prc::telemetry::counter("market.ledger_transactions").increment();
  prc::telemetry::gauge("market.ledger_conservation_discrepancy").set(0.0);
  return ++count_;
}

// no-telemetry-lookup-under-lock: the lookup follows the guard's
// declaration in the same block.
void Ledger::absorb(double epsilon) {
  std::lock_guard<std::mutex> lock(mutex_);
  total_ += epsilon;
  prc::telemetry::gauge("market.ledger_orphaned_epsilon").set(total_);
}

// Clean control: the static references resolve each name once per process.
std::size_t Ledger::clean_record_locked(double epsilon) {
  total_ += epsilon;
  static prc::telemetry::Counter& transactions =
      prc::telemetry::counter("market.ledger_transactions");
  static prc::telemetry::Gauge& discrepancy =
      prc::telemetry::gauge("market.ledger_conservation_discrepancy");
  transactions.increment();
  discrepancy.set(0.0);
  return ++count_;
}

// Clean control: a static lookup under the guard, and a plain lookup after
// the guarded block has closed.
void Ledger::clean_absorb(double epsilon) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    total_ += epsilon;
    static prc::telemetry::Gauge& orphaned =
        prc::telemetry::gauge("market.ledger_orphaned_epsilon");
    orphaned.set(total_);
  }
  prc::telemetry::counter("market.ledger_absorbs").increment();
}

}  // namespace prc_lint_fixture
