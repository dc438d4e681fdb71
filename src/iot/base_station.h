// The base station: caches node samples and answers estimates from them.
//
// Holds, per node, the accumulated rank-annotated sample, the reported
// local cardinality, and the *effective inclusion probability* p_i the
// cached sample is valid for.  The "one sample, multiple queries" property
// of the paper falls out of this cache: queries are answered from it without
// touching the network, and only a request for a higher sampling
// probability triggers a top-up round.
//
// Per-node probabilities matter under degraded collection: a node that was
// offline (or whose frames were dropped) across a top-up round keeps a
// perfectly valid Bernoulli(p_old) sample while the rest of the fleet moved
// to p_new.  Estimating with one global p would bias that node's
// contribution; the station therefore records p_i per node and the
// RankCounting path applies the per-node Horvitz–Thompson correction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/thread_annotations.h"
#include "estimator/rank_counting.h"
#include "iot/messages.h"
#include "query/range_query.h"
#include "sampling/rank_sample.h"

namespace prc::iot {

/// Aggregate view of how well the cache covers the fleet; what the DP
/// session and the broker consult before asserting an accuracy contract.
struct CoverageSummary {
  /// The last committed round target.
  double target_p = 0.0;
  /// Smallest effective p_i over nodes with known data; 0 when some node
  /// has never reported (its data is entirely invisible to estimates).
  double min_probability = 0.0;
  /// Largest effective p_i (privacy amplification must use this one:
  /// the most-included node enjoys the least amplification).
  double max_probability = 0.0;
  /// Fraction of station-known data held at p_i >= target_p.
  double coverage = 0.0;
  std::size_t reported_nodes = 0;
  /// Reported nodes whose p_i lags the round target.
  std::size_t stale_nodes = 0;
  std::size_t node_count = 0;

  /// Every node reported and none lag the round target.
  bool complete() const noexcept {
    return node_count > 0 && reported_nodes == node_count && stale_nodes == 0;
  }
};

/// Thread-safety: every public method takes the internal mutex, so scalar
/// queries and ingest/commit calls may race freely once collection goes
/// parallel.  Each node's cached sample is an immutable shared set: ingest
/// and replace install a fresh one, so an estimate holds the sets it
/// started from without copying them.  The exceptions are node_views()
/// (plain pointers into the current sets — keep the station quiescent while
/// an estimator consumes them) and the reference returned by
/// SamplingNetwork::base_station().  The
/// PRC_GUARDED_BY annotations make clang's -Wthread-safety enforce the
/// discipline on the _locked helpers when PRC_THREAD_SAFETY_ANALYSIS is on.
class BaseStation {
 public:
  explicit BaseStation(std::size_t node_count);

  // Copyable (checkpoint restore returns by value); the mutex itself is
  // never copied — each station guards its own cache.
  BaseStation(const BaseStation& other);
  BaseStation& operator=(const BaseStation& other);

  std::size_t node_count() const noexcept;

  /// Sum of reported n_i over all nodes (0 until first reports arrive).
  std::size_t total_data_count() const noexcept;

  /// The last committed round target (the probability the cache would be
  /// valid for if every node had delivered).
  double sampling_probability() const noexcept;

  /// Effective inclusion probability of one node's cached sample (0 until
  /// the node first delivers).
  double node_probability(std::size_t node) const;

  /// True once the node has delivered at least one report.
  bool node_reported(std::size_t node) const;

  /// All effective probabilities, indexed by node.
  std::vector<double> node_probabilities() const;

  /// Coverage of the cache relative to the last committed round target.
  CoverageSummary coverage() const noexcept;

  /// Total samples cached across nodes.
  std::size_t cached_sample_count() const noexcept;

  /// Ingests one node's report (merges the new samples into the cache).
  void ingest(const SampleReport& report);

  /// Replaces one node's cached sample wholesale.  Used after continuous
  /// collection appends shift the node's local ranks: merged deltas would be
  /// stale, so the node retransmits its full sample.  The new set is built
  /// before the lock is taken; only the pointer swap holds it.
  void replace(const SampleReport& full_report);

  /// Records that a top-up round to probability `p` completed with every
  /// node delivering (the fault-free convenience form).
  void commit_round(double p);

  /// Records a possibly-partial round: only nodes with refreshed[i] == true
  /// had their full report/delta delivered, so only their effective p_i is
  /// raised to `p`.  Everyone else keeps their older p_i — which is what
  /// keeps estimates unbiased when the round degrades.
  void commit_round(double p, const std::vector<bool>& refreshed);

  /// Views over the cache in the estimator's format.
  std::vector<estimator::NodeSampleView> node_views() const;

  /// RankCounting estimate from the cache, applying each node's own p_i
  /// (heterogeneous Horvitz–Thompson correction).  Requires a completed
  /// round (sampling_probability() > 0).
  double rank_counting_estimate(const query::RangeQuery& range) const;

  /// Batched RankCounting: answers all ranges against ONE consistent cache
  /// snapshot (the mutex is held for the whole batch) and returns exactly
  /// the values per-range rank_counting_estimate() calls would, bit for
  /// bit, at any thread count.
  std::vector<double> rank_counting_estimate_batch(
      std::span<const query::RangeQuery> ranges) const;

  /// BasicCounting baseline estimate from the same cache.  Deliberately
  /// kept at the seed-style single global probability: it is the biased
  /// baseline the degraded-operation benches compare against.
  double basic_counting_estimate(const query::RangeQuery& range) const;

  /// Checkpointing: serializes the whole cache (per-node samples, counts,
  /// effective probabilities, current round target) to bytes via the wire
  /// codec, so a broker can restart without a fresh collection round.
  /// deserialize() reconstructs an equivalent station; throws CodecError /
  /// std::invalid_argument on malformed input.
  std::vector<std::uint8_t> serialize() const;
  static BaseStation deserialize(const std::vector<std::uint8_t>& bytes);

 private:
  using SharedSamples = std::shared_ptr<const sampling::RankSampleSet>;

  struct NodeEntry {
    SharedSamples samples = std::make_shared<const sampling::RankSampleSet>();
    std::size_t data_count = 0;
    double probability = 0.0;  // effective p_i of the cached sample
    bool reported = false;
  };

  // The per-node state the rank-counting estimators read: staged under
  // mutex_ (one pointer copy per node), consumed after it is released, so
  // the pool-backed estimate never runs with the station lock held (report
  // ingestion would queue behind query latency otherwise).  The shared sets
  // are immutable, so a later ingest or replace cannot change them.
  struct EstimateSnapshot {
    std::vector<SharedSamples> samples;
    std::vector<std::size_t> data_counts;
    std::vector<double> probabilities;
    std::vector<estimator::NodeSampleView> views() const;
  };
  EstimateSnapshot estimate_snapshot() const;

  // Unlocked bodies shared by the public methods (which lock) and by
  // internal callers that already hold the mutex.
  std::size_t total_data_count_locked() const PRC_REQUIRES(mutex_);
  std::vector<double> node_probabilities_locked() const PRC_REQUIRES(mutex_);
  CoverageSummary coverage_locked() const PRC_REQUIRES(mutex_);
  std::vector<estimator::NodeSampleView> node_views_locked() const
      PRC_REQUIRES(mutex_);
  /// The entry of a reporting node; throws std::out_of_range when unknown.
  NodeEntry& entry_locked(int node_id) PRC_REQUIRES(mutex_);
  void commit_round_locked(double p, const std::vector<bool>& refreshed)
      PRC_REQUIRES(mutex_);

  mutable std::mutex mutex_;
  std::vector<NodeEntry> entries_ PRC_GUARDED_BY(mutex_);
  double p_ PRC_GUARDED_BY(mutex_) = 0.0;
};

}  // namespace prc::iot
