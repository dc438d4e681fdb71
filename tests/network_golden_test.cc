// Exact-counter golden suite for the flat and tree network simulators.
//
// Each scenario drives one network through a fixed sequence of rounds and
// renders everything a caller can observe into one text trace:
//   * every RoundReport field and per-node outcome, after each round;
//   * all 13 CommunicationStats fields and, for trees, level_stats();
//   * rank_counting_estimate_batch over a fixed set of ranges.
// Doubles are printed in hexfloat, so the comparison is exact to the bit.
// Every scenario runs at one and at four threads against the same golden
// trace: the simulators promise identical counters at any thread count.
//
// The goldens were recorded before the link layer and round driver were
// shared between the two topologies.  Sharing them changed two values only,
// both in the lossy fault-free tree rows: RoundReport::retries now counts
// downlink retransmissions too, and backoff_slots accrues there as on every
// other path.  A refactor of src/iot must leave every line unchanged; a diff
// here is a behaviour change, not a re-baseline.
//
// The estimates lines of flat_collect_clean and flat_collect_lossy_bounded
// were re-recorded when LocalSampler::append defined the order of equal
// values (existing copies first, then newcomers in arrival order).  Those
// scenarios append extra[4] and extra[10] twice, so exact duplicates exist,
// and the earlier lines pinned std::sort's unspecified order of equal keys.
// The new lines are what the old full re-sort gives with std::stable_sort.
#include <gtest/gtest.h>

#include <cstddef>
#include <functional>
#include <ios>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "iot/network.h"
#include "iot/tree_network.h"
#include "query/range_query.h"

namespace prc::iot {
namespace {

class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(std::size_t count)
      : previous_(parallel::thread_count()) {
    parallel::set_thread_count(count);
  }
  ~ThreadCountGuard() { parallel::set_thread_count(previous_); }

 private:
  std::size_t previous_;
};

std::vector<std::vector<double>> node_data(std::size_t nodes,
                                           std::size_t per_node,
                                           std::uint64_t seed = 12345) {
  Rng rng(seed);
  std::vector<std::vector<double>> data(nodes);
  for (auto& values : data) {
    for (std::size_t j = 0; j < per_node; ++j) {
      values.push_back(rng.uniform(0.0, 200.0));
    }
  }
  return data;
}

std::vector<query::RangeQuery> ranges() {
  return {{0.0, 200.0}, {10.0, 30.0}, {55.5, 120.25}, {150.0, 151.0},
          {190.0, 199.0}};
}

char outcome_code(NodeOutcome outcome) {
  switch (outcome) {
    case NodeOutcome::kDelivered: return 'D';
    case NodeOutcome::kDropped: return 'X';
    case NodeOutcome::kOffline: return 'O';
    case NodeOutcome::kStale: return 'S';
  }
  return '?';
}

/// Accumulates the observable trace of one scenario.
class Trace {
 public:
  Trace() { out_ << std::hexfloat; }

  void round(const RoundReport& r) {
    out_ << "round p=" << r.target_p << " new=" << r.new_samples
         << " retries=" << r.retries << " dropped=" << r.dropped_frames
         << " severed=" << r.severed_reports << " cov=" << r.coverage
         << " minp=" << r.min_probability << " outcomes=";
    for (const auto o : r.outcomes) out_ << outcome_code(o);
    out_ << "\n";
  }

  void stats(const CommunicationStats& s) {
    out_ << "stats down=" << s.downlink_messages << "/" << s.downlink_bytes
         << " up=" << s.uplink_messages << "/" << s.uplink_bytes
         << " retrans=" << s.retransmissions
         << " corrupted=" << s.corrupted_frames
         << " samples=" << s.samples_transferred
         << " piggybacked=" << s.piggybacked_reports
         << " attempted=" << s.frames_attempted
         << " delivered=" << s.frames_delivered
         << " dropped=" << s.dropped_frames
         << " duplicated=" << s.duplicated_frames
         << " backoff=" << s.backoff_slots << "\n";
  }

  void levels(const std::vector<TreeLevelStats>& levels) {
    out_ << "levels";
    for (const auto& level : levels) {
      out_ << " " << level.links_crossed << "/" << level.bytes;
    }
    out_ << "\n";
  }

  void estimates(const SamplingNetwork& network) {
    out_ << "estimates";
    for (const double e : network.rank_counting_estimate_batch(ranges())) {
      out_ << " " << e;
    }
    out_ << "\n";
  }

  void line(const std::string& text) { out_ << text << "\n"; }

  std::string str() const { return out_.str(); }

 private:
  std::ostringstream out_;
};

// ---- Flat scenarios --------------------------------------------------------

// Rounds: piggybacked deltas (p=0.02), one-frame deltas, a no-op request,
// then multi-frame deltas.
std::string run_flat(const NetworkConfig& config) {
  FlatNetwork network(node_data(24, 250), config);
  Trace trace;
  for (const double p : {0.02, 0.1, 0.05, 0.5}) {
    trace.round(network.ensure_sampling_probability(p));
  }
  trace.stats(network.stats());
  trace.estimates(network);
  return trace.str();
}

NetworkConfig lossy_flat_config() {
  NetworkConfig config;
  config.seed = 11;
  config.frame_loss_probability = 0.25;
  config.max_attempts = 3;
  config.faults.good_to_bad = 0.1;
  config.faults.loss_bad = 0.6;
  config.faults.duplication_probability = 0.05;
  config.faults.crash_probability = 0.05;
  config.faults.seed = 42;
  return config;
}

std::string flat_clean() { return run_flat(NetworkConfig{}); }

std::string flat_lossy_unbounded() {
  NetworkConfig config;
  config.frame_loss_probability = 0.3;
  config.seed = 5;
  return run_flat(config);
}

std::string flat_lossy_bounded_faults() {
  return run_flat(lossy_flat_config());
}

std::string flat_byte_accurate() {
  NetworkConfig config;
  config.byte_accurate = true;
  config.frame_loss_probability = 0.1;
  config.bit_corruption_probability = 0.2;
  config.max_attempts = 4;
  config.seed = 23;
  return run_flat(config);
}

// The continuous-collection path: appends make nodes dirty, refresh_samples
// resyncs them in full, top-up rounds follow, and a node appended to between
// refreshes resyncs inside the next round.
std::string run_collect(const NetworkConfig& config) {
  FlatNetwork network(node_data(16, 200), config);
  const auto extra = node_data(16, 40, 777);
  Trace trace;
  trace.round(network.ensure_sampling_probability(0.1));
  for (std::size_t node = 0; node < 16; node += 2) {
    network.append_data(node, extra[node]);
  }
  trace.line("resynced " + std::to_string(network.refresh_samples()));
  trace.round(network.ensure_sampling_probability(0.2));
  for (std::size_t node = 1; node < 16; node += 3) {
    network.append_data(node, extra[node]);
  }
  trace.round(network.ensure_sampling_probability(0.35));
  trace.line("resynced " + std::to_string(network.refresh_samples()));
  trace.line("total " + std::to_string(network.total_data_count()));
  trace.stats(network.stats());
  trace.estimates(network);
  return trace.str();
}

std::string flat_collect_clean() { return run_collect(NetworkConfig{}); }

std::string flat_collect_lossy_bounded() {
  return run_collect(lossy_flat_config());
}

// ---- Tree scenarios --------------------------------------------------------

std::string run_tree(const TreeConfig& config,
                     const std::function<void(TreeNetwork&, std::size_t)>&
                         before_round = {}) {
  TreeNetwork network(node_data(40, 150), config);
  Trace trace;
  std::size_t index = 0;
  for (const double p : {0.05, 0.2, 0.1, 0.45}) {
    if (before_round) before_round(network, index++);
    trace.round(network.ensure_sampling_probability(p));
  }
  trace.stats(network.stats());
  trace.levels(network.level_stats());
  trace.estimates(network);
  return trace.str();
}

std::string tree_clean(std::size_t fanout, bool aggregate) {
  TreeConfig config;
  config.fanout = fanout;
  config.aggregate_frames = aggregate;
  return run_tree(config);
}

std::string tree_lossy(bool aggregate) {
  TreeConfig config;
  config.fanout = 2;
  config.aggregate_frames = aggregate;
  config.frame_loss_probability = 0.3;
  config.seed = 11;
  return run_tree(config);
}

// An offline interior node forces the store-and-forward degraded path for
// the first round; once it rejoins, later rounds take the fault-free path.
std::string tree_offline_then_clean() {
  TreeConfig config;
  config.fanout = 4;
  return run_tree(config, [](TreeNetwork& network, std::size_t round) {
    network.set_node_online(2, round != 0);
  });
}

std::string tree_degraded() {
  TreeConfig config;
  config.fanout = 3;
  config.frame_loss_probability = 0.15;
  config.max_attempts = 3;
  config.seed = 19;
  config.faults.crash_probability = 0.1;
  config.faults.good_to_bad = 0.1;
  config.faults.loss_bad = 0.6;
  config.faults.duplication_probability = 0.05;
  config.faults.seed = 8;
  return run_tree(config, [](TreeNetwork& network, std::size_t round) {
    // Node 1 relays for nodes 4-6 and their subtrees.
    network.set_node_online(1, round >= 2);
  });
}

// ---- Goldens ---------------------------------------------------------------

struct Scenario {
  const char* name;
  std::function<std::string()> run;
  const char* golden;
};

const std::vector<Scenario>& scenarios() {
  static const std::vector<Scenario> all = {
      {"flat_clean", flat_clean, R"(
round p=0x1.47ae147ae147bp-6 new=107 retries=0 dropped=0 severed=0 cov=0x1p+0 minp=0x1.47ae147ae147bp-6 outcomes=DDDDDDDDDDDDDDDDDDDDDDDD
round p=0x1.999999999999ap-4 new=525 retries=0 dropped=0 severed=0 cov=0x1p+0 minp=0x1.999999999999ap-4 outcomes=DDDDDDDDDDDDDDDDDDDDDDDD
round p=0x1.999999999999ap-5 new=0 retries=0 dropped=0 severed=0 cov=0x1p+0 minp=0x1.999999999999ap-4 outcomes=DDDDDDDDDDDDDDDDDDDDDDDD
round p=0x1p-1 new=2448 retries=0 dropped=0 severed=0 cov=0x1p+0 minp=0x1p-1 outcomes=DDDDDDDDDDDDDDDDDDDDDDDD
stats down=72/2016 up=96/51408 retrans=0 corrupted=0 samples=3080 piggybacked=28 attempted=168 delivered=168 dropped=0 duplicated=0 backoff=0
estimates 0x1.77p+12 0x1.28p+9 0x1.dd4p+10 0x1.ep+4 0x1.0ep+8
)"},
      {"flat_lossy_unbounded", flat_lossy_unbounded, R"(
round p=0x1.47ae147ae147bp-6 new=126 retries=21 dropped=0 severed=0 cov=0x1p+0 minp=0x1.47ae147ae147bp-6 outcomes=DDDDDDDDDDDDDDDDDDDDDDDD
round p=0x1.999999999999ap-4 new=458 retries=16 dropped=0 severed=0 cov=0x1p+0 minp=0x1.999999999999ap-4 outcomes=DDDDDDDDDDDDDDDDDDDDDDDD
round p=0x1.999999999999ap-5 new=0 retries=0 dropped=0 severed=0 cov=0x1p+0 minp=0x1.999999999999ap-4 outcomes=DDDDDDDDDDDDDDDDDDDDDDDD
round p=0x1p-1 new=2445 retries=26 dropped=0 severed=0 cov=0x1p+0 minp=0x1p-1 outcomes=DDDDDDDDDDDDDDDDDDDDDDDD
stats down=103/2884 up=128/67956 retrans=63 corrupted=0 samples=3029 piggybacked=30 attempted=168 delivered=168 dropped=0 duplicated=0 backoff=96
estimates 0x1.77p+12 0x1.368p+9 0x1.d94p+10 0x1.dp+4 0x1.0ep+8
)"},
      {"flat_lossy_bounded_faults", flat_lossy_bounded_faults, R"(
round p=0x1.47ae147ae147bp-6 new=119 retries=27 dropped=1 severed=0 cov=0x1p+0 minp=0x0p+0 outcomes=DDDDDDDDDXDDDDDDDDDDDDDD
round p=0x1.999999999999ap-4 new=367 retries=34 dropped=6 severed=0 cov=0x1.8p-1 minp=0x1.47ae147ae147bp-6 outcomes=XDDDDXDXDDDDXDDDXDXDDDDD
round p=0x1.999999999999ap-5 new=0 retries=0 dropped=0 severed=0 cov=0x1.8p-1 minp=0x1.47ae147ae147bp-6 outcomes=SDDDDSDSDDDDSDDDSDSDDDDD
round p=0x1p-1 new=2122 retries=34 dropped=4 severed=0 cov=0x1.aaaaaaaaaaaabp-1 minp=0x1.47ae147ae147bp-6 outcomes=DDDDDDDDDDDDXDDXDXDDDDDX
stats down=113/3164 up=134/71036 retrans=95 corrupted=0 samples=2608 piggybacked=27 attempted=160 delivered=149 dropped=11 duplicated=3 backoff=113
estimates 0x1.77p+12 0x1.408p+9 0x1.f58p+10 0x1.04p+7 0x1.66p+8
)"},
      {"flat_byte_accurate", flat_byte_accurate, R"(
round p=0x1.47ae147ae147bp-6 new=105 retries=13 dropped=1 severed=0 cov=0x1p+0 minp=0x0p+0 outcomes=DDDDDDDDDDDXDDDDDDDDDDDD
round p=0x1.999999999999ap-4 new=464 retries=7 dropped=0 severed=0 cov=0x1p+0 minp=0x1.999999999999ap-4 outcomes=DDDDDDDDDDDDDDDDDDDDDDDD
round p=0x1.999999999999ap-5 new=0 retries=0 dropped=0 severed=0 cov=0x1p+0 minp=0x1.999999999999ap-4 outcomes=DDDDDDDDDDDDDDDDDDDDDDDD
round p=0x1p-1 new=2384 retries=24 dropped=0 severed=0 cov=0x1p+0 minp=0x1p-1 outcomes=DDDDDDDDDDDDDDDDDDDDDDDD
stats down=77/2156 up=134/70632 retrans=44 corrupted=27 samples=2953 piggybacked=0 attempted=168 delivered=167 dropped=1 duplicated=0 backoff=59
estimates 0x1.77p+12 0x1.35p+9 0x1.dbcp+10 0x1.08p+5 0x1.0bp+8
)"},
      {"flat_collect_clean", flat_collect_clean, R"(
round p=0x1.999999999999ap-4 new=291 retries=0 dropped=0 severed=0 cov=0x1p+0 minp=0x1.999999999999ap-4 outcomes=DDDDDDDDDDDDDDDD
resynced 8
round p=0x1.999999999999ap-3 new=361 retries=0 dropped=0 severed=0 cov=0x1p+0 minp=0x1.999999999999ap-3 outcomes=DDDDDDDDDDDDDDDD
round p=0x1.6666666666666p-2 new=859 retries=0 dropped=0 severed=0 cov=0x1p+0 minp=0x1.6666666666666p-2 outcomes=DDDDDDDDDDDDDDDD
resynced 0
total 3720
stats down=48/1344 up=61/28524 retrans=0 corrupted=0 samples=1686 piggybacked=8 attempted=109 delivered=109 dropped=0 duplicated=0 backoff=0
estimates 0x1.d1p+11 0x1.6792492492491p+8 0x1.1ee4924924926p+10 0x1.e492492492491p+2 0x1.0bb6db6db6db6p+7
)"},
      {"flat_collect_lossy_bounded", flat_collect_lossy_bounded, R"(
round p=0x1.999999999999ap-4 new=240 retries=20 dropped=4 severed=0 cov=0x1p+0 minp=0x0p+0 outcomes=DDDDXDDDDDDXXDXD
resynced 9
round p=0x1.999999999999ap-3 new=264 retries=13 dropped=2 severed=0 cov=0x1.85d1745d1745dp-1 minp=0x1.999999999999ap-4 outcomes=DDDDDDSXDDDDDXDS
round p=0x1.6666666666666p-2 new=636 retries=13 dropped=2 severed=0 cov=0x1.a5fa5fa5fa5fap-1 minp=0x1.999999999999ap-4 outcomes=DDDDDDDSDDDDDXXD
resynced 3
total 3720
stats down=63/1764 up=89/43196 retrans=51 corrupted=0 samples=1521 piggybacked=4 attempted=108 delivered=100 dropped=8 duplicated=1 backoff=57
estimates 0x1.d1p+11 0x1.63b6db6db6db6p+8 0x1.1eadb6db6db6ep+10 -0x1.2924924924928p+3 0x1.8649249249249p+6
)"},
      {"tree_f2_aggregated", [] { return tree_clean(2, true); }, R"(
round p=0x1.999999999999ap-5 new=236 retries=0 dropped=0 severed=0 cov=0x1p+0 minp=0x1.999999999999ap-5 outcomes=DDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDD
round p=0x1.999999999999ap-3 new=921 retries=0 dropped=0 severed=0 cov=0x1p+0 minp=0x1.999999999999ap-3 outcomes=DDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDD
round p=0x1.999999999999ap-4 new=0 retries=0 dropped=0 severed=0 cov=0x1p+0 minp=0x1.999999999999ap-3 outcomes=DDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDD
round p=0x1.ccccccccccccdp-2 new=1544 retries=0 dropped=0 severed=0 cov=0x1p+0 minp=0x1.ccccccccccccdp-2 outcomes=DDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDD
stats down=120/3360 up=120/168860 retrans=0 corrupted=0 samples=2701 piggybacked=0 attempted=240 delivered=240 dropped=0 duplicated=0 backoff=0
levels 0/0 6/45076 12/43092 24/38836 48/30280 30/11576
estimates 0x1.77p+12 0x1.289c71c71c719p+9 0x1.de0e38e38e396p+10 0x1.338e38e38e396p+4 0x1.11aaaaaaaaaa8p+8
)"},
      {"tree_f2_store_forward", [] { return tree_clean(2, false); }, R"(
round p=0x1.999999999999ap-5 new=236 retries=0 dropped=0 severed=0 cov=0x1p+0 minp=0x1.999999999999ap-5 outcomes=DDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDD
round p=0x1.999999999999ap-3 new=921 retries=0 dropped=0 severed=0 cov=0x1p+0 minp=0x1.999999999999ap-3 outcomes=DDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDD
round p=0x1.999999999999ap-4 new=0 retries=0 dropped=0 severed=0 cov=0x1p+0 minp=0x1.999999999999ap-3 outcomes=DDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDD
round p=0x1.ccccccccccccdp-2 new=1544 retries=0 dropped=0 severed=0 cov=0x1p+0 minp=0x1.ccccccccccccdp-2 outcomes=DDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDD
stats down=120/3360 up=444/173200 retrans=0 corrupted=0 samples=2701 piggybacked=0 attempted=564 delivered=564 dropped=0 duplicated=0 backoff=0
levels 0/0 120/46576 114/44472 102/39896 78/30680 30/11576
estimates 0x1.77p+12 0x1.289c71c71c719p+9 0x1.de0e38e38e396p+10 0x1.338e38e38e396p+4 0x1.11aaaaaaaaaa8p+8
)"},
      {"tree_f4_aggregated", [] { return tree_clean(4, true); }, R"(
round p=0x1.999999999999ap-5 new=236 retries=0 dropped=0 severed=0 cov=0x1p+0 minp=0x1.999999999999ap-5 outcomes=DDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDD
round p=0x1.999999999999ap-3 new=921 retries=0 dropped=0 severed=0 cov=0x1p+0 minp=0x1.999999999999ap-3 outcomes=DDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDD
round p=0x1.999999999999ap-4 new=0 retries=0 dropped=0 severed=0 cov=0x1p+0 minp=0x1.999999999999ap-3 outcomes=DDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDD
round p=0x1.ccccccccccccdp-2 new=1544 retries=0 dropped=0 severed=0 cov=0x1p+0 minp=0x1.ccccccccccccdp-2 outcomes=DDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDD
stats down=120/3360 up=120/110280 retrans=0 corrupted=0 samples=2701 piggybacked=0 attempted=240 delivered=240 dropped=0 duplicated=0 backoff=0
levels 0/0 12/45116 48/41388 60/23776
estimates 0x1.77p+12 0x1.289c71c71c719p+9 0x1.de0e38e38e396p+10 0x1.338e38e38e396p+4 0x1.11aaaaaaaaaa8p+8
)"},
      {"tree_f4_store_forward", [] { return tree_clean(4, false); }, R"(
round p=0x1.999999999999ap-5 new=236 retries=0 dropped=0 severed=0 cov=0x1p+0 minp=0x1.999999999999ap-5 outcomes=DDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDD
round p=0x1.999999999999ap-3 new=921 retries=0 dropped=0 severed=0 cov=0x1p+0 minp=0x1.999999999999ap-3 outcomes=DDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDD
round p=0x1.999999999999ap-4 new=0 retries=0 dropped=0 severed=0 cov=0x1p+0 minp=0x1.999999999999ap-3 outcomes=DDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDD
round p=0x1.ccccccccccccdp-2 new=1544 retries=0 dropped=0 severed=0 cov=0x1p+0 minp=0x1.ccccccccccccdp-2 outcomes=DDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDD
stats down=120/3360 up=288/112560 retrans=0 corrupted=0 samples=2701 piggybacked=0 attempted=408 delivered=408 dropped=0 duplicated=0 backoff=0
levels 0/0 120/46576 108/42208 60/23776
estimates 0x1.77p+12 0x1.289c71c71c719p+9 0x1.de0e38e38e396p+10 0x1.338e38e38e396p+4 0x1.11aaaaaaaaaa8p+8
)"},
      {"tree_f16_aggregated", [] { return tree_clean(16, true); }, R"(
round p=0x1.999999999999ap-5 new=236 retries=0 dropped=0 severed=0 cov=0x1p+0 minp=0x1.999999999999ap-5 outcomes=DDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDD
round p=0x1.999999999999ap-3 new=921 retries=0 dropped=0 severed=0 cov=0x1p+0 minp=0x1.999999999999ap-3 outcomes=DDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDD
round p=0x1.999999999999ap-4 new=0 retries=0 dropped=0 severed=0 cov=0x1p+0 minp=0x1.999999999999ap-3 outcomes=DDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDD
round p=0x1.ccccccccccccdp-2 new=1544 retries=0 dropped=0 severed=0 cov=0x1p+0 minp=0x1.ccccccccccccdp-2 outcomes=DDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDD
stats down=120/3360 up=120/74100 retrans=0 corrupted=0 samples=2701 piggybacked=0 attempted=240 delivered=240 dropped=0 duplicated=0 backoff=0
levels 0/0 48/45636 72/28464
estimates 0x1.77p+12 0x1.289c71c71c719p+9 0x1.de0e38e38e396p+10 0x1.338e38e38e396p+4 0x1.11aaaaaaaaaa8p+8
)"},
      {"tree_f16_store_forward", [] { return tree_clean(16, false); }, R"(
round p=0x1.999999999999ap-5 new=236 retries=0 dropped=0 severed=0 cov=0x1p+0 minp=0x1.999999999999ap-5 outcomes=DDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDD
round p=0x1.999999999999ap-3 new=921 retries=0 dropped=0 severed=0 cov=0x1p+0 minp=0x1.999999999999ap-3 outcomes=DDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDD
round p=0x1.999999999999ap-4 new=0 retries=0 dropped=0 severed=0 cov=0x1p+0 minp=0x1.999999999999ap-3 outcomes=DDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDD
round p=0x1.ccccccccccccdp-2 new=1544 retries=0 dropped=0 severed=0 cov=0x1p+0 minp=0x1.ccccccccccccdp-2 outcomes=DDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDD
stats down=120/3360 up=192/75040 retrans=0 corrupted=0 samples=2701 piggybacked=0 attempted=312 delivered=312 dropped=0 duplicated=0 backoff=0
levels 0/0 120/46576 72/28464
estimates 0x1.77p+12 0x1.289c71c71c719p+9 0x1.de0e38e38e396p+10 0x1.338e38e38e396p+4 0x1.11aaaaaaaaaa8p+8
)"},
      {"tree_lossy_aggregated", [] { return tree_lossy(true); }, R"(
round p=0x1.999999999999ap-5 new=286 retries=32 dropped=0 severed=0 cov=0x1p+0 minp=0x1.999999999999ap-5 outcomes=DDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDD
round p=0x1.999999999999ap-3 new=904 retries=32 dropped=0 severed=0 cov=0x1p+0 minp=0x1.999999999999ap-3 outcomes=DDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDD
round p=0x1.999999999999ap-4 new=0 retries=0 dropped=0 severed=0 cov=0x1p+0 minp=0x1.999999999999ap-3 outcomes=DDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDD
round p=0x1.ccccccccccccdp-2 new=1465 retries=35 dropped=0 severed=0 cov=0x1p+0 minp=0x1.ccccccccccccdp-2 outcomes=DDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDD
stats down=181/5068 up=158/201956 retrans=99 corrupted=0 samples=2655 piggybacked=0 attempted=240 delivered=240 dropped=0 duplicated=0 backoff=142
levels 0/0 6/44320 14/56864 34/47872 68/38836 36/14064
estimates 0x1.77p+12 0x1.309c71c71c719p+9 0x1.d94e38e38e396p+10 0x1.c38e38e38e392p+4 0x1.0b8e38e38e38bp+8
)"},
      {"tree_lossy_store_forward", [] { return tree_lossy(false); }, R"(
round p=0x1.999999999999ap-5 new=286 retries=75 dropped=0 severed=0 cov=0x1p+0 minp=0x1.999999999999ap-5 outcomes=DDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDD
round p=0x1.999999999999ap-3 new=904 retries=90 dropped=0 severed=0 cov=0x1p+0 minp=0x1.999999999999ap-3 outcomes=DDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDD
round p=0x1.999999999999ap-4 new=0 retries=0 dropped=0 severed=0 cov=0x1p+0 minp=0x1.999999999999ap-3 outcomes=DDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDD
round p=0x1.ccccccccccccdp-2 new=1465 retries=69 dropped=0 severed=0 cov=0x1p+0 minp=0x1.ccccccccccccdp-2 outcomes=DDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDD
stats down=173/4844 up=625/237340 retrans=234 corrupted=0 samples=2655 piggybacked=0 attempted=564 delivered=564 dropped=0 duplicated=0 backoff=340
levels 0/0 160/59952 163/61412 151/58548 114/42728 37/14700
estimates 0x1.77p+12 0x1.309c71c71c719p+9 0x1.d94e38e38e396p+10 0x1.c38e38e38e392p+4 0x1.0b8e38e38e38bp+8
)"},
      {"tree_offline_then_clean", tree_offline_then_clean, R"(
round p=0x1.999999999999ap-5 new=206 retries=0 dropped=0 severed=4 cov=0x1p+0 minp=0x0p+0 outcomes=DDODDDDDDDDDOOOODDDDDDDDDDDDDDDDDDDDDDDD
round p=0x1.999999999999ap-3 new=950 retries=0 dropped=0 severed=0 cov=0x1p+0 minp=0x1.999999999999ap-3 outcomes=DDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDD
round p=0x1.999999999999ap-4 new=0 retries=0 dropped=0 severed=0 cov=0x1p+0 minp=0x1.999999999999ap-3 outcomes=DDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDD
round p=0x1.ccccccccccccdp-2 new=1539 retries=0 dropped=0 severed=0 cov=0x1p+0 minp=0x1.ccccccccccccdp-2 outcomes=DDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDD
stats down=116/3248 up=167/111144 retrans=0 corrupted=0 samples=2695 piggybacked=0 attempted=283 delivered=283 dropped=0 duplicated=0 backoff=0
levels 0/0 43/45580 64/41788 60/23776
estimates 0x1.77p+12 0x1.2c1c71c71c719p+9 0x1.df4e38e38e396p+10 0x1.a38e38e38e39cp+4 0x1.0d71c71c71c6fp+8
)"},
      {"tree_degraded", tree_degraded, R"(
round p=0x1.999999999999ap-5 new=137 retries=29 dropped=4 severed=12 cov=0x1p+0 minp=0x0p+0 outcomes=DODDDDOOODDDDDDOODDXDOOOOOOOOOXODDDDOXDX
round p=0x1.999999999999ap-3 new=568 retries=23 dropped=3 severed=12 cov=0x1.b425ed097b426p-1 minp=0x0p+0 outcomes=DODDDDOOODDDDXDDDDDDDOOOOOOOOODDXDXDDDSD
round p=0x1.999999999999ap-4 new=0 retries=0 dropped=0 severed=0 cov=0x1.b425ed097b426p-1 minp=0x0p+0 outcomes=DODDDDOOODDDDSDDDDDDDOOOOOOOOODDSDSDDDSD
round p=0x1.ccccccccccccdp-2 new=1235 retries=41 dropped=6 severed=3 cov=0x1.a2e8ba2e8ba2fp-1 minp=0x0p+0 outcomes=DDXDDDDODDXDDXDDDDDDDXXDOOOODDDDDDSXDDSD
stats down=121/3388 up=256/125900 retrans=93 corrupted=0 samples=1940 piggybacked=0 attempted=289 delivered=276 dropped=13 duplicated=8 backoff=102
levels 0/0 90/45024 88/42272 67/31888 3/1300
estimates 0x1.356p+12 0x1.d0ffffffffffcp+8 0x1.78c0000000003p+10 0x1.3000000000004p+4 0x1.63ffffffffffcp+7
)"},
  };
  return all;
}

struct GoldenParam {
  std::size_t scenario;
  std::size_t threads;
};

void PrintTo(const GoldenParam& param, std::ostream* os) {
  *os << scenarios()[param.scenario].name << ", threads=" << param.threads;
}

class NetworkGoldenTest : public ::testing::TestWithParam<GoldenParam> {};

TEST_P(NetworkGoldenTest, MatchesRecordedTrace) {
  const auto& scenario = scenarios()[GetParam().scenario];
  ThreadCountGuard threads(GetParam().threads);
  // Goldens start with a newline so the raw literals read as blocks.
  EXPECT_EQ(scenario.run(), std::string(scenario.golden + 1));
}

std::vector<GoldenParam> all_params() {
  std::vector<GoldenParam> params;
  for (std::size_t s = 0; s < scenarios().size(); ++s) {
    for (const std::size_t threads : {1u, 4u}) params.push_back({s, threads});
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, NetworkGoldenTest, ::testing::ValuesIn(all_params()),
    [](const ::testing::TestParamInfo<GoldenParam>& param_info) {
      return std::string(scenarios()[param_info.param.scenario].name) + "_t" +
             std::to_string(param_info.param.threads);
    });

}  // namespace
}  // namespace prc::iot
