// Bounded, thread-safe LRU map keyed by the bit patterns of its arguments.
//
// The sale path memoizes two functions that are pure in their arguments:
// the optimizer's plan (dp::PlanCache) and the broker's price quote
// (pricing::QuoteCache).  Both key the cache by N 64-bit words, with each
// double entering through std::bit_cast, so "the same arguments" means
// exactly the same bytes: +0.0 and -0.0 (or two NaN payloads) are distinct
// keys and a hit returns the exact value the miss computed.
//
// Determinism contract: because the cached value is a deterministic
// function of the key, two racing misses on one key compute identical
// bytes.  put() keeps the incumbent, so which racer wins is unobservable
// and the cached path stays bit-identical to the direct one at any thread
// count.
//
// The container does no telemetry: callers count their own hits, misses
// and evictions under their own metric names.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/thread_annotations.h"

namespace prc {

template <std::size_t N, typename Value>
class BitKeyedLru {
 public:
  using Key = std::array<std::uint64_t, N>;

  /// `capacity` == 0 disables the cache: every lookup misses and every put
  /// is dropped.
  explicit BitKeyedLru(std::size_t capacity) : capacity_(capacity) {}

  BitKeyedLru(const BitKeyedLru&) = delete;
  BitKeyedLru& operator=(const BitKeyedLru&) = delete;

  /// The value stored under `key`, refreshing its recency, or nullopt when
  /// the key is absent.
  std::optional<Value> lookup(const Key& key) PRC_EXCLUDES(mutex_) {
    if (capacity_ == 0) return std::nullopt;
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(key);
    if (it == index_.end()) return std::nullopt;
    entries_.splice(entries_.begin(), entries_, it->second);
    return it->second->second;
  }

  /// Stores `value` as the most recently used entry; a key already present
  /// keeps its incumbent value.  Returns true when the insert pushed the
  /// least recently used entry out.
  bool put(const Key& key, Value value) PRC_EXCLUDES(mutex_) {
    if (capacity_ == 0) return false;
    std::lock_guard<std::mutex> lock(mutex_);
    if (index_.contains(key)) return false;
    entries_.emplace_front(key, std::move(value));
    index_.emplace(key, entries_.begin());
    if (entries_.size() <= capacity_) return false;
    index_.erase(entries_.back().first);
    entries_.pop_back();
    return true;
  }

  std::size_t size() const PRC_EXCLUDES(mutex_) {
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
  }

 private:
  struct KeyHash {
    // FNV-1a over the key's bytes: cheap, stable across platforms, and good
    // enough for the few hundred distinct keys a session ever sees.
    std::size_t operator()(const Key& key) const noexcept {
      std::uint64_t h = 14695981039346656037ULL;
      for (const std::uint64_t word : key) {
        for (int i = 0; i < 8; ++i) {
          h ^= (word >> (8 * i)) & 0xffULL;
          h *= 1099511628211ULL;
        }
      }
      return static_cast<std::size_t>(h);
    }
  };
  using EntryList = std::list<std::pair<Key, Value>>;

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  /// Front = most recently used; back = eviction candidate.
  EntryList entries_ PRC_GUARDED_BY(mutex_);
  std::unordered_map<Key, typename EntryList::iterator, KeyHash> index_
      PRC_GUARDED_BY(mutex_);
};

}  // namespace prc
