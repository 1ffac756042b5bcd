#pragma once

/// \file cache.h
/// \brief LRU + TTL result cache for the serving layer. It holds answers
/// read from a stored dataset, keyed on the canonical request key (see
/// request.h) and tagged with that one dataset; a streaming append to
/// dataset A eagerly drops exactly A's entries (InvalidateTag) while
/// everything else keeps hitting. Clear() is the flush_all escape hatch.

#include <chrono>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>

namespace easytime::serve {

/// \brief Thread-safe LRU cache with per-entry TTL and a dataset tag.
/// Stores serialized result payloads (the "result" member of a response), so
/// hits cost one map lookup and a byte splice — no model work, no JSON work.
class ResultCache {
 public:
  struct Options {
    size_t capacity = 256;        ///< max entries; 0 disables the cache
    double ttl_seconds = 300.0;   ///< entry lifetime; <= 0 = never expires
  };

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;      ///< LRU capacity evictions
    uint64_t invalidations = 0;  ///< TTL expiries + tag invalidations
    uint64_t tag_invalidations = 0;  ///< entries dropped by InvalidateTag
    uint64_t flushes = 0;        ///< Clear() calls (flush_all)
    size_t entries = 0;          ///< current size
  };

  explicit ResultCache(Options options) : options_(options) {}

  /// \brief Returns the payload cached under \p key if it is present and
  /// within TTL; expired entries are erased on the way out. Counts a hit or
  /// miss either way.
  std::optional<std::string> Lookup(const std::string& key);

  /// Counts a miss without a lookup, for a forecast/recommend whose answer
  /// is never cached (an upload): hits + misses still count every one.
  void CountMiss();

  /// \brief Invalidation stamp for an entry read from \p dataset: it
  /// moves whenever InvalidateTag(dataset) or Clear() runs. Read it before
  /// computing a payload and hand it to Insert.
  uint64_t Stamp(const std::string& dataset) const;

  /// \brief Inserts (or refreshes) \p key, evicting the LRU tail beyond
  /// capacity. \p dataset names the stored dataset the payload was read
  /// from. The fill is dropped if Stamp(dataset) has moved from \p stamp:
  /// the payload was computed from data that an append (or a flush) has
  /// since invalidated.
  void Insert(const std::string& key, std::string payload,
              const std::string& dataset, uint64_t stamp);

  /// \brief Eagerly drops every entry tagged with \p tag (the fine-grained
  /// path: one dataset's append leaves other datasets' entries hot).
  /// Returns the number of entries dropped.
  size_t InvalidateTag(const std::string& tag);

  /// Drops every entry — the flush_all escape hatch (stats are kept).
  void Clear();

  Stats stats() const;
  size_t size() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Entry {
    std::string key;
    std::string payload;
    std::string dataset;
    Clock::time_point expires_at;
    bool expires = false;
  };

  /// Unlinks one entry from the LRU list, the key index, and the tag index.
  void EraseLocked(std::list<Entry>::iterator it);
  uint64_t StampLocked(const std::string& dataset) const;

  Options options_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  /// dataset -> keys read from it (the reverse index InvalidateTag walks).
  std::unordered_map<std::string, std::set<std::string>> tag_index_;
  /// dataset -> InvalidateTag calls so far (Stamp's per-dataset part;
  /// Clear() is counted by stats_.flushes).
  std::unordered_map<std::string, uint64_t> tag_invalidations_;
  Stats stats_;
};

}  // namespace easytime::serve
