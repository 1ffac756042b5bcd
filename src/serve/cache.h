#pragma once

/// \file cache.h
/// \brief LRU + TTL result cache for the serving layer, with tag-based
/// fine-grained invalidation. Entries are keyed on the canonical request key
/// (see request.h) and tagged with the datasets their payload depends on;
/// a streaming append to dataset A eagerly drops exactly A's entries
/// (InvalidateTag) while everything else keeps hitting. This replaces the
/// old KB-version-counter scheme, under which any knowledge-base mutation —
/// including an evaluation commit that changes no series — nuked the whole
/// cache. Clear() survives as the flush_all escape hatch.

#include <chrono>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

namespace easytime::serve {

/// \brief Thread-safe LRU cache with per-entry TTL and dataset tags.
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

  /// \brief Invalidation stamp for an entry tagged \p tags: it moves
  /// whenever InvalidateTag hits one of the tags or Clear() runs. Read it
  /// before computing a payload and hand it to Insert.
  uint64_t Stamp(const std::vector<std::string>& tags) const;

  /// \brief Inserts (or refreshes) \p key, evicting the LRU tail beyond
  /// capacity. \p tags names the datasets the payload was computed from;
  /// an untagged entry (inline values, dataset-free requests) is only ever
  /// dropped by TTL, LRU pressure, or Clear(). The fill is dropped if
  /// Stamp(tags) has moved from \p stamp: the payload was computed from
  /// data that an append (or a flush) has since invalidated.
  void Insert(const std::string& key, std::string payload,
              const std::vector<std::string>& tags, uint64_t stamp);

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
    std::vector<std::string> tags;
    Clock::time_point expires_at;
    bool expires = false;
  };

  /// Unlinks one entry from the LRU list, the key index, and the tag index.
  void EraseLocked(std::list<Entry>::iterator it);
  uint64_t StampLocked(const std::vector<std::string>& tags) const;

  Options options_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  /// tag -> keys carrying it (the reverse index InvalidateTag walks).
  std::unordered_map<std::string, std::set<std::string>> tag_index_;
  /// tag -> InvalidateTag calls so far (Stamp's per-tag part; Clear() is
  /// counted by stats_.flushes).
  std::unordered_map<std::string, uint64_t> tag_invalidations_;
  Stats stats_;
};

}  // namespace easytime::serve
