#include "serve/cache.h"

namespace easytime::serve {

void ResultCache::EraseLocked(std::list<Entry>::iterator it) {
  auto t = tag_index_.find(it->dataset);
  if (t != tag_index_.end()) {
    t->second.erase(it->key);
    if (t->second.empty()) tag_index_.erase(t);
  }
  index_.erase(it->key);
  lru_.erase(it);
}

std::optional<std::string> ResultCache::Lookup(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  Entry& entry = *it->second;
  if (entry.expires && Clock::now() >= entry.expires_at) {
    EraseLocked(it->second);
    ++stats_.invalidations;
    ++stats_.misses;
    return std::nullopt;
  }
  // Refresh recency.
  lru_.splice(lru_.begin(), lru_, it->second);
  ++stats_.hits;
  return entry.payload;
}

void ResultCache::CountMiss() {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.misses;
}

uint64_t ResultCache::StampLocked(const std::string& dataset) const {
  // Both counters only grow, so the sum moves iff one of them moved.
  auto t = tag_invalidations_.find(dataset);
  return stats_.flushes + (t != tag_invalidations_.end() ? t->second : 0);
}

uint64_t ResultCache::Stamp(const std::string& dataset) const {
  std::lock_guard<std::mutex> lock(mu_);
  return StampLocked(dataset);
}

void ResultCache::Insert(const std::string& key, std::string payload,
                         const std::string& dataset, uint64_t stamp) {
  if (options_.capacity == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (StampLocked(dataset) != stamp) return;  // stale: computed before a change
  auto it = index_.find(key);
  if (it != index_.end()) EraseLocked(it->second);
  Entry entry;
  entry.key = key;
  entry.payload = std::move(payload);
  entry.dataset = dataset;
  if (options_.ttl_seconds > 0.0) {
    entry.expires = true;
    entry.expires_at =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(options_.ttl_seconds));
  }
  lru_.push_front(std::move(entry));
  index_[key] = lru_.begin();
  tag_index_[dataset].insert(key);
  ++stats_.insertions;
  while (lru_.size() > options_.capacity) {
    EraseLocked(std::prev(lru_.end()));
    ++stats_.evictions;
  }
}

size_t ResultCache::InvalidateTag(const std::string& tag) {
  std::lock_guard<std::mutex> lock(mu_);
  // Counted even when nothing is cached yet: a fill computed before this
  // call may still be on its way to Insert.
  ++tag_invalidations_[tag];
  auto t = tag_index_.find(tag);
  if (t == tag_index_.end()) return 0;
  // EraseLocked mutates the tag's key set; drain a copy.
  std::set<std::string> keys = std::move(t->second);
  tag_index_.erase(t);
  size_t dropped = 0;
  for (const auto& key : keys) {
    auto it = index_.find(key);
    if (it == index_.end()) continue;
    EraseLocked(it->second);
    ++dropped;
  }
  stats_.tag_invalidations += dropped;
  stats_.invalidations += dropped;
  return dropped;
}

void ResultCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
  tag_index_.clear();
  ++stats_.flushes;
}

ResultCache::Stats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats out = stats_;
  out.entries = lru_.size();
  return out;
}

size_t ResultCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

}  // namespace easytime::serve
