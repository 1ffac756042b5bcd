#include "serve/cache.h"

namespace easytime::serve {

void ResultCache::EraseLocked(std::list<Entry>::iterator it) {
  for (const auto& tag : it->tags) {
    auto t = tag_index_.find(tag);
    if (t == tag_index_.end()) continue;
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

uint64_t ResultCache::StampLocked(const std::vector<std::string>& tags) const {
  // Every counter only grows, so the sum moves iff one of them moved.
  uint64_t stamp = stats_.flushes;
  for (const auto& tag : tags) {
    auto t = tag_invalidations_.find(tag);
    if (t != tag_invalidations_.end()) stamp += t->second;
  }
  return stamp;
}

uint64_t ResultCache::Stamp(const std::vector<std::string>& tags) const {
  std::lock_guard<std::mutex> lock(mu_);
  return StampLocked(tags);
}

void ResultCache::Insert(const std::string& key, std::string payload,
                         const std::vector<std::string>& tags,
                         uint64_t stamp) {
  if (options_.capacity == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (StampLocked(tags) != stamp) return;  // stale: computed before a change
  auto it = index_.find(key);
  if (it != index_.end()) EraseLocked(it->second);
  Entry entry;
  entry.key = key;
  entry.payload = std::move(payload);
  entry.tags = tags;
  if (options_.ttl_seconds > 0.0) {
    entry.expires = true;
    entry.expires_at =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(options_.ttl_seconds));
  }
  lru_.push_front(std::move(entry));
  index_[key] = lru_.begin();
  for (const auto& tag : tags) tag_index_[tag].insert(key);
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
