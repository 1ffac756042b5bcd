#pragma once

/// \file shard_map.h
/// \brief Consistent-hash placement for the sharded serving tier
/// (DESIGN.md §14). Each shard contributes `vnodes_per_shard` virtual
/// nodes to a 64-bit FNV-1a ring; a key routes to the first vnode at or
/// clockwise past its hash.
///
/// Two lookups with different contracts:
///  - Owner(key): the pure ring walk. Deterministic placement for data that
///    must always land on the same shard (a dataset's appends, its WAL, its
///    evaluation results). Load never moves an owner.
///  - Pick(key, load): bounded-load consistent hashing for fungible work
///    (forecasts over uploaded values, ask, job submits). The walk skips
///    shards whose outstanding load is at or above ceil(load_factor *
///    average), so a hot shard sheds overflow to its ring successors while
///    cold keys keep their affinity.

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace easytime::cluster {

/// 64-bit FNV-1a (stable across platforms and runs).
uint64_t Fnv1a64(std::string_view s);

/// \brief The ring hash: FNV-1a pushed through a 64-bit finalizer
/// (MurmurHash3's fmix64). Raw FNV-1a barely moves the high bits when only
/// a key's trailing characters differ — exactly the shape vnode labels
/// ("shard-0#17") and dataset families ("traffic_u0") have — which clumps
/// vnodes into arcs and starves shards. The finalizer restores avalanche
/// while keeping the hash deterministic.
uint64_t RingHash(std::string_view s);

/// \brief The ring. Not internally synchronized: build it during cluster
/// bring-up, then treat it as read-only (shard *processes* fail over, but
/// shard *identities* never leave the ring).
class ShardMap {
 public:
  struct Options {
    size_t vnodes_per_shard = 64;
    /// Bounded-load ceiling multiplier: a shard is overloaded when its load
    /// reaches ceil(load_factor * (total_load + 1) / num_shards).
    double load_factor = 1.25;
  };

  ShardMap() : ShardMap(Options()) {}
  explicit ShardMap(Options options) : options_(options) {}

  void AddShard(const std::string& id);
  void RemoveShard(const std::string& id);

  bool Contains(const std::string& id) const { return shards_.count(id) > 0; }
  size_t NumShards() const { return shards_.size(); }
  std::vector<std::string> ShardIds() const;

  /// Stable placement: the shard owning \p key. Fails only on an empty ring.
  easytime::Result<std::string> Owner(std::string_view key) const;

  /// \brief Bounded-load pick: walks the ring from hash(key), skipping
  /// shards whose entry in \p load is at/above the ceiling. Falls back to
  /// the plain owner when every shard is saturated (somebody must do the
  /// work; admission control sheds from there).
  easytime::Result<std::string> Pick(
      std::string_view key, const std::map<std::string, size_t>& load) const;

  const Options& options() const { return options_; }

 private:
  Options options_;
  std::map<uint64_t, std::string> ring_;  ///< vnode hash -> shard id
  std::set<std::string> shards_;
};

}  // namespace easytime::cluster
