#include "graph/path_cache.hpp"

#include <algorithm>
#include <bit>

#include "fault/registry.hpp"
#include "graph/ksp.hpp"
#include "obs/registry.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"

namespace rwc::graph {

namespace {

/// Handles into the global registry (docs/OBSERVABILITY.md: cache.path.*).
struct CacheMetrics {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& invalidations;

  static CacheMetrics& instance() {
    static auto& registry = obs::Registry::global();
    static CacheMetrics metrics{
        registry.counter("cache.path.hits"),
        registry.counter("cache.path.misses"),
        registry.counter("cache.path.invalidations"),
    };
    return metrics;
  }
};

using util::mix64;

}  // namespace

PathCache::PathCache(std::size_t max_entries)
    : max_entries_(max_entries == 0 ? 1 : max_entries) {}

std::uint64_t PathCache::weight_fingerprint(const Graph& graph) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  hash = mix64(hash, graph.node_count());
  hash = mix64(hash, graph.edge_count());
  for (EdgeId id : graph.edge_ids()) {
    const Edge& edge = graph.edge(id);
    hash = mix64(hash, static_cast<std::uint64_t>(
                           static_cast<std::uint32_t>(edge.src.value)));
    hash = mix64(hash, static_cast<std::uint64_t>(
                           static_cast<std::uint32_t>(edge.dst.value)));
    hash = mix64(hash, std::bit_cast<std::uint64_t>(edge.weight));
  }
  return hash;
}

std::vector<Path> PathCache::k_shortest(const Graph& graph, NodeId source,
                                        NodeId target, std::size_t k) {
  auto& metrics = CacheMetrics::instance();
  const Key key{weight_fingerprint(graph), source.value, target.value, k};
  // Fault injection: drop the entry before lookup (forced recompute).
  // Results cannot change — entries ARE previous results — so this only
  // exercises the miss path mid-round. Keyed deterministically by query.
  const std::uint64_t fault_key =
      key.fingerprint ^ (static_cast<std::uint64_t>(
                             static_cast<std::uint32_t>(source.value))
                         << 32) ^
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(target.value)) ^
      (static_cast<std::uint64_t>(k) << 17);
  const bool forced_miss =
      static_cast<bool>(fault::at("cache.path.lookup", fault_key));
  {
    std::lock_guard lock(mutex_);
    if (forced_miss) {
      if (entries_.erase(key) > 0) {
        std::erase(insertion_order_, key);
        metrics.invalidations.add();
      }
    }
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      metrics.hits.add();
      return it->second.paths;
    }
  }
  metrics.misses.add();

  // Compute outside the lock: concurrent solvers only serialize on the map.
  Entry entry;
  entry.paths = k_shortest_paths(graph, source, target, k);
  for (const Path& path : entry.paths)
    entry.edges_used.insert(entry.edges_used.end(), path.edges.begin(),
                            path.edges.end());
  std::sort(entry.edges_used.begin(), entry.edges_used.end());
  entry.edges_used.erase(
      std::unique(entry.edges_used.begin(), entry.edges_used.end()),
      entry.edges_used.end());

  std::vector<Path> paths = entry.paths;
  {
    std::lock_guard lock(mutex_);
    // A concurrent miss may have stored the same key first; both computed
    // the same value (KSP is pure), so either insert winning is fine.
    const auto [it, inserted] = entries_.emplace(key, std::move(entry));
    (void)it;
    if (inserted) {
      insertion_order_.push_back(key);
      evict_to_capacity_locked();
    }
  }
  return paths;
}

void PathCache::note_topology_change() {
  std::lock_guard lock(mutex_);
  ++version_;
  CacheMetrics::instance().invalidations.add(entries_.size());
  entries_.clear();
  insertion_order_.clear();
}

void PathCache::note_capacity_change(std::uint64_t fingerprint, EdgeId edge) {
  RWC_EXPECTS(edge.valid());
  std::lock_guard lock(mutex_);
  std::size_t dropped = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->first.fingerprint == fingerprint &&
        std::binary_search(it->second.edges_used.begin(),
                           it->second.edges_used.end(), edge)) {
      std::erase(insertion_order_, it->first);
      it = entries_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  if (dropped > 0) CacheMetrics::instance().invalidations.add(dropped);
}

std::uint64_t PathCache::version() const {
  std::lock_guard lock(mutex_);
  return version_;
}

std::size_t PathCache::size() const {
  std::lock_guard lock(mutex_);
  return entries_.size();
}

std::vector<PathCache::ExportedEntry> PathCache::snapshot() const {
  std::lock_guard lock(mutex_);
  std::vector<ExportedEntry> out;
  out.reserve(insertion_order_.size());
  for (const Key& key : insertion_order_) {
    const auto it = entries_.find(key);
    if (it == entries_.end()) continue;
    out.push_back(ExportedEntry{key.fingerprint, key.source, key.target,
                                static_cast<std::uint64_t>(key.k),
                                it->second.paths});
  }
  return out;
}

void PathCache::restore(std::span<const ExportedEntry> entries) {
  std::lock_guard lock(mutex_);
  ++version_;
  entries_.clear();
  insertion_order_.clear();
  for (const ExportedEntry& exported : entries) {
    const Key key{exported.fingerprint, exported.source, exported.target,
                  static_cast<std::size_t>(exported.k)};
    Entry entry;
    entry.paths = exported.paths;
    for (const Path& path : entry.paths)
      entry.edges_used.insert(entry.edges_used.end(), path.edges.begin(),
                              path.edges.end());
    std::sort(entry.edges_used.begin(), entry.edges_used.end());
    entry.edges_used.erase(
        std::unique(entry.edges_used.begin(), entry.edges_used.end()),
        entry.edges_used.end());
    const auto [it, inserted] = entries_.insert_or_assign(key, std::move(entry));
    (void)it;
    if (inserted) insertion_order_.push_back(key);
    evict_to_capacity_locked();
  }
}

void PathCache::evict_to_capacity_locked() {
  while (entries_.size() > max_entries_ && !insertion_order_.empty()) {
    entries_.erase(insertion_order_.front());
    insertion_order_.pop_front();
  }
}

}  // namespace rwc::graph
