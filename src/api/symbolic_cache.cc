#include "api/symbolic_cache.h"

#include <utility>

#include "support/error.h"

namespace parfact {

SymbolicCache::SymbolicCache(std::size_t max_entries)
    : max_entries_(max_entries) {
  PARFACT_CHECK(max_entries_ >= 1);
}

std::shared_ptr<const CachedAnalysis> SymbolicCache::lookup(
    const PatternKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it == map_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  it->second.last_used = ++tick_;
  return it->second.entry;
}

std::shared_ptr<const CachedAnalysis> SymbolicCache::insert(
    const PatternKey& key, std::shared_ptr<const CachedAnalysis> entry) {
  PARFACT_CHECK(entry != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = map_.try_emplace(key);
  it->second.last_used = ++tick_;
  if (!inserted) return it->second.entry;  // racing analyzer won; share it
  it->second.entry = std::move(entry);
  while (map_.size() > max_entries_) {
    // Linear LRU scan: capacities are small (dozens of patterns), and
    // eviction only happens on insert of a brand-new pattern.
    auto victim = map_.begin();
    for (auto v = map_.begin(); v != map_.end(); ++v) {
      if (v->second.last_used < victim->second.last_used) victim = v;
    }
    map_.erase(victim);
    ++evictions_;
  }
  return it->second.entry;
}

void SymbolicCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
}

std::size_t SymbolicCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

count_t SymbolicCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

count_t SymbolicCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

count_t SymbolicCache::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

}  // namespace parfact
