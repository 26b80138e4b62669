#include "runtime/plan_cache.hpp"

#include <algorithm>

namespace eds::runtime {

PlanCache::PlanCache(std::size_t capacity, std::size_t max_bytes)
    : capacity_(std::max<std::size_t>(capacity, 1)), max_bytes_(max_bytes) {}

std::shared_ptr<const ExecutionPlan> PlanCache::get(const port::PortGraph& g) {
  const std::lock_guard<std::mutex> lock(mutex_);

  if (const auto hit = index_.find(g.id()); hit != index_.end()) {
    lru_.splice(lru_.begin(), lru_, hit->second);  // touch: move to front
    ++stats_.hits;
    return hit->second->plan;
  }

  // Miss: compile under the lock, so concurrent get() calls on the same
  // graph build exactly one plan (the counters are load-bearing for tests;
  // serializing compilation is cheap next to the runs themselves).
  ++stats_.misses;
  auto plan = std::make_shared<const ExecutionPlan>(g);
  stats_.bytes += plan->memory_bytes();
  lru_.push_front({g.id(), std::move(plan)});
  index_.emplace(g.id(), lru_.begin());

  while (lru_.size() > capacity_ ||
         (stats_.bytes > max_bytes_ && lru_.size() > 1)) {
    const auto victim = std::prev(lru_.end());
    index_.erase(victim->graph_id);
    stats_.bytes -= victim->plan->memory_bytes();
    lru_.erase(victim);
    ++stats_.evictions;
  }

  stats_.size = lru_.size();
  return lru_.front().plan;
}

PlanCache::Stats PlanCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void PlanCache::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  lru_.clear();
  index_.clear();
  stats_.size = 0;
  stats_.bytes = 0;
}

}  // namespace eds::runtime
