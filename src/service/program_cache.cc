#include "service/program_cache.h"

namespace exdl {

CompiledProgram::Ptr ProgramCache::Lookup(std::string_view key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_key_.find(key);
  if (it == by_key_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->second;
}

void ProgramCache::Insert(std::string key, CompiledProgram::Ptr value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (capacity_ == 0) {
    ++evictions_;
    return;
  }
  auto it = by_key_.find(key);
  if (it != by_key_.end()) {
    it->second->second = std::move(value);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(std::move(key), std::move(value));
  by_key_[lru_.front().first] = lru_.begin();
  while (lru_.size() > capacity_) {
    by_key_.erase(std::string_view(lru_.back().first));
    lru_.pop_back();
    ++evictions_;
  }
}

ProgramCache::Stats ProgramCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.size = lru_.size();
  s.capacity = capacity_;
  return s;
}

void ProgramCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  by_key_.clear();
}

}  // namespace exdl
