#include "serve/result_cache.h"

#include <bit>
#include <utility>

#include "engine/query_contract.h"
#include "util/check.h"
#include "util/splitmix64.h"

namespace unn {
namespace serve {

namespace {

/// One SplitMix64 output: a cheap 64-bit hash with good avalanche.
uint64_t Mix(uint64_t x) { return util::SplitMix64(x)(); }

/// Coordinate canonicalization: the exact bit pattern with -0.0 folded
/// onto +0.0 (distances cannot tell them apart, so neither may the key).
uint64_t CanonicalCoord(double v) {
  if (v == 0.0) v = 0.0;  // Collapses -0.0.
  return std::bit_cast<uint64_t>(v);
}

/// The bytes an entry charges against the budget: the list node, the map
/// node (approximated) and the heap the result owns.
size_t EntryBytes(const Engine::QueryResult& r) {
  constexpr size_t kNodeOverhead = 128;  // list + map node, amortized.
  return kNodeOverhead +
         r.ranked.capacity() * sizeof(std::pair<int, double>) +
         r.ids.capacity() * sizeof(int);
}

uint32_t RoundUpPow2(uint32_t v) {
  uint32_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

size_t ResultCache::KeyHash::operator()(const CacheKey& k) const {
  uint64_t h = Mix(k.generation);
  h = Mix(h ^ (static_cast<uint64_t>(k.type) << 32) ^ k.param);
  h = Mix(h ^ k.qx);
  h = Mix(h ^ k.qy);
  return static_cast<size_t>(h);
}

ResultCache::ResultCache(const Options& options, obs::Registry* registry)
    : options_(options) {
  int shards = options_.num_shards < 1 ? 1 : options_.num_shards;
  if (shards > 256) shards = 256;
  uint32_t n = RoundUpPow2(static_cast<uint32_t>(shards));
  shard_mask_ = n - 1;
  per_shard_budget_ = options_.max_bytes / n;
  shards_ = std::make_unique<Shard[]>(n);
  if (registry == nullptr) {
    owned_registry_ = std::make_unique<obs::Registry>();
    registry = owned_registry_.get();
  }
  hits_ = registry->GetCounter("unn_cache_hits_total",
                               "Result-cache lookups answered from cache");
  misses_ = registry->GetCounter("unn_cache_misses_total",
                                 "Result-cache lookups that missed");
  insertions_ = registry->GetCounter("unn_cache_insertions_total",
                                     "New entries stored in the cache");
  evictions_ = registry->GetCounter(
      "unn_cache_evictions_total",
      "Entries evicted to respect the byte budget");
  entries_ = registry->GetGauge("unn_cache_entries",
                                "Currently resident cache entries");
  bytes_ = registry->GetGauge("unn_cache_bytes",
                              "Currently resident cache bytes (approx)");
}

CacheKey ResultCache::MakeKey(uint64_t generation,
                              const Engine::QuerySpec& spec, geom::Vec2 q) {
  UNN_DCHECK(query_contract::Classify(spec) ==
             query_contract::SpecClass::kRegular);
  CacheKey key;
  key.generation = generation;
  key.type = static_cast<uint32_t>(spec.type);
  // Zero the parameters the type ignores, so equivalent specs collide:
  // only Threshold reads tau, only TopK reads k.
  switch (spec.type) {
    case Engine::QueryType::kThreshold:
      key.param = std::bit_cast<uint64_t>(spec.tau);
      break;
    case Engine::QueryType::kTopK:
      key.param = static_cast<uint64_t>(spec.k);
      break;
    default:
      key.param = 0;
      break;
  }
  key.qx = CanonicalCoord(q.x);
  key.qy = CanonicalCoord(q.y);
  return key;
}

ResultCache::Shard& ResultCache::ShardFor(const CacheKey& key) {
  return shards_[KeyHash{}(key) & shard_mask_];
}

bool ResultCache::Lookup(const CacheKey& key, Engine::QueryResult* out) {
  if (disabled()) return false;  // Not a miss: there is no cache.
  Shard& shard = ShardFor(key);
  {
    MutexLock lock(&shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      *out = it->second->result;
      hits_->Inc();
      return true;
    }
  }
  misses_->Inc();
  return false;
}

void ResultCache::EvictToFit(Shard& shard, size_t budget) {
  while (shard.bytes > budget && !shard.lru.empty()) {
    Entry& victim = shard.lru.back();
    shard.bytes -= victim.bytes;
    bytes_->Add(-static_cast<double>(victim.bytes));
    entries_->Add(-1);
    evictions_->Inc();
    shard.map.erase(victim.key);
    shard.lru.pop_back();
  }
}

void ResultCache::Insert(const CacheKey& key,
                         const Engine::QueryResult& result) {
  if (disabled()) return;
  size_t bytes = EntryBytes(result);
  if (bytes > per_shard_budget_) return;  // Would evict the whole shard.
  Shard& shard = ShardFor(key);
  MutexLock lock(&shard.mu);
  auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    // Racing computes of the same key: refresh in place.
    Entry& e = *it->second;
    shard.bytes -= e.bytes;
    bytes_->Add(-static_cast<double>(e.bytes));
    e.result = result;
    e.bytes = bytes;
    shard.bytes += bytes;
    bytes_->Add(static_cast<double>(bytes));
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    EvictToFit(shard, per_shard_budget_);
    return;
  }
  shard.lru.push_front(Entry{key, result, bytes});
  shard.map.emplace(key, shard.lru.begin());
  shard.bytes += bytes;
  bytes_->Add(static_cast<double>(bytes));
  entries_->Add(1);
  insertions_->Inc();
  EvictToFit(shard, per_shard_budget_);
}

void ResultCache::Clear() {
  if (disabled()) return;
  for (uint32_t s = 0; s <= shard_mask_; ++s) {
    Shard& shard = shards_[s];
    MutexLock lock(&shard.mu);
    bytes_->Add(-static_cast<double>(shard.bytes));
    entries_->Add(-static_cast<double>(shard.map.size()));
    shard.map.clear();
    shard.lru.clear();
    shard.bytes = 0;
  }
}

CacheStats ResultCache::stats() const {
  CacheStats s;
  s.hits = hits_->Value();
  s.misses = misses_->Value();
  s.insertions = insertions_->Value();
  s.evictions = evictions_->Value();
  // Gauges hold doubles; entry/byte magnitudes stay far below 2^53, so
  // the round trip through double is exact.
  s.entries = static_cast<uint64_t>(entries_->Value());
  s.bytes = static_cast<uint64_t>(bytes_->Value());
  return s;
}

}  // namespace serve
}  // namespace unn
