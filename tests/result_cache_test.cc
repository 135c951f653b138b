#include "serve/result_cache.h"

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "serve/server_stats.h"

namespace unn {
namespace {

using geom::Vec2;
using serve::CacheKey;
using serve::CacheStats;
using serve::ResultCache;

Engine::QuerySpec TopK(int k) {
  Engine::QuerySpec s;
  s.type = Engine::QueryType::kTopK;
  s.k = k;
  return s;
}

Engine::QuerySpec Threshold(double tau) {
  Engine::QuerySpec s;
  s.type = Engine::QueryType::kThreshold;
  s.tau = tau;
  return s;
}

Engine::QueryResult MakeResult(int nn, size_t ranked, size_t ids) {
  Engine::QueryResult r;
  r.nn = nn;
  for (size_t i = 0; i < ranked; ++i) {
    r.ranked.push_back({static_cast<int>(i), 1.0 / (i + 1.0)});
  }
  for (size_t i = 0; i < ids; ++i) r.ids.push_back(static_cast<int>(i));
  return r;
}

// ---------------------------------------------------------------------------
// Key canonicalization
// ---------------------------------------------------------------------------

TEST(CacheKey, IgnoredSpecParametersAreZeroed) {
  // TopK reads only k: the tau it rode in with must not split entries.
  Engine::QuerySpec a = TopK(3);
  Engine::QuerySpec b = TopK(3);
  a.tau = 0.2;
  b.tau = 0.9;
  Vec2 q{1.5, -2.5};
  EXPECT_EQ(ResultCache::MakeKey(1, a, q), ResultCache::MakeKey(1, b, q));
  EXPECT_NE(ResultCache::MakeKey(1, TopK(3), q),
            ResultCache::MakeKey(1, TopK(4), q));

  // Threshold reads only tau.
  Engine::QuerySpec c = Threshold(0.25);
  Engine::QuerySpec d = Threshold(0.25);
  c.k = 1;
  d.k = 99;
  EXPECT_EQ(ResultCache::MakeKey(1, c, q), ResultCache::MakeKey(1, d, q));
  EXPECT_NE(ResultCache::MakeKey(1, Threshold(0.25), q),
            ResultCache::MakeKey(1, Threshold(0.75), q));

  // MostProbableNn reads neither.
  Engine::QuerySpec e, f;
  e.tau = 0.1;
  e.k = 7;
  f.tau = 0.8;
  f.k = 2;
  EXPECT_EQ(ResultCache::MakeKey(1, e, q), ResultCache::MakeKey(1, f, q));
}

TEST(CacheKey, GenerationAndTypeSeparateEntries) {
  Vec2 q{0.0, 0.0};
  EXPECT_NE(ResultCache::MakeKey(1, TopK(3), q),
            ResultCache::MakeKey(2, TopK(3), q));
  Engine::QuerySpec mp;  // kMostProbableNn
  Engine::QuerySpec nz;
  nz.type = Engine::QueryType::kNonzeroNn;
  EXPECT_NE(ResultCache::MakeKey(1, mp, q), ResultCache::MakeKey(1, nz, q));
}

TEST(CacheKey, NegativeZeroFoldsOntoPositiveZero) {
  Engine::QuerySpec spec;
  EXPECT_EQ(ResultCache::MakeKey(1, spec, Vec2{-0.0, 0.0}),
            ResultCache::MakeKey(1, spec, Vec2{0.0, -0.0}));
  // But genuinely different coordinates stay distinct, however close:
  // keys are the exact coordinate bits, so a hit is never another
  // point's answer.
  EXPECT_NE(ResultCache::MakeKey(1, spec, Vec2{0.0, 0.0}),
            ResultCache::MakeKey(1, spec, Vec2{1e-300, 0.0}));
  EXPECT_NE(ResultCache::MakeKey(1, spec, Vec2{1.01, -2.05}),
            ResultCache::MakeKey(1, spec, Vec2{0.99, -1.98}));
}

// ---------------------------------------------------------------------------
// Lookup / Insert / eviction
// ---------------------------------------------------------------------------

TEST(ResultCache, RoundTripAndCounters) {
  ResultCache cache(ResultCache::Options{});
  Engine::QuerySpec spec = TopK(2);
  CacheKey key = ResultCache::MakeKey(1, spec, Vec2{3.0, 4.0});

  Engine::QueryResult out;
  EXPECT_FALSE(cache.Lookup(key, &out));

  Engine::QueryResult stored = MakeResult(7, 2, 3);
  cache.Insert(key, stored);
  ASSERT_TRUE(cache.Lookup(key, &out));
  EXPECT_EQ(out.nn, stored.nn);
  EXPECT_EQ(out.ranked, stored.ranked);
  EXPECT_EQ(out.ids, stored.ids);

  CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.insertions, 1u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_GT(s.bytes, 0u);
}

TEST(ResultCache, ReinsertRefreshesValue) {
  ResultCache cache(ResultCache::Options{});
  CacheKey key = ResultCache::MakeKey(1, TopK(2), Vec2{0.0, 0.0});
  cache.Insert(key, MakeResult(1, 1, 0));
  cache.Insert(key, MakeResult(2, 4, 0));
  Engine::QueryResult out;
  ASSERT_TRUE(cache.Lookup(key, &out));
  EXPECT_EQ(out.nn, 2);
  EXPECT_EQ(out.ranked.size(), 4u);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(ResultCache, EvictsLeastRecentlyUsedUnderByteBudget) {
  // One shard so LRU order is global; a budget of a few entries.
  ResultCache::Options options;
  options.max_bytes = 1024;
  options.num_shards = 1;
  ResultCache cache(options);
  Engine::QuerySpec spec = TopK(2);

  const int kInserts = 64;
  for (int i = 0; i < kInserts; ++i) {
    cache.Insert(
        ResultCache::MakeKey(1, spec, Vec2{static_cast<double>(i), 0.0}),
        MakeResult(i, 2, 0));
  }
  CacheStats s = cache.stats();
  EXPECT_GT(s.evictions, 0u);
  EXPECT_LE(s.bytes, 1024u);
  EXPECT_LT(s.entries, static_cast<uint64_t>(kInserts));

  // The most recent insert survived; the oldest was evicted.
  Engine::QueryResult out;
  EXPECT_TRUE(cache.Lookup(
      ResultCache::MakeKey(1, spec,
                           Vec2{static_cast<double>(kInserts - 1), 0.0}),
      &out));
  EXPECT_FALSE(
      cache.Lookup(ResultCache::MakeKey(1, spec, Vec2{0.0, 0.0}), &out));
}

TEST(ResultCache, LookupRefreshesLruPosition) {
  ResultCache::Options options;
  options.max_bytes = 1024;
  options.num_shards = 1;
  ResultCache cache(options);
  Engine::QuerySpec spec = TopK(2);
  CacheKey hot = ResultCache::MakeKey(1, spec, Vec2{-1.0, -1.0});
  cache.Insert(hot, MakeResult(42, 2, 0));

  // Keep touching `hot` while flooding; it must survive the churn.
  Engine::QueryResult out;
  for (int i = 0; i < 64; ++i) {
    cache.Insert(
        ResultCache::MakeKey(1, spec, Vec2{static_cast<double>(i), 0.0}),
        MakeResult(i, 2, 0));
    ASSERT_TRUE(cache.Lookup(hot, &out)) << "flood " << i;
  }
  EXPECT_EQ(out.nn, 42);
}

TEST(ResultCache, StaleGenerationsAgeOutWithoutASweep) {
  ResultCache::Options options;
  options.max_bytes = 1024;
  options.num_shards = 1;
  ResultCache cache(options);
  Engine::QuerySpec spec = TopK(2);
  Vec2 q{5.0, 5.0};
  cache.Insert(ResultCache::MakeKey(1, spec, q), MakeResult(1, 2, 0));

  // A "snapshot swap": generation 2 keys never match generation 1
  // entries, and the flood under the budget evicts the stale one.
  Engine::QueryResult out;
  EXPECT_FALSE(cache.Lookup(ResultCache::MakeKey(2, spec, q), &out));
  for (int i = 0; i < 64; ++i) {
    cache.Insert(
        ResultCache::MakeKey(2, spec, Vec2{static_cast<double>(i), 0.0}),
        MakeResult(i, 2, 0));
  }
  EXPECT_FALSE(cache.Lookup(ResultCache::MakeKey(1, spec, q), &out));
}

TEST(ResultCache, DisabledCacheNeverStoresAndNeverCounts) {
  ResultCache::Options options;
  options.max_bytes = 0;
  ResultCache cache(options);
  EXPECT_TRUE(cache.disabled());
  CacheKey key = ResultCache::MakeKey(1, TopK(2), Vec2{0.0, 0.0});
  cache.Insert(key, MakeResult(1, 1, 1));
  Engine::QueryResult out;
  EXPECT_FALSE(cache.Lookup(key, &out));
  CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 0u);
  EXPECT_EQ(s.insertions, 0u);
}

TEST(ResultCache, OversizedEntryIsNotStored) {
  ResultCache::Options options;
  options.max_bytes = 256;
  options.num_shards = 1;
  ResultCache cache(options);
  CacheKey key = ResultCache::MakeKey(1, TopK(2), Vec2{0.0, 0.0});
  cache.Insert(key, MakeResult(1, 10000, 10000));
  Engine::QueryResult out;
  EXPECT_FALSE(cache.Lookup(key, &out));
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ResultCache, ClearDropsEverything) {
  ResultCache cache(ResultCache::Options{});
  Engine::QuerySpec spec = TopK(2);
  for (int i = 0; i < 16; ++i) {
    cache.Insert(
        ResultCache::MakeKey(1, spec, Vec2{static_cast<double>(i), 0.0}),
        MakeResult(i, 2, 0));
  }
  cache.Clear();
  CacheStats s = cache.stats();
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.bytes, 0u);
  Engine::QueryResult out;
  EXPECT_FALSE(
      cache.Lookup(ResultCache::MakeKey(1, spec, Vec2{0.0, 0.0}), &out));
}

// Concurrency smoke for the TSan job: racing inserts, lookups, clears and
// generation churn on a tiny budget keep every invariant intact.
TEST(ResultCache, ConcurrentChurnIsSafe) {
  ResultCache::Options options;
  options.max_bytes = 4096;
  options.num_shards = 4;
  ResultCache cache(options);
  Engine::QuerySpec spec = TopK(2);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> generation{1};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Engine::QueryResult out;
      for (int i = 0; i < 500; ++i) {
        uint64_t gen = generation.load(std::memory_order_relaxed);
        Vec2 q{static_cast<double>((t * 131 + i) % 37), 1.0};
        CacheKey key = ResultCache::MakeKey(gen, spec, q);
        if (cache.Lookup(key, &out)) {
          EXPECT_GE(out.nn, 0);
        } else {
          cache.Insert(key, MakeResult(i, 2, 1));
        }
        if (i % 100 == 99) generation.fetch_add(1);
        if (t == 0 && i % 250 == 249) cache.Clear();
      }
      stop.store(true);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_TRUE(stop.load());
  EXPECT_LE(cache.stats().bytes, 4096u);
}

// The latency-histogram tests that used to live here moved to
// tests/obs_test.cc with the histogram itself (serve::LatencyHistogram
// became obs::Histogram).

}  // namespace
}  // namespace unn
