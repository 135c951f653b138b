#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <future>
#include <limits>
#include <mutex>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "engine/query_contract.h"
#include "serve/parallel.h"
#include "serve/query_server.h"
#include "serve/thread_pool.h"
#include "serve_requests.h"
#include "workload/generators.h"

namespace unn {
namespace {

using core::UncertainPoint;
using geom::Vec2;

std::vector<Vec2> GridQueries(int count) {
  std::vector<Vec2> qs;
  for (int i = 0; i < count; ++i) {
    qs.push_back({-10.0 + 20.0 * i / count, 7.0 - 14.0 * i / count});
  }
  return qs;
}

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPool, PostRunsEveryTask) {
  serve::ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::atomic<int> ran{0};
  std::promise<void> all_done;
  const int kTasks = 100;
  for (int i = 0; i < kTasks; ++i) {
    pool.Post([&] {
      if (ran.fetch_add(1) + 1 == kTasks) all_done.set_value();
    });
  }
  all_done.get_future().wait();
  EXPECT_EQ(ran.load(), kTasks);
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> ran{0};
  {
    serve::ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Post([&] { ran.fetch_add(1); });
    }
  }  // Join must run every queued task first.
  EXPECT_EQ(ran.load(), 50);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  for (int threads : {1, 3, 8}) {
    serve::ThreadPool pool(threads);
    for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{1000}}) {
      std::vector<std::atomic<int>> hits(n);
      pool.ParallelFor(n, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
      });
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "i=" << i << " threads=" << threads;
      }
    }
  }
}

TEST(ThreadPool, ParallelForNestedInsideTaskCompletes) {
  serve::ThreadPool pool(2);
  std::atomic<int> sum{0};
  std::promise<void> done;
  pool.Post([&] {
    pool.ParallelFor(64, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) sum.fetch_add(static_cast<int>(i));
    });
    done.set_value();
  });
  done.get_future().wait();
  EXPECT_EQ(sum.load(), 64 * 63 / 2);
}

// The caller often claims both blocks before the one helper it posts is
// started; that helper must not stay queued, or the next RunOrPost finds
// no free worker.
TEST(ThreadPool, ParallelForLeavesNothingQueued) {
  serve::ThreadPool pool(2);
  for (int it = 0; it < 1000; ++it) {
    std::atomic<int> blocks{0};
    // 16 indices round to two blocks of 8 (one helper posted).
    pool.ParallelFor(16, [&](size_t, size_t) { blocks.fetch_add(1); });
    ASSERT_EQ(blocks.load(), 2);
    ASSERT_EQ(pool.queue_depth(), 0) << "it=" << it;
  }
}

// ---------------------------------------------------------------------------
// serve::QueryMany — parallel answers identical to the serial seam, in
// order, for every query type.
// ---------------------------------------------------------------------------

/// The one-shard set QueryServer serves a single Engine as.
serve::ShardedEngine OneShard(const std::vector<UncertainPoint>& pts) {
  return serve::ShardedEngine(std::make_shared<const Engine>(pts));
}

TEST(ServeQueryMany, MatchesSerialForEveryTypeAndThreadCount) {
  auto pts = workload::RandomDiscrete(18, 3, 91);
  Engine engine(pts, {});
  serve::ShardedEngine one_shard = OneShard(pts);
  auto qs = GridQueries(57);  // Not a multiple of any block count.

  const std::vector<Engine::QuerySpec> specs = {
      {Engine::QueryType::kMostProbableNn, 0.5, 1},
      {Engine::QueryType::kExpectedDistanceNn, 0.5, 1},
      {Engine::QueryType::kThreshold, 0.3, 1},
      {Engine::QueryType::kTopK, 0.5, 3},
      {Engine::QueryType::kNonzeroNn, 0.5, 1},
  };
  for (const auto& spec : specs) {
    auto serial = engine.QueryMany(qs, spec);
    for (int threads : {1, 2, 8}) {
      serve::ThreadPool pool(threads);
      auto parallel = serve::QueryMany(one_shard, qs, spec, &pool);
      ASSERT_EQ(parallel.size(), serial.size());
      for (size_t i = 0; i < qs.size(); ++i) {
        EXPECT_EQ(parallel[i].nn, serial[i].nn);
        EXPECT_EQ(parallel[i].ranked, serial[i].ranked);
        EXPECT_EQ(parallel[i].ids, serial[i].ids);
      }
    }
  }
}

// serve::QueryMany sorts the pack into Morton order, splits the sorted
// copy across the pool and scatters the results back. A shuffled pack
// with duplicates, NaN/inf coordinates, |q| = 1e300 and a ragged length
// must still put every query's own pack-of-one answer in its slot, on one
// Engine and on two shards, for every type and pool size.
TEST(ServeQueryMany, ShuffledPackScattersBackToEveryQuery) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::nan("");
  auto pts = workload::RandomDiscrete(40, 3, 93);
  Engine engine(pts, {});
  serve::ShardedEngine one_shard = OneShard(pts);
  serve::ShardedEngine sharded(pts, {}, {2, serve::Partitioning::kSpatial});
  std::mt19937_64 rng(94);
  std::uniform_real_distribution<double> u(-12, 12);
  std::vector<Vec2> qs;
  for (int i = 0; i < 253; ++i) qs.push_back({u(rng), u(rng)});
  for (int i = 0; i < 40; ++i) qs.push_back(qs[5 * i]);  // Duplicates.
  for (Vec2 q : {Vec2{nan, 1}, Vec2{2, nan}, Vec2{inf, 0}, Vec2{0, -inf},
                 Vec2{nan, inf}, Vec2{1e300, 1e300}, Vec2{-1e300, 3},
                 Vec2{5, 1e300}}) {
    qs.push_back(q);
  }
  std::shuffle(qs.begin(), qs.end(), rng);
  ASSERT_EQ(qs.size(), 301u);  // Not a multiple of 8 or of a block count.

  const std::vector<Engine::QuerySpec> specs = {
      {Engine::QueryType::kMostProbableNn, 0.5, 1},
      {Engine::QueryType::kExpectedDistanceNn, 0.5, 1},
      {Engine::QueryType::kThreshold, 0.3, 1},
      {Engine::QueryType::kTopK, 0.5, 3},
      {Engine::QueryType::kNonzeroNn, 0.5, 1},
  };
  for (const auto& spec : specs) {
    std::vector<Engine::QueryResult> alone;
    for (Vec2 q : qs) alone.push_back(engine.QueryMany({&q, 1}, spec)[0]);
    for (int threads : {1, 2, 8}) {
      serve::ThreadPool pool(threads);
      auto one = serve::QueryMany(one_shard, qs, spec, &pool);
      auto two = serve::QueryMany(sharded, qs, spec, &pool);
      ASSERT_EQ(one.size(), qs.size());
      ASSERT_EQ(two.size(), qs.size());
      for (size_t i = 0; i < qs.size(); ++i) {
        SCOPED_TRACE(testing::Message()
                     << "type " << static_cast<int>(spec.type) << ", "
                     << threads << " threads, q = (" << qs[i].x << ", "
                     << qs[i].y << ")");
        EXPECT_EQ(one[i].nn, alone[i].nn);
        EXPECT_EQ(one[i].ranked, alone[i].ranked);
        EXPECT_EQ(one[i].ids, alone[i].ids);
        EXPECT_EQ(two[i].nn, alone[i].nn);
        EXPECT_EQ(two[i].ranked, alone[i].ranked);
        EXPECT_EQ(two[i].ids, alone[i].ids);
      }
    }
  }
}

TEST(ServeQueryMany, EmptyBatchAndDegenerateSpecs) {
  auto pts = workload::RandomDiscrete(10, 2, 92);
  serve::ShardedEngine engine = OneShard(pts);
  serve::ThreadPool pool(2);

  auto empty = serve::QueryMany(engine, {}, {}, &pool);
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(engine.StructuresBuilt(), 0);

  auto qs = GridQueries(5);
  Engine::QuerySpec topk0{Engine::QueryType::kTopK, 0.5, 0};
  for (const auto& r : serve::QueryMany(engine, qs, topk0, &pool)) {
    EXPECT_TRUE(r.ranked.empty());
  }
  EXPECT_EQ(engine.StructuresBuilt(), 0);
}

// ---------------------------------------------------------------------------
// QueryServer
// ---------------------------------------------------------------------------

TEST(QueryServer, SubmitMatchesDirectQuery) {
  auto pts = workload::RandomDiscrete(15, 3, 93);
  Engine::Config cfg;
  serve::QueryServer server(pts, cfg, {.num_threads = 4, .warm = {}});
  Engine oracle(pts, cfg);

  auto qs = GridQueries(20);
  std::vector<std::future<serve::Response>> futures;
  for (Vec2 q : qs) {
    futures.push_back(server.Submit({q, {Engine::QueryType::kMostProbableNn}}));
  }
  for (size_t i = 0; i < qs.size(); ++i) {
    EXPECT_EQ(futures[i].get().result.nn, oracle.MostProbableNn(qs[i]));
  }
  EXPECT_EQ(server.stats().queries, qs.size());
}

TEST(QueryServer, QueryBatchMatchesSerialEngine) {
  auto pts = workload::RandomDisks(12, 94);
  Engine::Config cfg;  // kAuto -> the Theorem 3.1 NN!=0 index on disks.
  serve::QueryServer server(pts, cfg, {.num_threads = 3, .warm = {}});
  Engine oracle(pts, cfg);

  auto qs = GridQueries(33);
  auto results =
      server.QueryBatch(Requests(qs, {Engine::QueryType::kNonzeroNn}));
  ASSERT_EQ(results.size(), qs.size());
  for (size_t i = 0; i < qs.size(); ++i) {
    EXPECT_EQ(results[i].result.ids, oracle.NonzeroNn(qs[i]));
  }
  EXPECT_EQ(server.stats().batches, 1u);
}

TEST(QueryServer, WarmOptionPrebuildsSnapshot) {
  auto pts = workload::RandomDiscrete(12, 3, 95);
  serve::QueryServer server(
      pts, {},
      {.num_threads = 2,
       .warm = {Engine::QueryType::kMostProbableNn,
                Engine::QueryType::kNonzeroNn}});
  int built = server.snapshot()->StructuresBuilt();
  EXPECT_GE(built, 1);
  // Serving warmed types builds nothing further.
  auto qs = GridQueries(8);
  server.QueryBatch(Requests(qs, {Engine::QueryType::kMostProbableNn}));
  server.QueryBatch(Requests(qs, {Engine::QueryType::kNonzeroNn}));
  EXPECT_EQ(server.snapshot()->StructuresBuilt(), built);
}

TEST(QueryServer, ReplaceDatasetSwapsSnapshotAndKeepsOldAlive) {
  auto pts_a = workload::RandomDiscrete(10, 2, 96);
  auto pts_b = workload::RandomDiscrete(14, 3, 97);
  serve::QueryServer server(pts_a, {}, {.num_threads = 2, .warm = {}});

  std::shared_ptr<const Engine> old_snapshot = server.snapshot();
  EXPECT_EQ(old_snapshot->size(), 10);

  server.ReplaceDataset(pts_b);
  EXPECT_EQ(server.snapshot()->size(), 14);
  EXPECT_EQ(server.stats().swaps, 1u);

  // The pinned old snapshot still answers against the old dataset.
  EXPECT_EQ(old_snapshot->size(), 10);
  Engine oracle_a(pts_a, {});
  Vec2 q{1, 2};
  EXPECT_EQ(old_snapshot->MostProbableNn(q), oracle_a.MostProbableNn(q));

  // New queries see the new dataset.
  Engine oracle_b(pts_b, {});
  auto r = server.Submit({q, {Engine::QueryType::kMostProbableNn}}).get();
  EXPECT_EQ(r.result.nn, oracle_b.MostProbableNn(q));
}

// ---------------------------------------------------------------------------
// QueryServer: Request/Response API, result cache, QoS
// ---------------------------------------------------------------------------

TEST(ThreadPool, StrictPriorityOrdersDispatch) {
  serve::ThreadPool pool(1);
  // Park the single worker so posted tasks queue up, then release and
  // watch the dispatch order: every high before every normal before
  // every low, FIFO within a class.
  std::atomic<bool> release{false};
  std::promise<void> parked;
  pool.Post([&] {
    parked.set_value();
    while (!release.load()) std::this_thread::yield();
  });
  parked.get_future().get();

  std::mutex mu;
  std::vector<int> order;
  std::promise<void> done;
  auto record = [&](int tag) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(tag);
    if (order.size() == 6) done.set_value();
  };
  pool.Post([&] { record(20); }, serve::TaskPriority::kLow);
  pool.Post([&] { record(10); }, serve::TaskPriority::kNormal);
  pool.Post([&] { record(0); }, serve::TaskPriority::kHigh);
  pool.Post([&] { record(21); }, serve::TaskPriority::kLow);
  pool.Post([&] { record(1); }, serve::TaskPriority::kHigh);
  pool.Post([&] { record(11); }, serve::TaskPriority::kNormal);
  release.store(true);
  done.get_future().get();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 10, 11, 20, 21}));
}

// Waits until a worker of `pool` is free (parked with nothing queued),
// the state in which QueryServer::Submit answers on the submitting
// thread: until then RunOrPost queues the no-op, which a worker runs.
// False if the pool never got there.
bool WaitForIdleWorker(serve::ThreadPool& pool) {
  for (int tries = 0; tries < 100000; ++tries) {
    if (pool.RunOrPost([] {})) return true;
    std::this_thread::yield();
  }
  return false;
}

// RunOrPost runs its task on the caller in place of a free worker
// (parked, nothing queued, not lent to another caller) and lends that
// worker to the run: tasks posted meanwhile queue, the lent worker takes
// none of them until the run returns, and then they drain in strict
// priority order. On a stopping pool the task runs on the caller.
TEST(ThreadPool, RunOrPostBorrowsAFreeWorkerUntilItsRunReturns) {
  serve::ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  ASSERT_TRUE(WaitForIdleWorker(pool));
  // The worker stays parked with nothing queued, so the next call runs
  // on the caller too.
  std::thread::id ran_on;
  EXPECT_TRUE(pool.RunOrPost([&] { ran_on = std::this_thread::get_id(); }));
  EXPECT_EQ(ran_on, caller);

  // Another thread borrows the parked worker and holds it.
  std::atomic<bool> inside{false};
  std::atomic<bool> release{false};
  bool borrowed = false;
  std::thread borrower([&] {
    borrowed = pool.RunOrPost([&] {
      inside.store(true);
      while (!release.load()) std::this_thread::yield();
    });
  });
  while (!inside.load()) std::this_thread::yield();
  std::mutex mu;
  std::vector<int> order;
  std::promise<void> done;
  auto record = [&](int tag) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(tag);
    if (order.size() == 6) done.set_value();
  };
  const std::pair<int, serve::TaskPriority> tasks[] = {
      {20, serve::TaskPriority::kLow},   {10, serve::TaskPriority::kNormal},
      {0, serve::TaskPriority::kHigh},   {21, serve::TaskPriority::kLow},
      {1, serve::TaskPriority::kHigh},   {11, serve::TaskPriority::kNormal}};
  for (const auto& [tag, priority] : tasks) {
    EXPECT_FALSE(pool.RunOrPost([&record, tag = tag] { record(tag); },
                                priority));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_TRUE(order.empty());  // The parked worker is lent.
  }
  release.store(true);
  borrower.join();
  EXPECT_TRUE(borrowed);
  done.get_future().get();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 10, 11, 20, 21}));

  std::atomic<bool> release_again{false};
  std::promise<void> parked;
  pool.Post([&] {
    parked.set_value();
    while (!release_again.load()) std::this_thread::yield();
  });
  parked.get_future().get();
  pool.BeginShutdown();
  std::thread::id late_on;
  EXPECT_TRUE(pool.RunOrPost([&] { late_on = std::this_thread::get_id(); }));
  EXPECT_EQ(late_on, caller);
  release_again.store(true);
}

// Many callers at once on a 1-worker pool: callers' runs and the
// worker's tasks never overlap, because a caller runs only in place of
// the one worker and the worker takes no task while it is lent.
TEST(ThreadPool, RunOrPostKeepsConcurrencyWithinTheWorkerCount) {
  serve::ThreadPool pool(1);
  constexpr int kCallers = 4;
  constexpr int kCalls = 100;
  std::atomic<int> running{0};
  std::atomic<int> peak{0};
  std::atomic<int> finished{0};
  std::atomic<int> here{0};
  std::atomic<bool> go{false};
  auto body = [&] {
    const int now = running.fetch_add(1) + 1;
    int seen = peak.load();
    while (now > seen && !peak.compare_exchange_weak(seen, now)) {
    }
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::microseconds(50);
    while (std::chrono::steady_clock::now() < until) {
    }
    running.fetch_sub(1);
    finished.fetch_add(1);
  };
  // With the worker parked before the callers start, the first call
  // runs on its caller.
  ASSERT_TRUE(WaitForIdleWorker(pool));
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < kCalls; ++i) {
        if (pool.RunOrPost(body)) here.fetch_add(1);
      }
    });
  }
  go.store(true);
  for (auto& t : callers) t.join();
  while (finished.load() < kCallers * kCalls) std::this_thread::yield();
  EXPECT_EQ(peak.load(), 1);
  EXPECT_GT(here.load(), 0);
}

TEST(QueryServer, RequestSubmitReportsComputedSource) {
  auto pts = workload::RandomDiscrete(15, 3, 93);
  serve::QueryServer server(pts, {}, {.num_threads = 2, .warm = {}});
  Engine oracle(pts, {});

  serve::Request req;
  req.q = {1.0, -2.0};
  serve::Response resp = server.Submit(req).get();
  EXPECT_EQ(resp.source, serve::ResultSource::kComputed);
  EXPECT_TRUE(resp.ok());
  EXPECT_EQ(resp.result.nn, oracle.MostProbableNn(req.q));
  EXPECT_GE(resp.latency.count(), 0);
  EXPECT_EQ(server.stats().queries, 1u);
}

TEST(QueryServer, CacheHitIsBitIdenticalAndLabeled) {
  auto pts = workload::RandomDiscrete(15, 3, 93);
  serve::QueryServer::Options options;
  options.num_threads = 2;
  options.warm = {Engine::QueryType::kTopK};
  options.cache.max_bytes = 1u << 20;
  serve::QueryServer server(pts, {}, options);

  serve::Request req;
  req.q = {0.5, 0.5};
  req.spec = {Engine::QueryType::kTopK, 0.5, 3};
  serve::Response first = server.Submit(req).get();
  EXPECT_EQ(first.source, serve::ResultSource::kComputed);
  serve::Response second = server.Submit(req).get();
  EXPECT_EQ(second.source, serve::ResultSource::kCache);
  // Bit-identical: every field equal, not merely close.
  EXPECT_EQ(second.result.nn, first.result.nn);
  EXPECT_EQ(second.result.ranked, first.result.ranked);
  EXPECT_EQ(second.result.ids, first.result.ids);

  // A TopK spec that differs only in its (ignored) tau is the same key.
  serve::Request same_key = req;
  same_key.spec.tau = 0.123;
  EXPECT_EQ(server.Submit(same_key).get().source,
            serve::ResultSource::kCache);

  auto s = server.stats();
  EXPECT_EQ(s.cache.hits, 2u);
  EXPECT_EQ(s.cache.misses, 1u);
  EXPECT_EQ(s.cache.insertions, 1u);
}

TEST(QueryServer, ReplaceDatasetBumpsGenerationAndInvalidates) {
  auto pts_a = workload::RandomDiscrete(10, 2, 96);
  auto pts_b = workload::RandomDiscrete(14, 3, 97);
  serve::QueryServer::Options options;
  options.num_threads = 2;
  options.cache.max_bytes = 1u << 20;
  serve::QueryServer server(pts_a, {}, options);
  EXPECT_EQ(server.generation(), 1u);

  serve::Request req;
  req.q = {1.0, 2.0};
  EXPECT_EQ(server.Submit(req).get().source,
            serve::ResultSource::kComputed);
  EXPECT_EQ(server.Submit(req).get().source, serve::ResultSource::kCache);

  server.ReplaceDataset(pts_b);
  EXPECT_EQ(server.generation(), 2u);
  // The old entry is unreachable under the new generation: the same
  // request recomputes, against the new dataset.
  serve::Response after = server.Submit(req).get();
  EXPECT_EQ(after.source, serve::ResultSource::kComputed);
  Engine oracle_b(pts_b, {});
  EXPECT_EQ(after.result.nn, oracle_b.MostProbableNn(req.q));
}

// Serving-time input ShardedEngine cannot build is refused, not aborted
// on: the snapshot, the generation and the replacement sharding stay.
TEST(QueryServer, ReplaceDatasetRefusesEmptyAndExternalInput) {
  auto pts_a = workload::RandomDiscrete(10, 2, 96);
  auto pts_b = workload::RandomDiscrete(14, 3, 97);
  serve::QueryServer::Options options;
  options.num_threads = 2;
  options.sharding = {2, serve::Partitioning::kSpatial};
  serve::QueryServer server(pts_a, {}, options);
  std::shared_ptr<const serve::ShardedEngine> before =
      server.sharded_snapshot();

  EXPECT_FALSE(server.ReplaceDataset({}));
  EXPECT_FALSE(
      server.ReplaceDataset({}, {3, serve::Partitioning::kRoundRobin}));
  EXPECT_FALSE(
      server.ReplaceDataset(pts_b, {3, serve::Partitioning::kExternal}));
  // A NaN or infinite centre, site or radius anywhere in the set: no
  // query could be answered from it, and a NaN centre breaks the spatial
  // partitioner's ordering.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (UncertainPoint bad :
       {UncertainPoint::Disk({nan, 0.0}, 1.0),
        UncertainPoint::Disk({inf, 0.0}, 1.0),
        UncertainPoint::Disk({0.0, -inf}, 1.0),
        UncertainPoint::Disk({0.0, 0.0}, inf),
        UncertainPoint::DiscreteUniform({{0.0, 0.0}, {nan, 0.0}}),
        UncertainPoint::DiscreteUniform({{inf, 0.0}, {1.0, 1.0}})}) {
    std::vector<UncertainPoint> pts_bad = pts_b;
    pts_bad[7] = bad;
    EXPECT_FALSE(server.ReplaceDataset(pts_bad));
    EXPECT_FALSE(
        server.ReplaceDataset(pts_bad, {3, serve::Partitioning::kRoundRobin}));
  }
  EXPECT_EQ(server.sharded_snapshot(), before);
  EXPECT_EQ(server.generation(), 1u);
  EXPECT_EQ(server.stats().swaps, 0u);

  // Queries still answer from the old snapshot.
  Engine oracle_a(pts_a, {});
  for (Vec2 q : GridQueries(6)) {
    serve::Response r = server.Submit({q, {}}).get();
    EXPECT_EQ(r.source, serve::ResultSource::kComputed);
    EXPECT_EQ(r.result.nn, oracle_a.MostProbableNn(q));
  }

  // The refused resharding did not stick: a plain replacement builds the
  // constructor's two spatial shards.
  EXPECT_TRUE(server.ReplaceDataset(pts_b));
  EXPECT_EQ(server.generation(), 2u);
  EXPECT_EQ(server.sharded_snapshot()->num_shards(), 2);
  EXPECT_EQ(server.sharded_snapshot()->options().partitioning,
            serve::Partitioning::kSpatial);

  // kExternal named at construction is refused at the first replacement.
  serve::QueryServer assembled(
      std::make_shared<const Engine>(pts_a, Engine::Config{}),
      {.num_threads = 1, .sharding = {2, serve::Partitioning::kExternal}});
  EXPECT_FALSE(assembled.ReplaceDataset(pts_b));
  EXPECT_EQ(assembled.generation(), 1u);
  EXPECT_EQ(assembled.snapshot()->size(), 10);
}

// The dataset constructors take no bad input either: the six supports
// ReplaceDataset refuses abort every Engine and shard-set build, before
// the spatial partitioner could sort a NaN centre.
TEST(QueryServerDeathTest, DatasetConstructorsRefuseNonFiniteSupports) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  auto pts = workload::RandomDiscrete(14, 3, 97);
  serve::QueryServer::Options options;
  options.num_threads = 1;
  options.sharding = {2, serve::Partitioning::kSpatial};
  for (UncertainPoint bad :
       {UncertainPoint::Disk({nan, 0.0}, 1.0),
        UncertainPoint::Disk({inf, 0.0}, 1.0),
        UncertainPoint::Disk({0.0, -inf}, 1.0),
        UncertainPoint::Disk({0.0, 0.0}, inf),
        UncertainPoint::DiscreteUniform({{0.0, 0.0}, {nan, 0.0}}),
        UncertainPoint::DiscreteUniform({{inf, 0.0}, {1.0, 1.0}})}) {
    EXPECT_FALSE(bad.finite());
    std::vector<UncertainPoint> pts_bad = pts;
    pts_bad[7] = bad;
    EXPECT_DEATH(Engine(pts_bad, {}), "finite");
    EXPECT_DEATH(serve::ShardedEngine(pts_bad, {}, options.sharding), "finite");
    EXPECT_DEATH(serve::QueryServer(pts_bad, {}, options), "finite");
  }
}

/// Parks every pool worker behind a gate so the admission-control tests
/// can hold the server at a known in-flight level deterministically.
class PoolGate {
 public:
  PoolGate(serve::ThreadPool& pool, int workers) {
    for (int i = 0; i < workers; ++i) {
      pool.Post([this] {
        gated_.fetch_add(1);
        while (!release_.load()) std::this_thread::yield();
      });
    }
    while (gated_.load() < workers) std::this_thread::yield();
  }
  void Release() { release_.store(true); }

 private:
  std::atomic<int> gated_{0};
  std::atomic<bool> release_{false};
};

TEST(QueryServer, ExpiredDeadlineIsRefusedWithoutComputing) {
  auto pts = workload::RandomDiscrete(12, 2, 95);
  serve::QueryServer server(pts, {}, {.num_threads = 2, .warm = {}});

  serve::Request dead;
  dead.q = {0.0, 0.0};
  dead.deadline = std::chrono::steady_clock::now() -
                  std::chrono::milliseconds(1);
  serve::Response resp = server.Submit(dead).get();
  EXPECT_EQ(resp.source, serve::ResultSource::kDeadlineExceeded);
  EXPECT_FALSE(resp.ok());
  EXPECT_EQ(resp.result.nn, -1);

  serve::Request alive = dead;
  alive.deadline = serve::DeadlineAfter(std::chrono::hours(1));
  EXPECT_EQ(server.Submit(alive).get().source,
            serve::ResultSource::kComputed);

  auto s = server.stats();
  EXPECT_EQ(s.deadline_exceeded, 1u);
  EXPECT_EQ(s.queries, 2u);
  // Refusals never enter the latency histograms.
  EXPECT_EQ(s.latency(Engine::QueryType::kMostProbableNn).count, 1u);

  // Deadline check two: a request that ages out queued behind busy
  // workers is dropped instead of computed. (Were admission itself late,
  // check one would answer the same.)
  PoolGate gate(server.pool(), 2);
  serve::Request queued = alive;
  queued.deadline = serve::DeadlineAfter(std::chrono::milliseconds(100));
  std::future<serve::Response> aged = server.Submit(queued);
  std::this_thread::sleep_until(queued.deadline);
  gate.Release();
  EXPECT_EQ(aged.get().source, serve::ResultSource::kDeadlineExceeded);
  s = server.stats();
  EXPECT_EQ(s.deadline_exceeded, 2u);
  EXPECT_EQ(s.latency(Engine::QueryType::kMostProbableNn).count, 1u);
}

TEST(QueryServer, AdmissionControlShedsPastInflightLimit) {
  auto pts = workload::RandomDiscrete(12, 2, 95);
  serve::QueryServer::Options options;
  options.num_threads = 1;
  options.warm = {Engine::QueryType::kMostProbableNn};
  options.max_inflight = 1;
  serve::QueryServer server(pts, {}, options);

  PoolGate gate(server.pool(), 1);
  serve::Request req;
  req.q = {0.5, -0.5};
  // Occupies the one in-flight slot (queued behind the gate).
  std::future<serve::Response> admitted = server.Submit(req);
  // At the limit: these are refused on the submitting thread.
  for (int i = 0; i < 3; ++i) {
    serve::Response shed = server.Submit(req).get();
    EXPECT_EQ(shed.source, serve::ResultSource::kShed);
    EXPECT_FALSE(shed.ok());
  }
  gate.Release();
  EXPECT_EQ(admitted.get().source, serve::ResultSource::kComputed);
  auto s = server.stats();
  EXPECT_EQ(s.shed, 3u);
  EXPECT_EQ(s.queries, 4u);
}

// A Submit that finds a worker idle and nothing queued is computed on the
// submitting thread: its future is ready when Submit returns, the answer
// is the Engine's, the span tree keeps its (~0) queue span, and
// unn_server_submit_inline_total counts it. A Submit queued behind busy
// workers runs on a worker and is not counted.
TEST(QueryServer, SubmitOnIdlePoolIsAnsweredOnTheCaller) {
  auto pts = workload::RandomDiscrete(40, 3, 101);
  serve::QueryServer server(pts, {}, {.num_threads = 2, .warm = {}});
  Engine oracle(pts, {});
  ASSERT_TRUE(WaitForIdleWorker(server.pool()));

  const auto qs = GridQueries(6);
  const Engine::QuerySpec specs[] = {{Engine::QueryType::kMostProbableNn},
                                     {Engine::QueryType::kTopK, 0.5, 3}};
  int submitted = 0;
  for (Vec2 q : qs) {
    for (const Engine::QuerySpec& spec : specs) {
      obs::TraceContext ctx;
      serve::Request req{q, spec};
      req.trace = &ctx;
      std::future<serve::Response> fut = server.Submit(req);
      ++submitted;
      ASSERT_EQ(fut.wait_for(std::chrono::seconds(0)),
                std::future_status::ready);
      serve::Response resp = fut.get();
      EXPECT_EQ(resp.source, serve::ResultSource::kComputed);
      const std::vector<Engine::QueryResult> want =
          oracle.QueryMany(std::span<const Vec2>(&q, 1), spec);
      EXPECT_EQ(resp.result.nn, want[0].nn);
      EXPECT_EQ(resp.result.ranked, want[0].ranked);
      std::vector<std::string> names;
      for (const obs::Span& span : ctx.spans()) names.push_back(span.name);
      for (const char* name : {"request", "admission", "queue",
                               "engine_query"}) {
        EXPECT_NE(std::find(names.begin(), names.end(), name), names.end())
            << name;
      }
    }
  }
  EXPECT_NE(server.DumpMetrics().find("unn_server_submit_inline_total " +
                                      std::to_string(submitted)),
            std::string::npos);

  serve::QueryServer gated(pts, {}, {.num_threads = 2, .warm = {}});
  PoolGate gate(gated.pool(), 2);
  std::future<serve::Response> queued = gated.Submit({qs[0], specs[0]});
  EXPECT_EQ(queued.wait_for(std::chrono::milliseconds(20)),
            std::future_status::timeout);
  gate.Release();
  EXPECT_EQ(queued.get().result.nn, oracle.MostProbableNn(qs[0]));
  EXPECT_NE(gated.DumpMetrics().find("unn_server_submit_inline_total 0"),
            std::string::npos);
}

// Concurrent Submit clients on a 1-worker server: whether a request is
// answered on its caller (borrowing the worker) or queued, at most one
// computes at any time, every answer is the Engine's, and the inline
// counter counts only the caller-side ones. Each request's engine_query
// span is mapped to steady_clock time conservatively (the context's
// epoch lies between the two clock reads around its construction), so
// the mapped intervals of compute stages that ran one after another
// never overlap.
TEST(QueryServer, ConcurrentSubmitsComputeOneAtATimeOnOneWorker) {
  auto pts = workload::RandomDiscrete(60, 3, 103);
  serve::QueryServer server(pts, {}, {.num_threads = 1, .warm = {}});
  Engine oracle(pts, {});
  const auto qs = GridQueries(40);
  const Engine::QuerySpec spec{Engine::QueryType::kTopK, 0.3, 4};
  constexpr int kClients = 4;
  struct Interval {
    std::int64_t begin_ns;
    std::int64_t end_ns;
  };
  std::vector<std::vector<Interval>> computed(kClients);
  std::atomic<int> wrong{0};
  std::atomic<bool> go{false};
  ASSERT_TRUE(WaitForIdleWorker(server.pool()));
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      while (!go.load()) std::this_thread::yield();
      for (size_t i = 0; i < qs.size(); ++i) {
        const Vec2 q = qs[(i + 7 * c) % qs.size()];
        const auto before = std::chrono::steady_clock::now();
        obs::TraceContext ctx;
        const auto after = std::chrono::steady_clock::now();
        serve::Request req{q, spec};
        req.trace = &ctx;
        const serve::Response resp = server.Submit(req).get();
        const std::vector<Engine::QueryResult> want =
            oracle.QueryMany(std::span<const Vec2>(&q, 1), spec);
        if (resp.source != serve::ResultSource::kComputed ||
            resp.result.ranked != want[0].ranked) {
          wrong.fetch_add(1);
        }
        for (const obs::Span& span : ctx.spans()) {
          if (std::string(span.name) != "engine_query") continue;
          auto ns = [](std::chrono::steady_clock::time_point t) {
            return std::chrono::duration_cast<std::chrono::nanoseconds>(
                       t.time_since_epoch())
                .count();
          };
          computed[c].push_back(
              {ns(after) + span.start_ns, ns(before) + span.end_ns});
        }
      }
    });
  }
  go.store(true);
  for (auto& t : clients) t.join();
  EXPECT_EQ(wrong.load(), 0);

  std::vector<Interval> all;
  for (const auto& v : computed) all.insert(all.end(), v.begin(), v.end());
  ASSERT_EQ(all.size(), kClients * qs.size());
  std::sort(all.begin(), all.end(), [](const Interval& a, const Interval& b) {
    return a.begin_ns < b.begin_ns;
  });
  int overlaps = 0;
  std::int64_t last_end = std::numeric_limits<std::int64_t>::min();
  for (const Interval& iv : all) {
    if (iv.begin_ns >= iv.end_ns) continue;  // Shorter than the bracket.
    if (iv.begin_ns < last_end) ++overlaps;
    last_end = std::max(last_end, iv.end_ns);
  }
  EXPECT_EQ(overlaps, 0);

  const std::string dump = server.DumpMetrics();
  const std::string key = "\nunn_server_submit_inline_total ";
  const size_t at = dump.find(key);
  ASSERT_NE(at, std::string::npos);
  const long long inline_count = std::stoll(dump.substr(at + key.size()));
  EXPECT_GT(inline_count, 0);
  EXPECT_LE(inline_count, static_cast<long long>(all.size()));
}

// Batch-level admission: at the in-flight limit a batch sheds every
// regular miss, while cache hits, degenerate specs and expired deadlines
// in the same batch keep their own sources.
TEST(QueryServer, AdmissionControlShedsBatchMissesPastInflightLimit) {
  auto pts = workload::RandomDiscrete(12, 2, 95);
  serve::QueryServer::Options options;
  options.num_threads = 1;
  options.warm = {Engine::QueryType::kMostProbableNn};
  options.max_inflight = 1;
  options.cache.max_bytes = 1u << 20;
  serve::QueryServer server(pts, {}, options);

  const Vec2 cached_q{1.0, -1.0};
  serve::Response first = server.Submit({cached_q, {}}).get();
  ASSERT_EQ(first.source, serve::ResultSource::kComputed);

  PoolGate gate(server.pool(), 1);
  // Occupies the one in-flight slot (queued behind the gate).
  std::future<serve::Response> admitted = server.Submit({{0.5, -0.5}, {}});

  serve::Request dead{{0.0, 0.0}, {}};
  dead.deadline = std::chrono::steady_clock::now() -
                  std::chrono::milliseconds(1);
  const std::vector<serve::Request> batch = {
      {cached_q, {}},                                         // Cache hit.
      {{2.0, 3.0}, {}},                                       // Regular miss.
      {{2.0, 3.0}, {Engine::QueryType::kThreshold, 1.5, 1}},  // Degenerate.
      {{-3.0, 0.5}, {Engine::QueryType::kTopK, 0.5, 2}},      // Regular miss.
      dead,
      {{-3.0, 0.5}, {Engine::QueryType::kTopK, 0.5, 0}},  // Degenerate.
  };
  std::vector<serve::Response> got = server.QueryBatch(batch);
  ASSERT_EQ(got.size(), batch.size());
  EXPECT_EQ(got[0].source, serve::ResultSource::kCache);
  EXPECT_EQ(got[0].result.nn, first.result.nn);
  for (size_t i : {1u, 3u}) {
    EXPECT_EQ(got[i].source, serve::ResultSource::kShed) << "i=" << i;
    EXPECT_FALSE(got[i].ok());
    EXPECT_EQ(got[i].result.nn, -1);
    EXPECT_TRUE(got[i].result.ranked.empty());
  }
  for (size_t i : {2u, 5u}) {
    EXPECT_EQ(got[i].source, serve::ResultSource::kComputed) << "i=" << i;
    EXPECT_TRUE(got[i].ok());
    EXPECT_TRUE(got[i].result.ranked.empty());
  }
  EXPECT_EQ(got[4].source, serve::ResultSource::kDeadlineExceeded);

  serve::ServerStats s = server.stats();
  EXPECT_EQ(s.shed, 2u);
  EXPECT_EQ(s.deadline_exceeded, 1u);
  EXPECT_EQ(s.cache.insertions, 1u);  // Only the first Submit's answer.
  gate.Release();
  EXPECT_EQ(admitted.get().source, serve::ResultSource::kComputed);
  EXPECT_EQ(server.stats().shed, 2u);
}

TEST(QueryServer, DegenerateSpecsBypassCacheAndAdmission) {
  auto pts = workload::RandomDiscrete(12, 2, 95);
  serve::QueryServer::Options options;
  options.num_threads = 1;
  options.max_inflight = 1;
  options.cache.max_bytes = 1u << 20;
  serve::QueryServer server(pts, {}, options);

  PoolGate gate(server.pool(), 1);
  serve::Request req;
  req.q = {0.0, 0.0};
  std::future<serve::Response> admitted = server.Submit(req);

  // tau > 1 is definition-level empty: it must be answered (never shed)
  // even at the in-flight limit, and never cached.
  serve::Request degenerate;
  degenerate.q = {0.0, 0.0};
  degenerate.spec = {Engine::QueryType::kThreshold, 1.5, 1};
  std::future<serve::Response> trivial = server.Submit(degenerate);
  gate.Release();
  serve::Response resp = trivial.get();
  EXPECT_EQ(resp.source, serve::ResultSource::kComputed);
  EXPECT_TRUE(resp.result.ranked.empty());
  admitted.get();

  auto s = server.stats();
  EXPECT_EQ(s.shed, 0u);
  EXPECT_EQ(s.cache.insertions, 1u);  // The regular request; not tau=1.5.
}

// Pack-grouping property: a server fed mixed-spec batches, a second
// server fed the same request stream one request per QueryBatch call and a
// third fed it one Submit at a time must produce the same Responses —
// order, values, ResultSource labels — and the same counters except
// `batches`, on mixed-SpecClass batches with degenerate specs, duplicate
// requests, and cache-hit interleavings on the second pass. The one
// designed difference: a duplicate inside a batch misses the cache probe
// (probing precedes computing), while fed alone it hits the entry its
// first occurrence inserted. The body runs on one discrete Engine, and on
// two spatial disk shards, where a Submit's pack of one fans out across the
// shards while a batch splits its packs across queries.
TEST(QueryServer, PackGroupingMatchesOneRequestBatches) {
  auto check = [](const std::vector<UncertainPoint>& pts,
                  const Engine::Config& config,
                  const serve::ShardingOptions& sharding) {
    serve::QueryServer::Options options;
    options.num_threads = 3;
    options.cache.max_bytes = 1u << 20;
    options.sharding = sharding;
    serve::QueryServer packed(pts, config, options);
    serve::QueryServer alone(pts, config, options);
    serve::QueryServer submitted(pts, config, options);
    ASSERT_EQ(packed.sharded_snapshot()->num_shards(), sharding.num_shards);

    auto qs = GridQueries(9);
    std::vector<serve::Request> reqs;
    for (size_t i = 0; i < qs.size(); ++i) {
      Vec2 q = qs[i];
      reqs.push_back({q, {Engine::QueryType::kExpectedDistanceNn, 0.5, 1}});
      if (i % 2 == 0) {
        reqs.push_back({q, {Engine::QueryType::kMostProbableNn, 0.5, 1}});
      }
      if (i % 3 == 0) {
        // Degenerate spec interleaved mid-batch: answered
        // definition-level, never grouped into a backend pack, never
        // cached.
        reqs.push_back({q, {Engine::QueryType::kThreshold, 1.5, 1}});
      }
      if (i % 4 == 1) {
        // Duplicate of an earlier request in the same batch.
        reqs.push_back(
            {qs[0], {Engine::QueryType::kExpectedDistanceNn, 0.5, 1}});
      }
    }
    auto is_duplicate = [&](size_t i) {
      for (size_t j = 0; j < i; ++j) {
        if (reqs[j].q == reqs[i].q && reqs[j].spec == reqs[i].spec) {
          return query_contract::Classify(reqs[i].spec) ==
                 query_contract::SpecClass::kRegular;
        }
      }
      return false;
    };
    uint64_t duplicates = 0;
    // Pass 0 computes everything; pass 1 interleaves cache hits with the
    // degenerate computes.
    for (int pass = 0; pass < 2; ++pass) {
      auto got = packed.QueryBatch(reqs);
      ASSERT_EQ(got.size(), reqs.size());
      for (size_t i = 0; i < reqs.size(); ++i) {
        std::span<const serve::Request> single(&reqs[i], 1);
        auto want = alone.QueryBatch(single);
        ASSERT_EQ(want.size(), 1u);
        serve::Response one = submitted.Submit(reqs[i]).get();
        EXPECT_EQ(one.source, want[0].source) << "pass=" << pass << " i=" << i;
        EXPECT_EQ(one.result.nn, want[0].result.nn);
        EXPECT_EQ(one.result.ranked, want[0].result.ranked);
        EXPECT_EQ(one.result.ids, want[0].result.ids);
        serve::ResultSource source = got[i].source;
        if (pass == 0 && is_duplicate(i)) {
          EXPECT_EQ(source, serve::ResultSource::kComputed) << "i=" << i;
          source = serve::ResultSource::kCache;
          ++duplicates;
        }
        EXPECT_EQ(source, want[0].source) << "pass=" << pass << " i=" << i;
        EXPECT_EQ(got[i].result.nn, want[0].result.nn);
        EXPECT_EQ(got[i].result.ranked, want[0].result.ranked);
        EXPECT_EQ(got[i].result.ids, want[0].result.ids);
      }
    }
    EXPECT_GT(duplicates, 0u);
    auto ps = packed.stats();
    auto as = alone.stats();
    auto ss = submitted.stats();
    EXPECT_EQ(ps.batches, 2u);
    EXPECT_EQ(as.batches, 2 * reqs.size());
    EXPECT_EQ(ss.batches, 0u);
    for (const serve::ServerStats* s : {&ps, &ss}) {
      // The submitted server's cache traffic is the one-request batches'
      // exactly; the packed server's differs by the in-batch duplicates.
      const uint64_t dup = s == &ps ? duplicates : 0;
      EXPECT_EQ(s->queries, as.queries);
      EXPECT_EQ(s->swaps, as.swaps);
      EXPECT_EQ(s->shed, as.shed);
      EXPECT_EQ(s->deadline_exceeded, as.deadline_exceeded);
      EXPECT_EQ(s->cache.hits + dup, as.cache.hits);
      EXPECT_EQ(s->cache.misses, as.cache.misses + dup);
      EXPECT_EQ(s->cache.insertions, as.cache.insertions);
      EXPECT_EQ(s->cache.evictions, as.cache.evictions);
      EXPECT_EQ(s->cache.entries, as.cache.entries);
      EXPECT_EQ(s->cache.bytes, as.cache.bytes);
      for (int t = 0; t < serve::kNumQueryTypes; ++t) {
        EXPECT_EQ(s->queries_by_type[t], as.queries_by_type[t]) << "type " << t;
        EXPECT_EQ(s->latency_by_type[t].count, as.latency_by_type[t].count)
            << "type " << t;
      }
    }
  };
  check(workload::RandomDiscrete(20, 3, 101), {}, {});
  Engine::Config disks;
  disks.mc_samples_override = 64;
  check(workload::RandomDisks(20, 102), disks,
        {2, serve::Partitioning::kSpatial});
}

TEST(QueryServer, RequestBatchMixedSpecsMatchOracle) {
  auto pts = workload::RandomDiscrete(18, 3, 99);
  serve::QueryServer server(pts, {}, {.num_threads = 3, .warm = {}});
  Engine oracle(pts, {});

  auto qs = GridQueries(5);
  std::vector<serve::Request> reqs;
  for (Vec2 q : qs) {
    reqs.push_back({q, {Engine::QueryType::kMostProbableNn, 0.5, 1}});
    reqs.push_back({q, {Engine::QueryType::kTopK, 0.5, 2}});
    reqs.push_back({q, {Engine::QueryType::kNonzeroNn, 0.5, 1}});
    reqs.push_back({q, {Engine::QueryType::kTopK, 0.5, 0}});  // Degenerate.
  }
  auto responses = server.QueryBatch(reqs);
  ASSERT_EQ(responses.size(), reqs.size());
  for (size_t i = 0; i < qs.size(); ++i) {
    const Vec2 q = qs[i];
    EXPECT_EQ(responses[4 * i].result.nn, oracle.MostProbableNn(q));
    EXPECT_EQ(responses[4 * i + 1].result.ranked, oracle.TopK(q, 2));
    EXPECT_EQ(responses[4 * i + 2].result.ids, oracle.NonzeroNn(q));
    EXPECT_TRUE(responses[4 * i + 3].result.ranked.empty());
    for (int j = 0; j < 4; ++j) {
      EXPECT_EQ(responses[4 * i + j].source,
                serve::ResultSource::kComputed);
    }
  }
  auto s = server.stats();
  EXPECT_EQ(s.batches, 1u);
  EXPECT_EQ(s.queries, reqs.size());
  EXPECT_EQ(s.queries_by_type[static_cast<int>(Engine::QueryType::kTopK)],
            2 * qs.size());
}

TEST(QueryServer, RequestBatchServesRepeatsFromCache) {
  auto pts = workload::RandomDiscrete(15, 3, 93);
  serve::QueryServer::Options options;
  options.num_threads = 2;
  options.warm = {Engine::QueryType::kMostProbableNn};
  options.cache.max_bytes = 1u << 20;
  serve::QueryServer server(pts, {}, options);

  auto qs = GridQueries(12);
  std::vector<serve::Request> reqs;
  for (Vec2 q : qs) reqs.push_back({q, {}});
  auto first = server.QueryBatch(reqs);
  auto second = server.QueryBatch(reqs);
  ASSERT_EQ(second.size(), first.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].source, serve::ResultSource::kComputed);
    EXPECT_EQ(second[i].source, serve::ResultSource::kCache);
    EXPECT_EQ(second[i].result.nn, first[i].result.nn);
  }
  EXPECT_EQ(server.stats().cache.hits, qs.size());
}

// ---------------------------------------------------------------------------
// QueryServer: observability (DumpMetrics, tracing, slow-query log)
// ---------------------------------------------------------------------------

TEST(QueryServer, DumpMetricsEmitsPrometheusCatalog) {
  auto pts = workload::RandomDiscrete(15, 3, 93);
  serve::QueryServer::Options options;
  options.num_threads = 2;
  options.warm = {Engine::QueryType::kMostProbableNn};
  options.cache.max_bytes = 1u << 20;
  serve::QueryServer server(pts, {}, options);

  auto qs = GridQueries(6);
  std::vector<serve::Request> reqs;
  for (Vec2 q : qs) reqs.push_back({q, {}});
  server.QueryBatch(reqs);
  server.QueryBatch(reqs);  // All repeats: cache hits.
  server.Submit({qs[0], {Engine::QueryType::kNonzeroNn}}).get();

  std::string text = server.DumpMetrics();
  // Counters: totals, per-type splits, cache and QoS counts.
  EXPECT_NE(text.find("# TYPE unn_server_queries_total counter"),
            std::string::npos);
  EXPECT_NE(
      text.find("unn_server_queries_by_type_total{type=\"most_probable_nn\"}"),
      std::string::npos);
  EXPECT_NE(text.find("unn_server_queries_by_type_total{type=\"nonzero_nn\"}"),
            std::string::npos);
  EXPECT_NE(text.find("unn_cache_hits_total"), std::string::npos);
  EXPECT_NE(text.find("unn_cache_misses_total"), std::string::npos);
  EXPECT_NE(text.find("unn_server_shed_total"), std::string::npos);
  EXPECT_NE(text.find("unn_server_deadline_exceeded_total"),
            std::string::npos);
  // Latency histograms with cumulative buckets, plus percentile gauges.
  EXPECT_NE(text.find("# TYPE unn_server_latency_us histogram"),
            std::string::npos);
  EXPECT_NE(text.find("unn_server_latency_us_bucket{type=\"most_probable_nn\""),
            std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
  EXPECT_NE(text.find("unn_server_latency_p50_us"), std::string::npos);
  EXPECT_NE(text.find("unn_server_latency_p99_us"), std::string::npos);
  // Point-in-time gauges resolved at dump time.
  EXPECT_NE(text.find("unn_pool_queue_depth"), std::string::npos);
  EXPECT_NE(text.find("unn_pool_threads 2"), std::string::npos);
  EXPECT_NE(text.find("unn_server_inflight"), std::string::npos);
  EXPECT_NE(text.find("unn_server_generation"), std::string::npos);
  EXPECT_NE(text.find("unn_cache_hit_ratio"), std::string::npos);

  // Values agree with the legacy stats() view.
  serve::ServerStats s = server.stats();
  EXPECT_NE(text.find("unn_server_queries_total " +
                      std::to_string(s.queries)),
            std::string::npos);
  EXPECT_NE(text.find("unn_cache_hits_total " + std::to_string(s.cache.hits)),
            std::string::npos);

  // The JSON exporter serves the same snapshot.
  std::string json = server.DumpMetrics(obs::MetricsFormat::kJson);
  EXPECT_NE(json.find("\"name\": \"unn_server_queries_total\""),
            std::string::npos);
}

// Two spatial shards far apart: a Submit deep inside one of them has
// candidates on that shard only, so the plan skips the other shard and
// answers inline, with no pool task, for every query type.
TEST(QueryServer, PlanCountersSeeSubmitsDeepInOneShardAnsweredInline) {
  std::vector<UncertainPoint> pts;
  for (int side : {-1, 1}) {
    for (const UncertainPoint& p : workload::RandomDisks(20, 94 + side)) {
      pts.push_back(UncertainPoint::Disk(p.center() + Vec2{side * 500.0, 0},
                                         p.radius()));
    }
  }
  Engine::Config cfg;
  cfg.mc_samples_override = 32;
  serve::QueryServer::Options options;
  options.num_threads = 2;
  options.sharding = {2, serve::Partitioning::kSpatial};
  serve::QueryServer server(pts, cfg, options);
  ASSERT_EQ(server.sharded_snapshot()->num_shards(), 2);

  const Engine::QuerySpec specs[] = {
      {Engine::QueryType::kMostProbableNn},
      {Engine::QueryType::kExpectedDistanceNn},
      {Engine::QueryType::kThreshold, 0.2},
      {Engine::QueryType::kTopK, 0.5, 3},
      {Engine::QueryType::kNonzeroNn}};
  std::uint64_t requests = 0;
  for (int i = 0; i < 10; ++i) {
    for (const Engine::QuerySpec& spec : specs) {
      server.Submit({pts[i].center(), spec}).get();
      ++requests;
    }
  }
  const serve::ShardedEngine::PlanStats plan =
      server.sharded_snapshot()->plan_stats();
  EXPECT_EQ(plan.inline_queries, requests);
  EXPECT_EQ(plan.shards_run, requests);
  EXPECT_EQ(plan.shards_skipped, requests);
  const std::string text = server.DumpMetrics();
  EXPECT_NE(text.find("unn_shard_plan_inline_queries " +
                      std::to_string(requests)),
            std::string::npos);
  EXPECT_NE(text.find("unn_shard_plan_shards_skipped " +
                      std::to_string(requests)),
            std::string::npos);
}

TEST(QueryServer, ExternalTraceContextRecordsSpanTree) {
  auto pts = workload::RandomDiscrete(20, 3, 98);
  serve::QueryServer::Options options;
  options.num_threads = 2;
  options.cache.max_bytes = 1u << 20;  // cache_lookup spans need a cache.
  serve::QueryServer server(pts, {}, options);

  obs::TraceContext ctx;
  serve::Request req;
  req.q = {0.5, -1.5};
  req.trace = &ctx;
  serve::Response resp = server.Submit(req).get();
  EXPECT_TRUE(resp.ok());

  std::vector<obs::Span> spans = ctx.spans();
  ASSERT_FALSE(spans.empty());
  auto has = [&spans](const char* name) {
    for (const obs::Span& s : spans) {
      if (std::string(s.name) == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("request"));
  EXPECT_TRUE(has("admission"));
  EXPECT_TRUE(has("cache_lookup"));
  EXPECT_TRUE(has("queue"));
  EXPECT_TRUE(has("engine_query"));
  EXPECT_TRUE(has("cache_insert"));
  // The root span is closed once the response is delivered.
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_GE(spans[0].end_ns, 0);
}

TEST(QueryServer, SlowQueryLogIsBoundedAndCarriesSpans) {
  auto pts = workload::RandomDiscrete(200, 3, 99);
  serve::QueryServer::Options options;
  options.num_threads = 2;
  options.warm = {Engine::QueryType::kMostProbableNn};
  options.slow_query_threshold = std::chrono::microseconds(1);
  options.slow_query_log_size = 4;
  serve::QueryServer server(pts, {}, options);

  EXPECT_TRUE(server.SlowQueries().empty());
  auto qs = GridQueries(12);
  for (Vec2 q : qs) {
    server.Submit({q, {Engine::QueryType::kMostProbableNn}}).get();
  }

  std::vector<serve::QueryServer::SlowQuery> slow = server.SlowQueries();
  ASSERT_FALSE(slow.empty());
  EXPECT_LE(slow.size(), 4u);  // Ring keeps only the most recent entries.
  for (const auto& sq : slow) {
    EXPECT_GE(sq.latency, options.slow_query_threshold);
    ASSERT_FALSE(sq.spans.empty());
    EXPECT_EQ(std::string(sq.spans[0].name), "request");
    // The captured tree renders (slow-query dump format).
    std::string rendered = obs::RenderSpanTree(sq.spans);
    EXPECT_NE(rendered.find("request"), std::string::npos);
  }

  // A slow batch logs one entry whose tree hangs admission, compute and
  // cache insertion off a `batch` root.
  server.QueryBatch(Requests(qs, {Engine::QueryType::kMostProbableNn}));
  const serve::QueryServer::SlowQuery batch = server.SlowQueries().back();
  EXPECT_EQ(batch.batch_size, static_cast<int>(qs.size()));
  ASSERT_FALSE(batch.spans.empty());
  EXPECT_EQ(std::string(batch.spans[0].name), "batch");
  auto parent_of = [&batch](const char* name) {
    for (const obs::Span& sp : batch.spans) {
      if (std::string(sp.name) == name) return sp.parent;
    }
    return std::int32_t{-2};
  };
  EXPECT_EQ(parent_of("batch_admission"), batch.spans[0].id);
  EXPECT_EQ(parent_of("compute"), batch.spans[0].id);
}

}  // namespace
}  // namespace unn
