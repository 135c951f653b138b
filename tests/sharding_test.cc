// Sharded-vs-single-Engine oracle parity: a ShardedEngine over K shards
// must answer every query type with the same global-id answers as one
// Engine over the whole dataset, bit for bit on every backend and model.
// Also covers the partitioners, the degenerate-spec contract, empty shards
// (K > n), all mass on one shard, coincident duplicates split across
// shards, the Eq. (1) candidate-union merge against whole-set
// integration, and the sharded QueryServer (including resharding via
// ReplaceDataset).

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <random>
#include <set>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/brute_force.h"
#include "core/exact_pnn.h"
#include "engine/engine.h"
#include "expected_distance_reference.h"
#include "fuzz_iters.h"
#include "prob/distributions.h"
#include "serve/parallel.h"
#include "serve/query_server.h"
#include "serve/shard_merge.h"
#include "serve/sharding.h"
#include "serve_requests.h"
#include "workload/generators.h"

namespace unn {
namespace {

using core::UncertainPoint;
using geom::Vec2;

std::vector<Vec2> GridQueries(int count) {
  std::vector<Vec2> qs;
  for (int i = 0; i < count; ++i) {
    qs.push_back({-9.0 + 18.0 * i / count, 6.5 - 13.0 * i / count});
  }
  return qs;
}

const int kShardCounts[] = {1, 2, 4, 7};
const serve::Partitioning kPartitioners[] = {serve::Partitioning::kRoundRobin,
                                             serve::Partitioning::kSpatial};

// ---------------------------------------------------------------------------
// Partitioners
// ---------------------------------------------------------------------------

TEST(PartitionPoints, EveryIdAssignedExactlyOnce) {
  auto pts = workload::RandomDiscrete(23, 2, 301);
  for (int k : {1, 2, 5, 23, 40}) {
    for (auto part : kPartitioners) {
      auto shards = serve::PartitionPoints(pts, {k, part});
      EXPECT_EQ(static_cast<int>(shards.size()), std::min(k, 23));
      std::set<int> seen;
      for (const auto& shard : shards) {
        EXPECT_FALSE(shard.empty());
        EXPECT_TRUE(std::is_sorted(shard.begin(), shard.end()));
        seen.insert(shard.begin(), shard.end());
      }
      EXPECT_EQ(seen.size(), pts.size());
      EXPECT_EQ(*seen.begin(), 0);
      EXPECT_EQ(*seen.rbegin(), 22);
    }
  }
}

TEST(PartitionPoints, SpatialShardsAreBalanced) {
  auto pts = workload::RandomDisks(64, 302);
  auto shards = serve::PartitionPoints(pts, {8, serve::Partitioning::kSpatial});
  ASSERT_EQ(shards.size(), 8u);
  for (const auto& shard : shards) EXPECT_EQ(shard.size(), 8u);
}

// ---------------------------------------------------------------------------
// Parity with one Engine of the same config, for every query type, shard
// count and partitioner: kAuto on discrete input (exact), or a fixed
// Monte-Carlo sample count on disks (keyed draws, bit-identical).
// ---------------------------------------------------------------------------

void ExpectParity(const Engine& single, const serve::ShardedEngine& sharded,
                  const std::vector<Vec2>& qs) {
  for (Vec2 q : qs) {
    EXPECT_EQ(sharded.NonzeroNn(q), single.NonzeroNn(q));
    EXPECT_EQ(sharded.MostProbableNn(q), single.MostProbableNn(q));
    EXPECT_EQ(sharded.ExpectedDistanceNn(q), single.ExpectedDistanceNn(q));
    for (double tau : {0.25, 0.6}) {
      EXPECT_EQ(sharded.Threshold(q, tau), single.Threshold(q, tau))
          << "tau=" << tau;
    }
    EXPECT_EQ(sharded.TopK(q, 3), single.TopK(q, 3));
  }
}

TEST(ShardedEngine, ExactParityDiscrete) {
  auto pts = workload::RandomDiscrete(24, 3, 303);
  Engine::Config cfg;  // kAuto: exact Eq. (2) on discrete input.
  Engine single(pts, cfg);
  auto qs = GridQueries(25);
  for (int k : kShardCounts) {
    for (auto part : kPartitioners) {
      serve::ShardedEngine sharded(pts, cfg, {k, part});
      EXPECT_EQ(sharded.size(), 24);
      ExpectParity(single, sharded, qs);
    }
  }
}

TEST(ShardedEngine, ExactNonzeroAndExpectedOnMixedModel) {
  // NN!=0 and expected-distance merges are exact for any model, including
  // mixed disk + discrete inputs (the probability paths need estimators
  // there, covered separately).
  auto pts = workload::RandomDisks(9, 305);
  auto extra = workload::RandomDiscrete(9, 2, 306);
  pts.insert(pts.end(), extra.begin(), extra.end());
  Engine::Config cfg;  // kAuto -> QuantTree::NonzeroNn on mixed sets.
  Engine single(pts, cfg);
  auto qs = GridQueries(15);
  for (int k : {2, 4, 7}) {
    serve::ShardedEngine sharded(pts, cfg, {k, serve::Partitioning::kSpatial});
    for (Vec2 q : qs) {
      EXPECT_EQ(sharded.NonzeroNn(q), single.NonzeroNn(q));
      EXPECT_EQ(sharded.ExpectedDistanceNn(q), single.ExpectedDistanceNn(q));
    }
  }
}

TEST(ShardedEngine, IndexBackedShardsMatchOracleNonzero) {
  // Shards answering NN!=0 candidates from their own quantification
  // indexes still merge to the exact global answer.
  auto pts = workload::RandomDisks(20, 307);
  Engine::Config cfg;  // kAuto -> QuantTree::NonzeroNn on disks.
  Engine single(pts, cfg);
  auto qs = GridQueries(20);
  for (int k : {2, 4}) {
    serve::ShardedEngine sharded(pts, cfg,
                                 {k, serve::Partitioning::kRoundRobin});
    for (Vec2 q : qs) {
      EXPECT_EQ(sharded.NonzeroNn(q), single.NonzeroNn(q));
    }
  }
  // Far from the data the nearest disk's delta and Delta round to one
  // double (one ulp is 0.125 at 1e15, 16 at 1e17), so only Lemma 2.1's
  // runner-up comparison keeps it (docs/QUERY_SEMANTICS.md "Far from the
  // data"): the definition, one Engine and two shards all answer {1}.
  const std::vector<UncertainPoint> far = {
      UncertainPoint::Disk({0, 0}, 1e-3), UncertainPoint::Disk({100, 0}, 1e-3),
      UncertainPoint::Disk({-100, 0}, 1e-3),
      UncertainPoint::Disk({0, 100}, 1e-3)};
  Engine far_single(far, cfg);
  for (auto partitioning :
       {serve::Partitioning::kSpatial, serve::Partitioning::kRoundRobin}) {
    serve::ShardedEngine far_sharded(far, cfg, {2, partitioning});
    for (Vec2 q : {Vec2{1e15, 0}, Vec2{1e17, 0}}) {
      const std::vector<int> want = {1};
      EXPECT_EQ(baselines::NonzeroNn(far, q), want) << "q.x=" << q.x;
      EXPECT_EQ(far_single.NonzeroNn(q), want) << "q.x=" << q.x;
      EXPECT_EQ(far_sharded.NonzeroNn(q), want) << "q.x=" << q.x;
    }
  }
}

// ---------------------------------------------------------------------------
// kAuto on discrete input: every shard quantifies exactly, and the discrete
// merge re-quantifies every point within the merged Delta(q), the same
// sites in the same order as one Engine, so the answers are bit-identical.
// ---------------------------------------------------------------------------

TEST(ShardedEngine, DiscreteAutoMatchesSingleEngineBitForBit) {
  const Engine::QuerySpec specs[] = {
      {Engine::QueryType::kMostProbableNn, 0.5, 1},
      {Engine::QueryType::kThreshold, 0.2, 1},
      {Engine::QueryType::kTopK, 0.5, 3},
  };
  auto qs = GridQueries(25);
  qs.push_back({0, 0});
  std::mt19937_64 rng(314);
  std::uniform_real_distribution<double> u(-9, 9);
  for (int i = 0; i < 25; ++i) qs.push_back({u(rng), u(rng)});
  std::vector<std::vector<UncertainPoint>> corpora;
  for (uint64_t seed : {311, 312, 313}) {
    corpora.push_back(workload::RandomDiscrete(
        40, 1 + seed % 3, seed, 0.0, 1.5, /*uniform_weights=*/seed != 312));
  }
  // Weights summing to 1 - 1e-10: at q = (0,0) point 1's site at
  // Delta(q) = 2 must score 0 in both the Engine's sweep (which stops at
  // Delta(q)) and the merge (which also sees its site at 9).
  corpora.push_back(
      {UncertainPoint::Discrete({{1, 0}, {2, 0}}, {0.5, 0.4999999999}),
       UncertainPoint::Discrete({{2, 0}, {9, 0}}, {0.5, 0.5})});
  for (size_t c = 0; c < corpora.size(); ++c) {
    const std::vector<UncertainPoint>& pts = corpora[c];
    Engine single(pts);
    for (int k : {1, 2, 4}) {
      for (auto part : kPartitioners) {
        serve::ShardedEngine sharded(pts, {}, {k, part});
        for (const Engine::QuerySpec& spec : specs) {
          auto want = single.QueryMany(qs, spec);
          auto got = sharded.QueryMany(qs, spec);
          ASSERT_EQ(got.size(), want.size());
          for (size_t i = 0; i < qs.size(); ++i) {
            EXPECT_EQ(got[i].nn, want[i].nn)
                << "corpus=" << c << " k=" << k << " i=" << i;
            EXPECT_EQ(got[i].ranked, want[i].ranked)
                << "corpus=" << c << " k=" << k << " i=" << i;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Sharding never changes an answer: every query type on discrete, uniform
// disk, Gaussian disk, mixed and duplicated-point sets, under every
// backend, with and without a sample-count override, equals one Engine's
// answer. Monte-Carlo
// shards draw the whole set's samples (keyed by global id) at the whole
// set's count, and the per-instantiation min-merge recounts the whole
// set's winners.
// ---------------------------------------------------------------------------

std::vector<UncertainPoint> GaussianDisks(int n, uint64_t seed) {
  auto pts = workload::RandomDisks(n, seed);
  for (auto& d : pts) {
    d = UncertainPoint::Disk(d.center(), d.radius(),
                             core::DiskPdf::kTruncatedGaussian);
  }
  return pts;
}

TEST(ShardedEngine, MatchesSingleEngineBitForBit) {
  const Engine::QuerySpec specs[] = {
      {Engine::QueryType::kMostProbableNn, 0.5, 1},
      {Engine::QueryType::kExpectedDistanceNn, 0.5, 1},
      {Engine::QueryType::kThreshold, 0.2, 1},
      {Engine::QueryType::kTopK, 0.5, 3},
      {Engine::QueryType::kNonzeroNn, 0.5, 1},
  };
  const Backend backends[] = {Backend::kAuto, Backend::kMonteCarlo};
  const int iters = FuzzIters(1);
  int checked = 0;
  for (int it = 0; it < iters; ++it) {
    const uint64_t seed = 330 + 17 * static_cast<uint64_t>(it);
    // Without an override the count is Theorem 4.3's (thousands of
    // instantiations at the default eps), so those sets stay small.
    for (int override_samples : {64, 0}) {
      const int n = override_samples > 0 ? 24 : 10;
      auto mixed = workload::RandomDisks(n / 2, seed + 3);
      for (auto& p : workload::RandomDiscrete(n - n / 2, 2, seed + 4)) {
        mixed.push_back(p);
      }
      // Two-site points, each twice in a row, plus two disks (so every
      // backend estimates): round-robin shards split each pair, and a pair
      // ties exactly in every instantiation where both draw one site.
      std::vector<UncertainPoint> duplicated;
      for (const auto& p : workload::RandomDiscrete(n / 2 - 1, 2, seed + 6)) {
        duplicated.push_back(p);
        duplicated.push_back(p);
      }
      for (const auto& p : workload::RandomDisks(2, seed + 7)) {
        duplicated.push_back(p);
      }
      const std::pair<const char*, std::vector<UncertainPoint>> corpora[] = {
          {"discrete", workload::RandomDiscrete(n, 3, seed)},
          {"uniform_disks", workload::RandomDisks(n, seed + 1)},
          {"gaussian_disks", GaussianDisks(n / 2, seed + 2)},
          {"mixed", std::move(mixed)},
          {"duplicated", std::move(duplicated)},
      };
      for (const auto& [name, pts] : corpora) {
        // Random queries over the data's extent, plus one on a support.
        std::mt19937_64 rng(seed + 5);
        const double extent = 2.5 * std::sqrt(static_cast<double>(n)) + 1;
        std::uniform_real_distribution<double> u(-extent, extent);
        std::vector<Vec2> qs;
        for (int i = 0; i < 6; ++i) qs.push_back({u(rng), u(rng)});
        qs.push_back(pts[0].is_disk() ? pts[0].center()
                                      : pts[0].sites().front());
        for (Backend backend : backends) {
          Engine::Config cfg;
          cfg.backend = backend;
          cfg.mc_samples_override = override_samples;
          cfg.seed = seed;
          Engine single(pts, cfg);
          std::vector<std::vector<Engine::QueryResult>> want;
          for (const Engine::QuerySpec& spec : specs) {
            want.push_back(single.QueryMany(qs, spec));
          }
          for (int k : {1, 2, 4}) {
            for (auto part : kPartitioners) {
              if (k == 1 && part != kPartitioners[0]) continue;  // Same set.
              serve::ShardedEngine sharded(pts, cfg, {k, part});
              for (size_t t = 0; t < std::size(specs); ++t) {
                auto got = sharded.QueryMany(qs, specs[t]);
                ASSERT_EQ(got.size(), qs.size());
                for (size_t i = 0; i < qs.size(); ++i) {
                  std::ostringstream where;
                  where << name << " backend=" << static_cast<int>(backend)
                        << " override=" << override_samples << " k=" << k
                        << " part=" << static_cast<int>(part)
                        << " type=" << t << " i=" << i << " it=" << it;
                  EXPECT_EQ(got[i].nn, want[t][i].nn) << where.str();
                  EXPECT_EQ(got[i].ranked, want[t][i].ranked) << where.str();
                  EXPECT_EQ(got[i].ids, want[t][i].ids) << where.str();
                  ++checked;
                }
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 0);
}

// ---------------------------------------------------------------------------
// The envelope-first plan: stage one merges Delta(q), stage two runs only
// the shards holding a candidate within Delta(q) + guard.
// ---------------------------------------------------------------------------

/// Queries that stress the plan on `sharded`: random points over the
/// data, the midpoint of the closest pair of supports in every two shards
/// (a seam, where two or more shards hold candidates), a point on the
/// first support (on the duplicated corpus its argbest ties across
/// shards), far-field points at |q| = 1e6, 1e15 and 1e154, and non-finite
/// points.
std::vector<Vec2> PlanQueries(const serve::ShardedEngine& sharded,
                              const std::vector<UncertainPoint>& pts,
                              double extent, std::mt19937_64& rng) {
  auto anchor = [](const UncertainPoint& p) {
    return p.is_disk() ? p.center() : p.sites().front();
  };
  std::uniform_real_distribution<double> u(-extent, extent);
  std::vector<Vec2> qs;
  for (int i = 0; i < 4; ++i) qs.push_back({u(rng), u(rng)});
  for (int s = 0; s < sharded.num_shards(); ++s) {
    for (int t = s + 1; t < sharded.num_shards(); ++t) {
      double best = std::numeric_limits<double>::infinity();
      Vec2 mid{0, 0};
      for (const UncertainPoint& a : sharded.shard(s).points()) {
        for (const UncertainPoint& b : sharded.shard(t).points()) {
          double d = Dist(anchor(a), anchor(b));
          if (d < best) {
            best = d;
            mid = (anchor(a) + anchor(b)) / 2.0;
          }
        }
      }
      qs.push_back(mid);
    }
  }
  qs.push_back(anchor(pts[0]));
  for (double mag : {1e6, 1e15, 1e154}) {
    qs.push_back({mag, 0.0});
    qs.push_back({-0.6 * mag, 0.8 * mag});
  }
  const double inf = std::numeric_limits<double>::infinity();
  qs.push_back({std::nan(""), 1.0});
  qs.push_back({0.0, -inf});
  return qs;
}

TEST(ShardedEngine, EnvelopeFirstPlanMatchesSingleEngine) {
  const Engine::QuerySpec specs[] = {
      {Engine::QueryType::kMostProbableNn, 0.5, 1},
      {Engine::QueryType::kExpectedDistanceNn, 0.5, 1},
      {Engine::QueryType::kThreshold, 0.15, 1},
      {Engine::QueryType::kTopK, 0.5, 4},
      {Engine::QueryType::kNonzeroNn, 0.5, 1},
  };
  serve::ThreadPool pool(2);
  const int iters = FuzzIters(1);
  int checked = 0;
  int seams = 0;
  for (int it = 0; it < iters; ++it) {
    const uint64_t seed = 910 + 31 * static_cast<uint64_t>(it);
    const int n = 28;
    auto mixed = workload::RandomDisks(n / 2, seed + 3);
    for (const auto& p : workload::RandomDiscrete(n / 2, 2, seed + 4)) {
      mixed.push_back(p);
    }
    // Every point twice in a row: round-robin shards split each pair, so
    // the argbest of a query on a pair ties across shards.
    std::vector<UncertainPoint> duplicated;
    for (const auto& p : workload::RandomDisks(n / 2, seed + 5)) {
      duplicated.push_back(p);
      duplicated.push_back(p);
    }
    const std::pair<const char*, std::vector<UncertainPoint>> corpora[] = {
        {"uniform_disks", workload::RandomDisks(n, seed)},
        {"gaussian_disks", GaussianDisks(n, seed + 1)},
        {"discrete", workload::RandomDiscrete(n, 3, seed + 2)},
        {"mixed", std::move(mixed)},
        {"duplicated", std::move(duplicated)},
    };
    for (const auto& [name, pts] : corpora) {
      const double extent = 2.5 * std::sqrt(static_cast<double>(n)) + 1;
      for (Backend backend : {Backend::kAuto, Backend::kMonteCarlo}) {
        Engine::Config cfg;
        cfg.backend = backend;
        cfg.mc_samples_override = 48;
        cfg.seed = seed;
        Engine single(pts, cfg);
        for (int k : {2, 4, 7}) {
          for (auto part : kPartitioners) {
            serve::ShardedEngine sharded(pts, cfg, {k, part});
            std::mt19937_64 rng(seed + k);
            const std::vector<Vec2> qs = PlanQueries(sharded, pts, extent, rng);
            for (const Engine::QuerySpec& spec : specs) {
              const auto want = single.QueryMany(qs, spec);
              const auto serial = sharded.QueryMany(qs, spec);
              const auto fanned = sharded.QueryMany(qs, spec, &pool);
              for (size_t i = 0; i < qs.size(); ++i) {
                // Packs of one, on the pool: the Submit path.
                const auto one = sharded.QueryMany({&qs[i], 1}, spec, &pool);
                std::ostringstream where;
                where << name << " backend=" << static_cast<int>(backend)
                      << " k=" << k << " part=" << static_cast<int>(part)
                      << " type=" << static_cast<int>(spec.type)
                      << " q=(" << qs[i].x << ", " << qs[i].y << ")"
                      << " it=" << it;
                for (const auto* got : {&serial[i], &fanned[i], &one[0]}) {
                  EXPECT_EQ(got->nn, want[i].nn) << where.str();
                  EXPECT_EQ(got->ranked, want[i].ranked) << where.str();
                  EXPECT_EQ(got->ids, want[i].ids) << where.str();
                }
                ++checked;
              }
            }
            // The seam queries do reach two or more shards.
            const auto before = sharded.plan_stats();
            sharded.QueryMany(qs, specs[4]);
            const auto after = sharded.plan_stats();
            EXPECT_EQ(after.shards_run + after.shards_skipped -
                          before.shards_run - before.shards_skipped,
                      static_cast<std::uint64_t>(k) * qs.size());
            if (after.shards_run - before.shards_run > qs.size()) ++seams;
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 0);
  EXPECT_GT(seams, 0);
}

/// hat-pi by definition over the whole set (instantiation j's winner is
/// the first strict minimum of Dist over every point in id order), in
/// TopK's presentation order.
std::vector<std::pair<int, double>> MonteCarloByDefinition(
    const std::vector<UncertainPoint>& pts, Vec2 q, uint64_t seed, int s) {
  std::vector<int> wins(pts.size(), 0);
  for (int j = 0; j < s; ++j) {
    int best = -1;
    double best_d = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < pts.size(); ++i) {
      double d = Dist(q, prob::KeyedSample(pts[i], seed, i, j));
      if (best < 0 || d < best_d) {
        best_d = d;
        best = static_cast<int>(i);
      }
    }
    ++wins[best];
  }
  std::vector<std::pair<int, double>> out;
  for (size_t i = 0; i < pts.size(); ++i) {
    if (wins[i] > 0) out.push_back({static_cast<int>(i), wins[i] / double(s)});
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  return out;
}

// The envelope argmin a (id 1) sits in shard 0, while b (id 0), a shard-1
// point with delta_b < Delta_a, wins some instantiations: shard 1 must run
// although a is not among its candidates, and the min-merge must count
// b's wins exactly as one Engine and the definition do. In the far case
// (q at 1.5 * 2^50, where doubles are 0.25 apart) rounding puts b's
// computed delta_b one step above the computed Delta_a = Delta(q); about
// half of b's samples still round to a's distance, and b wins those ties
// by its smaller id. Only the guard band keeps b a candidate there.
TEST(ShardedEngine, CrossShardGuardKeepsWinnersOfAnotherShard) {
  struct Case {
    const char* name;
    Vec2 q;
    UncertainPoint a, b;
    bool rounded_out;  // Computed delta_b above the computed Delta_a.
  };
  const double far = 1.5 * std::ldexp(1.0, 50);
  const Case cases[] = {
      {"near", {0, 0}, UncertainPoint::Disk({1, 0}, 0.1),
       UncertainPoint::Disk({-1.5, 0}, 0.5), false},
      {"far", {far, 0}, UncertainPoint::Disk({0, 0}, 0.1),
       UncertainPoint::Disk({-0.126, 0}, 0.12), true},
  };
  Engine::Config cfg;
  cfg.mc_samples_override = 512;
  cfg.seed = 77;
  for (const Case& c : cases) {
    // Ids: b = 0 and a = 1, then two fillers per shard, farther from q in
    // both cases.
    const std::vector<UncertainPoint> pts = {
        c.b,
        c.a,
        UncertainPoint::Disk({-8, 8}, 0.3),
        UncertainPoint::Disk({-9, 7}, 0.2),
        UncertainPoint::Disk({-6, -7}, 0.4),
        UncertainPoint::Disk({-8, -8}, 0.5)};
    EXPECT_EQ(c.b.MinDist(c.q) > c.a.MaxDist(c.q), c.rounded_out) << c.name;
    auto shard0 = std::make_shared<const Engine>(
        std::vector<UncertainPoint>{pts[1], pts[2], pts[3]}, cfg,
        std::vector<int>{1, 2, 3});
    auto shard1 = std::make_shared<const Engine>(
        std::vector<UncertainPoint>{pts[0], pts[4], pts[5]}, cfg,
        std::vector<int>{0, 4, 5});
    serve::ShardedEngine sharded({shard0, shard1});
    Engine single(pts, cfg);
    ASSERT_EQ(single.MaxDistEnvelope(c.q).argbest, 1) << c.name;

    const auto want = MonteCarloByDefinition(pts, c.q, cfg.seed, 512);
    ASSERT_FALSE(want.empty());
    bool b_wins = false;
    for (auto [id, pi] : want) b_wins = b_wins || (id == 0 && pi > 0);
    EXPECT_TRUE(b_wins) << c.name;
    EXPECT_EQ(single.TopK(c.q, 6), want) << c.name;
    EXPECT_EQ(sharded.TopK(c.q, 6), want) << c.name;
    ExpectParity(single, sharded, {c.q});
  }
}

// ---------------------------------------------------------------------------
// The threshold no-false-negative contract against the exact distribution.
// ---------------------------------------------------------------------------

TEST(ShardedEngine, EstimatorShardsWithinEpsOfExact) {
  auto pts = workload::RandomDiscrete(30, 3, 308);
  // kAuto quantifies discrete shards exactly and the discrete merge is
  // exact, so the eps bounds below hold with room to spare.
  Engine::Config cfg;
  const double eps = cfg.eps;
  auto qs = GridQueries(20);
  for (int k : {2, 4}) {
    serve::ShardedEngine sharded(pts, cfg,
                                 {k, serve::Partitioning::kRoundRobin});
    for (Vec2 q : qs) {
      std::vector<double> exact =
          baselines::QuantificationProbabilities(pts, q);
      double best_exact = *std::max_element(exact.begin(), exact.end());
      // The merged most-probable answer is within 2 eps of optimal.
      int got = sharded.MostProbableNn(q);
      ASSERT_GE(got, 0);
      EXPECT_GE(exact[got], best_exact - 2 * eps);
      // Threshold: no false negatives vs the exact distribution.
      const double tau = 0.3;
      auto ranked = sharded.Threshold(q, tau);
      std::set<int> reported;
      for (auto [id, pi] : ranked) reported.insert(id);
      for (size_t i = 0; i < exact.size(); ++i) {
        if (exact[i] >= tau) {
          EXPECT_TRUE(reported.count(static_cast<int>(i)))
              << "missing id " << i << " with pi=" << exact[i];
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Merge edge cases
// ---------------------------------------------------------------------------

TEST(ShardedEngine, MoreShardsThanPoints) {
  auto pts = workload::RandomDiscrete(5, 2, 309);
  Engine::Config cfg;
  Engine single(pts, cfg);
  for (auto part : kPartitioners) {
    serve::ShardedEngine sharded(pts, cfg, {7, part});
    EXPECT_EQ(sharded.num_shards(), 5);  // Empty shards are dropped.
    ExpectParity(single, sharded, GridQueries(12));
  }
}

TEST(ShardedEngine, SinglePointDataset) {
  std::vector<UncertainPoint> pts = {UncertainPoint::Disk({1, 2}, 0.5)};
  Engine::Config cfg;
  cfg.mc_samples_override = 64;
  serve::ShardedEngine sharded(pts, cfg, {4, serve::Partitioning::kSpatial});
  EXPECT_EQ(sharded.num_shards(), 1);
  EXPECT_EQ(sharded.NonzeroNn({0, 0}), std::vector<int>{0});
  EXPECT_EQ(sharded.MostProbableNn({0, 0}), 0);
  EXPECT_EQ(sharded.ExpectedDistanceNn({0, 0}), 0);
}

TEST(ShardedEngine, AllMassOnOneShard) {
  // A tight cluster (every plausible NN) lands on one spatial shard; the
  // far-away shards must be pruned without corrupting the answers.
  std::vector<UncertainPoint> pts;
  for (int i = 0; i < 6; ++i) {
    pts.push_back(UncertainPoint::Disk({0.1 * i, 0.05 * i}, 0.2 + 0.01 * i));
  }
  for (int i = 0; i < 6; ++i) {
    pts.push_back(UncertainPoint::Disk({100.0 + i, 90.0 - i}, 0.3));
  }
  Engine::Config cfg;
  cfg.mc_samples_override = 64;
  Engine single(pts, cfg);
  serve::ShardedEngine sharded(pts, cfg, {4, serve::Partitioning::kSpatial});
  std::vector<Vec2> qs = {{0, 0}, {0.3, 0.1}, {-1, -1}, {2, 2}};
  ExpectParity(single, sharded, qs);
  // The cluster owns the candidate set.
  for (Vec2 q : qs) {
    for (int id : sharded.NonzeroNn(q)) EXPECT_LT(id, 6);
  }
}

TEST(ShardedEngine, CoincidentDuplicatesSplitAcrossShards) {
  // Exact duplicates (same sites, same weights) that round-robin onto
  // different shards: the candidate union is the whole set, so the merged
  // answers coincide with the single-engine oracle bit for bit.
  std::vector<UncertainPoint> pts;
  for (int rep = 0; rep < 2; ++rep) {
    pts.push_back(UncertainPoint::DiscreteUniform({{1, 1}, {2, 1}}));
    pts.push_back(UncertainPoint::DiscreteUniform({{-1, 0}, {-2, 0.5}}));
    pts.push_back(UncertainPoint::DiscreteUniform({{0, -2}}));
  }
  Engine::Config cfg;
  Engine single(pts, cfg);
  auto qs = GridQueries(12);
  for (int k : {2, 3}) {
    serve::ShardedEngine sharded(pts, cfg,
                                 {k, serve::Partitioning::kRoundRobin});
    for (Vec2 q : qs) {
      EXPECT_EQ(sharded.NonzeroNn(q), single.NonzeroNn(q));
      EXPECT_EQ(sharded.TopK(q, 6), single.TopK(q, 6));
      // Duplicates tie in expected distance: compare values, not ids.
      int got = sharded.ExpectedDistanceNn(q);
      int want = single.ExpectedDistanceNn(q);
      EXPECT_NEAR(single.ExpectedDistance(got, q),
                  single.ExpectedDistance(want, q), 1e-9);
    }
  }
}

TEST(ShardedEngine, DegenerateSpecsBuildNothing) {
  auto pts = workload::RandomDiscrete(10, 2, 310);
  serve::ShardedEngine sharded(pts, {}, {3, serve::Partitioning::kRoundRobin});
  auto qs = GridQueries(4);

  auto empty = sharded.QueryMany({}, {Engine::QueryType::kMostProbableNn});
  EXPECT_TRUE(empty.empty());

  for (auto& r : sharded.QueryMany(qs, {Engine::QueryType::kTopK, 0.5, 0})) {
    EXPECT_TRUE(r.ranked.empty());
  }
  for (auto& r :
       sharded.QueryMany(qs, {Engine::QueryType::kThreshold, 1.5, 1})) {
    EXPECT_TRUE(r.ranked.empty());
  }
  double nan = std::nan("");
  for (auto& r :
       sharded.QueryMany(qs, {Engine::QueryType::kThreshold, nan, 1})) {
    EXPECT_TRUE(r.ranked.empty());
  }
  EXPECT_EQ(sharded.StructuresBuilt(), 0);
}

// The single-query methods are packs of one, so degenerate parameters get
// QueryMany's definition-level answers instead of aborting the process.
TEST(ShardedEngine, SingleQueryDegenerateParametersDoNotAbort) {
  auto pts = workload::RandomDiscrete(10, 2, 322);
  Engine::Config cfg;
  Engine single(pts, cfg);
  for (int k : {1, 3}) {
    serve::ShardedEngine sharded(pts, cfg, {k, serve::Partitioning::kSpatial});
    const double nan = std::nan("");
    for (Vec2 q : GridQueries(4)) {
      for (int topk : {0, -2}) EXPECT_TRUE(sharded.TopK(q, topk).empty());
      for (double tau : {1.5, nan}) {
        EXPECT_TRUE(sharded.Threshold(q, tau).empty()) << "tau=" << tau;
      }
    }
    EXPECT_EQ(sharded.StructuresBuilt(), 0);
    for (Vec2 q : GridQueries(4)) {
      for (double tau : {0.0, -0.5}) {
        auto got = sharded.Threshold(q, tau);
        auto want = single.Threshold(q, tau);
        ASSERT_EQ(got.size(), want.size()) << "k=" << k << " tau=" << tau;
        ASSERT_EQ(static_cast<int>(got.size()), sharded.size());
        for (size_t j = 0; j < got.size(); ++j) {
          EXPECT_EQ(got[j].first, want[j].first);
          EXPECT_NEAR(got[j].second, want[j].second, 1e-12);
        }
      }
    }
  }
}

// A non-finite query has no expected-distance NN in any shard; a shard
// without a local winner must drop out of the min-merge instead of having
// its -1 looked up as a point id.
TEST(ShardedEngine, ExpectedDistanceNnOnNonFiniteQueryMatchesSingleEngine) {
  // A query with a NaN or infinite coordinate has no distances to rank,
  // on either backend, one Engine or sharded: no expected-distance NN
  // (-1), an empty NN!=0, and no probability estimates, so MPNN is -1 and
  // Threshold/TopK report nothing (tau <= 0: every id at 0).
  const double inf = std::numeric_limits<double>::infinity();
  const Vec2 queries[] = {{std::nan(""), 0}, {0, std::nan("")}, {inf, 0},
                          {-inf, 0}, {0, inf}, {std::nan(""), 0.2},
                          {inf, 0.5}};
  for (bool discrete : {true, false}) {
    auto pts = discrete ? workload::RandomDiscrete(200, 3, 7)
                        : workload::RandomDisks(60, 7);
    for (Backend backend : {Backend::kAuto, Backend::kMonteCarlo}) {
      Engine::Config cfg;
      cfg.backend = backend;
      Engine single(pts, cfg);
      for (int k : {2, 4}) {
        serve::ShardedEngine sharded(pts, cfg,
                                     {k, serve::Partitioning::kSpatial});
        for (Vec2 q : queries) {
          std::ostringstream where;
          where << "discrete=" << discrete
                << " backend=" << static_cast<int>(backend) << " k=" << k
                << " q=(" << q.x << "," << q.y << ")";
          EXPECT_EQ(sharded.ExpectedDistanceNn(q), -1) << where.str();
          EXPECT_EQ(single.ExpectedDistanceNn(q), -1) << where.str();
          EXPECT_TRUE(sharded.NonzeroNn(q).empty()) << where.str();
          EXPECT_TRUE(single.NonzeroNn(q).empty()) << where.str();
          EXPECT_EQ(sharded.MostProbableNn(q), -1) << where.str();
          EXPECT_EQ(single.MostProbableNn(q), -1) << where.str();
          EXPECT_TRUE(sharded.Threshold(q, 0.25).empty()) << where.str();
          EXPECT_TRUE(single.Threshold(q, 0.25).empty()) << where.str();
          EXPECT_TRUE(sharded.TopK(q, 3).empty()) << where.str();
          EXPECT_TRUE(single.TopK(q, 3).empty()) << where.str();
          // tau <= 0 lists every id, each at estimate 0.
          std::vector<std::pair<int, double>> all_zero(pts.size());
          for (size_t i = 0; i < pts.size(); ++i) {
            all_zero[i] = {static_cast<int>(i), 0.0};
          }
          EXPECT_EQ(sharded.Threshold(q, 0.0), all_zero) << where.str();
          EXPECT_EQ(single.Threshold(q, 0.0), all_zero) << where.str();
        }
      }
    }
  }
}

// Far from the data E[d] = d(q, center) (1 + O(rho^-2)), so the answer
// turns on differences of a few units in values near |q|. Each disk E[d]
// is O(1) work and exact to rounding there, so one Engine and a 2-shard
// spatial ShardedEngine both answer the lexicographic argmin of the
// long-double reference (E[d], id); where the reference's two smallest
// values are within rounding (1e-13 relative, ~450 ulps) either is
// accepted. The pair at x ~ 150 sits 0.3 apart for queries along +x.
TEST(ShardedEngine, FarFieldExpectedDistanceNnMatchesReferenceArgmin) {
  for (core::DiskPdf pdf :
       {core::DiskPdf::kUniform, core::DiskPdf::kTruncatedGaussian}) {
    std::mt19937_64 rng(2027);
    std::uniform_real_distribution<double> coord(-100, 100);
    std::uniform_real_distribution<double> radius(0.5, 20);
    std::vector<UncertainPoint> pts;
    for (int i = 0; i < 20; ++i) {
      double x = coord(rng), y = coord(rng);
      pts.push_back(UncertainPoint::Disk({x, y}, radius(rng), pdf));
    }
    pts.push_back(UncertainPoint::Disk({149.7, 5}, 3, pdf));
    pts.push_back(UncertainPoint::Disk({150, 0}, 1, pdf));
    const int n = static_cast<int>(pts.size());
    Engine::Config cfg;
    Engine single(pts, cfg);
    serve::ShardedEngine sharded(pts, cfg, {2, serve::Partitioning::kSpatial});
    int strict = 0, total = 0;
    for (double scale : {1e6, 1e9, 1e12}) {
      for (int k = 0; k < 8; ++k) {
        Vec2 q{scale * std::cos(0.9 * k), scale * std::sin(0.9 * k)};
        std::vector<long double> ref(n);
        std::vector<std::pair<long double, int>> ranked;
        for (int i = 0; i < n; ++i) {
          ref[i] = testref::ExpectedDistance(pts[i], q);
          ranked.push_back({ref[i], i});
        }
        std::sort(ranked.begin(), ranked.end());
        const long double band = 1e-13L * ranked[0].first;
        const bool near_tie = ranked[1].first - ranked[0].first <= band;
        strict += near_tie ? 0 : 1;
        ++total;
        for (int got :
             {single.ExpectedDistanceNn(q), sharded.ExpectedDistanceNn(q)}) {
          ASSERT_GE(got, 0);
          if (near_tie) {
            EXPECT_LE(ref[got] - ranked[0].first, band)
                << "pdf=" << static_cast<int>(pdf) << " q=(" << q.x << ","
                << q.y << ")";
          } else {
            EXPECT_EQ(got, ranked[0].second)
                << "pdf=" << static_cast<int>(pdf) << " q=(" << q.x << ","
                << q.y << ")";
          }
        }
      }
    }
    EXPECT_GE(strict, total - 2) << "the set no longer separates its answers";
  }
}

TEST(QueryServerSharded, ExpectedDistanceNnOnNonFiniteQueryIsComputed) {
  auto pts = workload::RandomDiscrete(200, 3, 7);
  serve::QueryServer server(
      pts, {},
      {.num_threads = 2,
       .warm = {},
       .sharding = {2, serve::Partitioning::kSpatial}});
  serve::Request request{{std::nan(""), 0},
                         {Engine::QueryType::kExpectedDistanceNn}};
  serve::Response response = server.Submit(request).get();
  EXPECT_EQ(response.source, serve::ResultSource::kComputed);
  EXPECT_EQ(response.result.nn, Engine(pts, {}).ExpectedDistanceNn(request.q));
}

TEST(ShardedEngine, NonPositiveTauListsEveryId) {
  auto pts = workload::RandomDiscrete(9, 2, 311);
  Engine::Config cfg;
  Engine single(pts, cfg);
  serve::ShardedEngine sharded(pts, cfg, {2, serve::Partitioning::kSpatial});
  auto qs = GridQueries(5);
  Engine::QuerySpec spec{Engine::QueryType::kThreshold, 0.0, 1};
  auto got = sharded.QueryMany(qs, spec);
  auto want = single.QueryMany(qs, spec);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].ranked.size(), want[i].ranked.size());
    for (size_t j = 0; j < got[i].ranked.size(); ++j) {
      EXPECT_EQ(got[i].ranked[j].first, want[i].ranked[j].first);
      EXPECT_NEAR(got[i].ranked[j].second, want[i].ranked[j].second, 1e-12);
    }
  }
}

TEST(ShardedEngine, WarmupPrebuildsEveryShard) {
  auto pts = workload::RandomDiscrete(12, 2, 312);
  serve::ShardedEngine sharded(pts, {}, {3, serve::Partitioning::kRoundRobin});
  EXPECT_EQ(sharded.StructuresBuilt(), 0);
  sharded.Warmup(Engine::QueryType::kMostProbableNn);
  sharded.Warmup(Engine::QueryType::kNonzeroNn);
  int built = sharded.StructuresBuilt();
  EXPECT_GE(built, 3);  // At least one structure per shard.
  auto qs = GridQueries(6);
  sharded.QueryMany(qs, {Engine::QueryType::kMostProbableNn});
  sharded.QueryMany(qs, {Engine::QueryType::kNonzeroNn});
  EXPECT_EQ(sharded.StructuresBuilt(), built);
}

TEST(ShardedEngine, ParallelFanOutMatchesSerial) {
  auto pts = workload::RandomDiscrete(18, 3, 313);
  Engine::Config cfg;
  serve::ShardedEngine sharded(pts, cfg, {4, serve::Partitioning::kRoundRobin});
  serve::ThreadPool pool(3);
  auto qs = GridQueries(17);
  for (auto type :
       {Engine::QueryType::kMostProbableNn, Engine::QueryType::kNonzeroNn,
        Engine::QueryType::kTopK, Engine::QueryType::kExpectedDistanceNn}) {
    Engine::QuerySpec spec{type, 0.5, 3};
    auto serial = sharded.QueryMany(qs, spec, nullptr);
    // Whole-pack shard fan-out on the pool.
    auto fanned = sharded.QueryMany(qs, spec, &pool);
    // Query-parallel batch path.
    auto batched = serve::QueryMany(sharded, qs, spec, &pool);
    ASSERT_EQ(fanned.size(), serial.size());
    ASSERT_EQ(batched.size(), serial.size());
    for (size_t i = 0; i < qs.size(); ++i) {
      EXPECT_EQ(fanned[i].nn, serial[i].nn);
      EXPECT_EQ(fanned[i].ranked, serial[i].ranked);
      EXPECT_EQ(fanned[i].ids, serial[i].ids);
      EXPECT_EQ(batched[i].nn, serial[i].nn);
      EXPECT_EQ(batched[i].ranked, serial[i].ranked);
      EXPECT_EQ(batched[i].ids, serial[i].ids);
    }
  }
}

// ---------------------------------------------------------------------------
// The survival-probability factorization the merge relies on.
// ---------------------------------------------------------------------------

TEST(ShardMerge, SurvivalFactorsAcrossShards) {
  auto pts = workload::RandomDisks(12, 314);
  Engine::Config cfg;
  Engine whole(pts, cfg);
  serve::ShardedEngine sharded(pts, cfg, {3, serve::Partitioning::kRoundRobin});
  for (Vec2 q : GridQueries(8)) {
    for (double r : {0.5, 2.0, 5.0}) {
      double prod = 1.0;
      for (int s = 0; s < sharded.num_shards(); ++s) {
        prod *= std::exp(sharded.shard(s).LogSurvivalProbability(q, r));
      }
      EXPECT_NEAR(prod, std::exp(whole.LogSurvivalProbability(q, r)), 1e-12);
    }
  }
}

TEST(ShardMerge, MergeEnvelopesMatchesGlobalScan) {
  auto pts = workload::RandomDiscrete(15, 2, 315);
  Engine::Config cfg;
  Engine whole(pts, cfg);
  serve::ShardedEngine sharded(pts, cfg, {4, serve::Partitioning::kSpatial});
  for (Vec2 q : GridQueries(10)) {
    std::vector<core::DeltaEnvelope> local;
    std::vector<serve::ShardView> views;
    for (int s = 0; s < sharded.num_shards(); ++s) {
      local.push_back(sharded.shard(s).MaxDistEnvelope(q));
      views.push_back({&sharded.shard(s), &sharded.global_ids(s)});
    }
    core::DeltaEnvelope merged = serve::MergeEnvelopes(local, views);
    core::DeltaEnvelope want = whole.MaxDistEnvelope(q);
    EXPECT_DOUBLE_EQ(merged.best, want.best);
    EXPECT_DOUBLE_EQ(merged.second, want.second);
    EXPECT_EQ(merged.argbest, want.argbest);
  }
}

// MergeProbabilities re-integrates Eq. (1) over the per-shard candidates.
// No backend quantifies disks exactly, so it is checked directly: each
// shard's candidates integrated over that shard's points alone, merged
// with the shard envelopes, equal the whole set's integration.
TEST(ShardMerge, MergeProbabilitiesMatchesWholeSetIntegration) {
  auto pts = workload::RandomDisks(16, 304);
  Engine::Config cfg;
  auto qs = GridQueries(15);
  for (int k : {2, 4}) {
    for (auto part : kPartitioners) {
      serve::ShardedEngine sharded(pts, cfg, {k, part});
      std::vector<serve::ShardView> views;
      for (int s = 0; s < sharded.num_shards(); ++s) {
        views.push_back({&sharded.shard(s), &sharded.global_ids(s)});
      }
      for (Vec2 q : qs) {
        std::vector<std::vector<std::pair<int, double>>> local;
        std::vector<core::DeltaEnvelope> env;
        for (int s = 0; s < sharded.num_shards(); ++s) {
          local.push_back(core::IntegrateAllQuantifications(
              sharded.shard(s).points(), q, cfg.tol));
          env.push_back(sharded.shard(s).MaxDistEnvelope(q));
        }
        auto got =
            serve::MergeProbabilities(views, local, env, q, cfg, cfg.eps)
                .probs;
        auto want = core::IntegrateAllQuantifications(pts, q, cfg.tol);
        ASSERT_EQ(got.size(), want.size()) << "k=" << k;
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].first, want[i].first) << "k=" << k;
          EXPECT_NEAR(got[i].second, want[i].second, 1e-6) << "k=" << k;
        }
      }
    }
  }
}

// A shard with no winners (an empty span, or key -1) adds the identity of
// the min-merge wherever it sits, first included.
TEST(ShardMerge, SkippedShardIsTheIdentityOfTheWinnersMerge) {
  using core::InstantiationWinner;
  const std::vector<InstantiationWinner> s1 = {
      {1.0, 4}, {2.0, 7}, {0.5, 4}, {3.0, 9}};
  const std::vector<InstantiationWinner> s2 = {
      {1.5, 2}, {1.0, 3}, {0.5, 1}, {3.0, 8}};
  const std::vector<InstantiationWinner> none(4);  // key -1 throughout.
  using Span = std::span<const InstantiationWinner>;
  const std::vector<Span> plain = {s1, s2};
  const auto want = serve::MergeInstantiationWinners(plain);
  EXPECT_EQ(want, (std::vector<std::pair<int, double>>{
                      {1, 0.25}, {3, 0.25}, {4, 0.25}, {8, 0.25}}));
  for (const std::vector<Span>& local :
       {std::vector<Span>{Span{}, s1, s2}, std::vector<Span>{none, s1, s2},
        std::vector<Span>{s1, none, s2}, std::vector<Span>{s1, s2, Span{}}}) {
    EXPECT_EQ(serve::MergeInstantiationWinners(local), want);
  }
  EXPECT_TRUE(serve::MergeInstantiationWinners(std::vector<Span>{none, Span{}})
                  .empty());
  EXPECT_TRUE(serve::MergeInstantiationWinners({}).empty());
}

TEST(ShardMerge, EnvelopeTieSemanticsAcrossShards) {
  // Coincident duplicate supports and exact equal-MaxDist ties, split
  // across shards at every K by both partitioners: the merged envelope
  // must reproduce the single-Engine linear scan exactly — best, second,
  // the smallest-id argbest, and the per-id ThresholdFor Lemma 2.1
  // consumes — and the index-backed Engine hook must agree; the merged
  // NN!=0 answer built on those thresholds must match the oracle too.
  std::vector<UncertainPoint> pts;
  for (int i = 0; i < 4; ++i) pts.push_back(UncertainPoint::Disk({3, 0}, 1.0));
  pts.push_back(UncertainPoint::Disk({-3, 0}, 1.0));  // Ties (3,0) at origin.
  pts.push_back(UncertainPoint::Disk({0, 3}, 1.0));
  pts.push_back(UncertainPoint::Disk({0, -3}, 1.0));
  pts.push_back(UncertainPoint::Discrete({{1.5, 1.5}}, {1.0}));
  pts.push_back(UncertainPoint::Discrete({{1.5, 1.5}}, {1.0}));
  pts.push_back(UncertainPoint::Disk({6, -2}, 0.5));
  pts.push_back(UncertainPoint::DiscreteUniform({{-5, 2}, {-4, 3}}));

  Engine::Config cfg;
  Engine whole(pts, cfg);
  std::vector<Vec2> qs = GridQueries(6);
  qs.push_back({0, 0});        // All ring disks tie at MaxDist 4.
  qs.push_back({1.5, 1.5});    // On the coincident certain points.
  qs.push_back({3, 0});        // Center of the duplicate disks.

  for (int k : kShardCounts) {
    for (auto part : kPartitioners) {
      serve::ShardedEngine sharded(pts, cfg, {k, part});
      for (Vec2 q : qs) {
        std::vector<core::DeltaEnvelope> local;
        std::vector<serve::ShardView> views;
        for (int s = 0; s < sharded.num_shards(); ++s) {
          local.push_back(sharded.shard(s).MaxDistEnvelope(q));
          views.push_back({&sharded.shard(s), &sharded.global_ids(s)});
        }
        core::DeltaEnvelope merged = serve::MergeEnvelopes(local, views);
        core::DeltaEnvelope scan = core::TwoSmallestMaxDist(pts, q);
        core::DeltaEnvelope index = whole.MaxDistEnvelope(q);
        EXPECT_EQ(merged.best, scan.best);
        EXPECT_EQ(merged.second, scan.second);
        EXPECT_EQ(merged.argbest, scan.argbest);
        EXPECT_EQ(index.best, scan.best);
        EXPECT_EQ(index.second, scan.second);
        EXPECT_EQ(index.argbest, scan.argbest);
        for (int id = 0; id < whole.size(); ++id) {
          EXPECT_EQ(merged.ThresholdFor(id), scan.ThresholdFor(id)) << id;
        }
        EXPECT_EQ(sharded.NonzeroNn(q), whole.NonzeroNn(q));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Sharded QueryServer
// ---------------------------------------------------------------------------

TEST(QueryServerSharded, BatchAndSubmitMatchOracle) {
  auto pts = workload::RandomDiscrete(20, 3, 316);
  Engine::Config cfg;
  Engine oracle(pts, cfg);
  serve::QueryServer server(
      pts, cfg,
      {.num_threads = 3,
       .warm = {Engine::QueryType::kMostProbableNn},
       .sharding = {4, serve::Partitioning::kRoundRobin}});
  EXPECT_EQ(server.snapshot(), nullptr);  // Partitioned: no single view.
  ASSERT_NE(server.sharded_snapshot(), nullptr);
  EXPECT_EQ(server.sharded_snapshot()->num_shards(), 4);

  auto qs = GridQueries(21);
  auto results =
      server.QueryBatch(Requests(qs, {Engine::QueryType::kMostProbableNn}));
  ASSERT_EQ(results.size(), qs.size());
  for (size_t i = 0; i < qs.size(); ++i) {
    EXPECT_EQ(results[i].result.nn, oracle.MostProbableNn(qs[i]));
  }
  for (size_t i = 0; i < 5; ++i) {
    auto fut = server.Submit({qs[i], {Engine::QueryType::kNonzeroNn}});
    EXPECT_EQ(fut.get().result.ids, oracle.NonzeroNn(qs[i]));
  }
}

TEST(QueryServerSharded, ReplaceDatasetCanChangeShardCount) {
  auto pts_a = workload::RandomDiscrete(12, 2, 317);
  auto pts_b = workload::RandomDiscrete(18, 2, 318);
  Engine::Config cfg;
  serve::QueryServer server(
      pts_a, cfg,
      {.num_threads = 2,
       .warm = {},
       .sharding = {2, serve::Partitioning::kRoundRobin}});
  EXPECT_EQ(server.sharded_snapshot()->num_shards(), 2);
  auto old_snapshot = server.sharded_snapshot();

  server.ReplaceDataset(pts_b, {5, serve::Partitioning::kSpatial});
  EXPECT_EQ(server.sharded_snapshot()->num_shards(), 5);
  EXPECT_EQ(server.sharded_snapshot()->size(), 18);
  EXPECT_EQ(server.stats().swaps, 1u);
  // The pinned old shard set still answers for the old dataset.
  EXPECT_EQ(old_snapshot->num_shards(), 2);
  EXPECT_EQ(old_snapshot->size(), 12);

  // A plain ReplaceDataset keeps the new sharding.
  server.ReplaceDataset(pts_a);
  EXPECT_EQ(server.sharded_snapshot()->num_shards(), 5);

  Engine oracle(pts_a, cfg);
  auto qs = GridQueries(9);
  auto results =
      server.QueryBatch(Requests(qs, {Engine::QueryType::kNonzeroNn}));
  for (size_t i = 0; i < qs.size(); ++i) {
    EXPECT_EQ(results[i].result.ids, oracle.NonzeroNn(qs[i]));
  }
}

TEST(QueryServerSharded, UnshardedServerStillExposesSingleSnapshot) {
  auto pts = workload::RandomDiscrete(8, 2, 319);
  serve::QueryServer server(pts, {}, {.num_threads = 2, .warm = {}});
  ASSERT_NE(server.snapshot(), nullptr);
  EXPECT_EQ(server.snapshot()->size(), 8);
  EXPECT_EQ(server.sharded_snapshot()->num_shards(), 1);
}

TEST(QueryServerSharded, ReplaceDatasetKeepsCallerInstalledShardShape) {
  // A server seeded (or refreshed) with a caller-built shard set must not
  // silently rebuild monolithic on the next plain ReplaceDataset.
  auto pts = workload::RandomDiscrete(12, 2, 321);
  Engine::Config cfg;
  auto four_shards = std::make_shared<const serve::ShardedEngine>(
      pts, cfg, serve::ShardingOptions{4, serve::Partitioning::kRoundRobin});
  serve::QueryServer server(four_shards, {.num_threads = 2, .warm = {}});
  server.ReplaceDataset(pts);
  EXPECT_EQ(server.sharded_snapshot()->num_shards(), 4);

  // A caller-installed single engine switches replacements back to
  // unsharded builds.
  server.ReplaceShardedEngine(std::make_shared<const serve::ShardedEngine>(
      std::make_shared<const Engine>(pts, cfg)));
  server.ReplaceDataset(pts);
  EXPECT_EQ(server.sharded_snapshot()->num_shards(), 1);
}

TEST(ShardedEngine, AssembledShardSetReportsExternalPartitioning) {
  auto pts = workload::RandomDiscrete(6, 2, 320);
  auto parts = serve::PartitionPoints(pts, {2, serve::Partitioning::kSpatial});
  std::vector<std::shared_ptr<const Engine>> engines;
  for (const auto& ids : parts) {
    std::vector<UncertainPoint> subset;
    for (int gid : ids) subset.push_back(pts[gid]);
    engines.push_back(std::make_shared<const Engine>(std::move(subset),
                                                     Engine::Config{}, ids));
  }
  serve::ShardedEngine sharded(std::move(engines));
  EXPECT_EQ(sharded.num_shards(), 2);
  EXPECT_EQ(sharded.options().partitioning, serve::Partitioning::kExternal);
  Engine single(pts, {});
  Vec2 q{0.5, -0.5};
  EXPECT_EQ(sharded.NonzeroNn(q), single.NonzeroNn(q));
}

TEST(ShardedEngine, SingleAssembledShardWithPermutedIdsKeepsOrder) {
  // One assembled shard whose id map is not ascending: after mapping to
  // global ids, NN!=0 must come back sorted and rankings in presentation
  // order, exactly as from an Engine over the points in global order.
  auto pts = workload::RandomDiscrete(12, 2, 323);
  Engine::Config cfg;
  std::vector<int> gids(pts.size());
  std::iota(gids.rbegin(), gids.rend(), 0);  // Local j is global n-1-j.
  std::vector<UncertainPoint> local;
  for (int gid : gids) local.push_back(pts[gid]);
  serve::ShardedEngine sharded(
      std::make_shared<const Engine>(std::move(local), cfg, gids));
  Engine single(pts, cfg);
  for (Vec2 q : GridQueries(9)) {
    EXPECT_EQ(sharded.NonzeroNn(q), single.NonzeroNn(q));
    auto got = sharded.TopK(q, 4);
    auto want = single.TopK(q, 4);
    ASSERT_EQ(got.size(), want.size());
    for (size_t j = 0; j < got.size(); ++j) {
      EXPECT_EQ(got[j].first, want[j].first);
      EXPECT_NEAR(got[j].second, want[j].second, 1e-12);
    }
  }
}

}  // namespace
}  // namespace unn
