#include "engine/engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/brute_force.h"
#include "core/exact_pnn.h"
#include "prob/distance_cdf.h"
#include "workload/generators.h"

namespace unn {
namespace {

using core::UncertainPoint;
using geom::Vec2;

std::vector<Vec2> TestQueries() {
  std::vector<Vec2> qs;
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> u(-12.0, 12.0);
  for (int i = 0; i < 24; ++i) qs.push_back({u(rng), u(rng)});
  // A few structured probes: origin, far away, on top of likely centers.
  qs.push_back({0, 0});
  qs.push_back({100, 100});
  qs.push_back({1, 1});
  return qs;
}

/// Exact quantification probabilities, dense, via the definition-level
/// baselines — the oracle every backend is compared against.
std::vector<double> OracleProbabilities(const std::vector<UncertainPoint>& pts,
                                        Vec2 q) {
  bool all_discrete = true;
  for (const auto& p : pts) all_discrete = all_discrete && !p.is_disk();
  if (all_discrete) return baselines::QuantificationProbabilities(pts, q);
  std::vector<double> pi(pts.size(), 0.0);
  for (auto [id, p] : core::IntegrateAllQuantifications(pts, q, 1e-9)) {
    pi[id] = p;
  }
  return pi;
}

/// Margin between the best and second-best oracle probability — estimator
/// backends are only required to agree on the argmax when it is separated
/// by more than twice their accuracy.
double ArgmaxMargin(const std::vector<double>& pi) {
  double best = -1, second = -1;
  for (double p : pi) {
    if (p > best) {
      second = best;
      best = p;
    } else if (p > second) {
      second = p;
    }
  }
  return best - second;
}

int OracleArgmax(const std::vector<double>& pi) {
  return static_cast<int>(
      std::max_element(pi.begin(), pi.end()) - pi.begin());
}

// ---------------------------------------------------------------------------
// NN!=0 agreement: every backend answers NN!=0 exactly and must match the
// definition oracle bit-for-bit on random and degenerate inputs.
// ---------------------------------------------------------------------------

class EngineNonzeroAgreement
    : public ::testing::TestWithParam<std::tuple<const char*, Backend>> {};

std::vector<std::vector<UncertainPoint>> NonzeroInputs(bool discrete) {
  std::vector<std::vector<UncertainPoint>> inputs;
  if (discrete) {
    inputs.push_back(workload::RandomDiscrete(24, 4, 11));
    inputs.push_back(workload::RandomDiscrete(16, 3, 12, 0, 1.0, false));
    // Degenerate: coincident sites shared between points.
    std::vector<UncertainPoint> coincident;
    for (int i = 0; i < 6; ++i) {
      coincident.push_back(UncertainPoint::DiscreteUniform(
          {{1.0, 2.0}, {double(i % 3), 0.0}}));
    }
    inputs.push_back(coincident);
    // Degenerate: k = 1 certain points, one duplicated.
    inputs.push_back({UncertainPoint::DiscreteUniform({{0, 0}}),
                      UncertainPoint::DiscreteUniform({{0, 0}}),
                      UncertainPoint::DiscreteUniform({{4, 1}}),
                      UncertainPoint::DiscreteUniform({{-3, 2}})});
  } else {
    inputs.push_back(workload::RandomDisks(24, 21));
    inputs.push_back(workload::DisjointDisks(16, 2.0, 22));
    // Degenerate: coincident centers, equal radii.
    inputs.push_back({UncertainPoint::Disk({0, 0}, 1.0),
                      UncertainPoint::Disk({0, 0}, 1.0),
                      UncertainPoint::Disk({5, 0}, 1.0),
                      UncertainPoint::Disk({0, 5}, 2.0)});
    // Degenerate: equal-radius grid (the Theorem 2.8 regime).
    std::vector<UncertainPoint> grid;
    for (int i = 0; i < 3; ++i) {
      for (int j = 0; j < 3; ++j) {
        grid.push_back(UncertainPoint::Disk({i * 2.0, j * 2.0}, 1.0));
      }
    }
    inputs.push_back(grid);
  }
  return inputs;
}

TEST_P(EngineNonzeroAgreement, MatchesOracle) {
  auto [model, backend] = GetParam();
  bool discrete = std::string(model) == "discrete";
  for (const auto& pts : NonzeroInputs(discrete)) {
    Engine::Config cfg;
    cfg.backend = backend;
    Engine engine(pts, cfg);
    for (Vec2 q : TestQueries()) {
      EXPECT_EQ(engine.NonzeroNn(q), baselines::NonzeroNn(pts, q))
          << "model=" << model << " backend=" << static_cast<int>(backend)
          << " q=(" << q.x << "," << q.y << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllExactBackends, EngineNonzeroAgreement,
    ::testing::Values(
        std::make_tuple("disk", Backend::kAuto),
        std::make_tuple("disk", Backend::kMonteCarlo),  // QuantTree, as kAuto
        std::make_tuple("discrete", Backend::kAuto),
        std::make_tuple("discrete", Backend::kMonteCarlo)));

// ---------------------------------------------------------------------------
// Probabilistic queries: the estimator agrees with the exact oracle up to
// its accuracy guarantee; exact quantification (kAuto on discrete input)
// agrees exactly.
// ---------------------------------------------------------------------------

class EngineProbabilisticAgreement
    : public ::testing::TestWithParam<std::tuple<const char*, Backend>> {};

TEST_P(EngineProbabilisticAgreement, ArgmaxThresholdTopK) {
  auto [model, backend] = GetParam();
  bool discrete = std::string(model) == "discrete";
  std::vector<std::vector<UncertainPoint>> inputs;
  if (discrete) {
    inputs.push_back(workload::RandomDiscrete(12, 3, 41));
    // Degenerate: all sites coincident across points (uniform pi).
    std::vector<UncertainPoint> coincident;
    for (int i = 0; i < 4; ++i) {
      coincident.push_back(UncertainPoint::DiscreteUniform({{1.0, 1.0}}));
    }
    inputs.push_back(coincident);
  } else {
    inputs.push_back(workload::RandomDisks(10, 42, 0, 0.3, 1.0));
    // Degenerate: coincident equal-radius disks (uniform pi by symmetry).
    inputs.push_back({UncertainPoint::Disk({0, 0}, 1.0),
                      UncertainPoint::Disk({0, 0}, 1.0),
                      UncertainPoint::Disk({6, 0}, 1.0)});
  }

  const double eps = 0.02;
  for (size_t input = 0; input < inputs.size(); ++input) {
    const auto& pts = inputs[input];
    Engine::Config cfg;
    cfg.backend = backend;
    cfg.eps = eps;
    cfg.seed = 99;
    Engine engine(pts, cfg);
    bool exact = ExactQuantification(backend, discrete);
    for (Vec2 q : TestQueries()) {
      auto oracle = OracleProbabilities(pts, q);
      // On an exact tie no point is strictly nearest, so the exact
      // quantifiers give the tied mass to nobody, while Monte Carlo gives
      // each instantiation to the smaller id. The coincident discrete
      // input ties everywhere: under Monte Carlo point 0 takes it all.
      if (discrete && input == 1 && backend == Backend::kMonteCarlo) {
        std::fill(oracle.begin(), oracle.end(), 0.0);
        oracle[0] = 1.0;
      }

      // MostProbableNn: must match whenever the margin is decisive.
      int got = engine.MostProbableNn(q);
      if (exact && got < 0) {
        // No positive probability anywhere.
        EXPECT_EQ(oracle[OracleArgmax(oracle)], 0.0);
      } else if (exact) {
        EXPECT_NEAR(oracle[got], oracle[OracleArgmax(oracle)], 1e-7);
      } else if (ArgmaxMargin(oracle) > 2 * eps) {
        EXPECT_EQ(got, OracleArgmax(oracle)) << "q=(" << q.x << "," << q.y
                                             << ") model=" << model;
      }

      // Probabilities: every estimate within eps of the truth.
      double tol = exact ? 1e-6 : eps + 1e-9;
      for (auto [id, est] : engine.Probabilities(q)) {
        EXPECT_NEAR(est, oracle[id], tol);
      }

      // Threshold: no false negatives at tau, nothing hopeless reported.
      const double tau = 0.25;
      auto reported = engine.Threshold(q, tau);
      for (size_t i = 0; i < oracle.size(); ++i) {
        if (oracle[i] >= tau + (exact ? 1e-6 : 1e-9)) {
          bool found = false;
          for (auto [id, est] : reported) found = found || id == (int)i;
          EXPECT_TRUE(found) << "missing id " << i << " with pi=" << oracle[i];
        }
      }
      for (auto [id, est] : reported) {
        EXPECT_GE(oracle[id], exact ? tau - 1e-6 : tau / 2 - eps - 1e-9);
      }

      // TopK: the reported set contains every id whose probability beats
      // the k-th largest by a decisive margin.
      const int k = 2;
      auto top = engine.TopK(q, k);
      EXPECT_LE(static_cast<int>(top.size()), k);
      std::vector<double> sorted = oracle;
      std::sort(sorted.begin(), sorted.end(), std::greater<>());
      double kth = sorted.size() >= size_t(k) ? sorted[k - 1] : 0.0;
      for (size_t i = 0; i < oracle.size(); ++i) {
        if (oracle[i] > kth + (exact ? 1e-6 : 2 * eps + 1e-9)) {
          bool found = false;
          for (auto [id, est] : top) found = found || id == (int)i;
          EXPECT_TRUE(found);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, EngineProbabilisticAgreement,
    ::testing::Values(
        std::make_tuple("discrete", Backend::kMonteCarlo),
        std::make_tuple("discrete", Backend::kAuto),
        std::make_tuple("disk", Backend::kMonteCarlo)));

// ---------------------------------------------------------------------------
// Expected-distance NN: facade agrees with the definition-level scan.
// ---------------------------------------------------------------------------

TEST(EngineExpectedDistanceNn, IndexAgreesWithScan) {
  for (bool discrete : {false, true}) {
    auto pts = discrete ? workload::RandomDiscrete(20, 4, 51)
                        : workload::RandomDisks(20, 52);
    Engine engine(pts, {});
    for (Vec2 q : TestQueries()) {
      // Linear scan for the lexicographic (E[d], id) minimum.
      int scan = 0;
      for (int i = 1; i < engine.size(); ++i) {
        if (engine.ExpectedDistance(i, q) < engine.ExpectedDistance(scan, q)) {
          scan = i;
        }
      }
      int got = engine.ExpectedDistanceNn(q);
      ASSERT_GE(got, 0);
      // The index must achieve the minimum expected distance (ties
      // allowed).
      EXPECT_NEAR(engine.ExpectedDistance(got, q),
                  engine.ExpectedDistance(scan, q), 1e-7);
    }
  }
}

TEST(EngineExpectedDistanceNn, CoincidentPointsDegenerate) {
  std::vector<UncertainPoint> pts = {UncertainPoint::Disk({0, 0}, 1.0),
                                     UncertainPoint::Disk({0, 0}, 1.0),
                                     UncertainPoint::Disk({0, 0}, 2.0),
                                     UncertainPoint::Disk({7, 0}, 1.0)};
  Engine engine(pts, {});
  // Near the coincident cluster the larger-radius disk has larger E[d];
  // one of the two unit disks must win.
  int nn = engine.ExpectedDistanceNn({0.1, 0.0});
  EXPECT_TRUE(nn == 0 || nn == 1);
  // Far to the right the isolated disk wins.
  EXPECT_EQ(engine.ExpectedDistanceNn({7, 0}), 3);
}

TEST(EngineMostProbableNn, DiskQueryAtHugeMagnitudeReturnsValidId) {
  // 1e154 squared overflows to +inf. The Monte-Carlo estimator must still
  // find a winner in every instantiation (a squared-distance kd descent
  // pruned everything here and answered -1).
  auto pts = workload::RandomDisks(60, /*seed=*/5);
  Engine engine(pts, {});
  for (Vec2 q : {Vec2{1e154, 0}, Vec2{-1e154, 1e154}, Vec2{3, 1e154}}) {
    int nn = engine.MostProbableNn(q);
    EXPECT_GE(nn, 0) << q.x << "," << q.y;
    EXPECT_LT(nn, static_cast<int>(pts.size())) << q.x << "," << q.y;
  }
}

// ---------------------------------------------------------------------------
// QueryMany: batched answers identical to one-at-a-time answers.
// ---------------------------------------------------------------------------

TEST(EngineQueryMany, EmptySpanReturnsEmptyWithoutBuilding) {
  auto pts = workload::RandomDiscrete(8, 2, 62);
  Engine engine(pts, {});
  for (auto type :
       {Engine::QueryType::kMostProbableNn, Engine::QueryType::kNonzeroNn,
        Engine::QueryType::kExpectedDistanceNn}) {
    auto results =
        engine.QueryMany(std::span<const geom::Vec2>(), {type, 0.5, 1});
    EXPECT_TRUE(results.empty());
  }
  EXPECT_EQ(engine.StructuresBuilt(), 0);
}

TEST(EngineQueryMany, TopKWithNonpositiveKIsEmptyWithoutBuilding) {
  auto pts = workload::RandomDiscrete(8, 2, 63);
  Engine engine(pts, {});
  auto qs = TestQueries();
  for (int k : {0, -3}) {
    auto results = engine.QueryMany(qs, {Engine::QueryType::kTopK, 0.5, k});
    ASSERT_EQ(results.size(), qs.size());
    for (const auto& r : results) EXPECT_TRUE(r.ranked.empty());
  }
  EXPECT_EQ(engine.StructuresBuilt(), 0);
}

TEST(EngineQueryMany, ThresholdTauAboveOneOrNanIsEmptyWithoutBuilding) {
  auto pts = workload::RandomDiscrete(8, 2, 64);
  Engine engine(pts, {});
  auto qs = TestQueries();
  for (double tau : {1.5, std::numeric_limits<double>::quiet_NaN()}) {
    auto results =
        engine.QueryMany(qs, {Engine::QueryType::kThreshold, tau, 1});
    ASSERT_EQ(results.size(), qs.size());
    for (const auto& r : results) EXPECT_TRUE(r.ranked.empty());
  }
  EXPECT_EQ(engine.StructuresBuilt(), 0);
}

TEST(EngineQueryMany, ThresholdNonpositiveTauReportsEveryId) {
  auto pts = workload::RandomDiscrete(9, 2, 65);
  Engine engine(pts, {});
  auto qs = TestQueries();
  for (double tau : {0.0, -0.7}) {
    auto results =
        engine.QueryMany(qs, {Engine::QueryType::kThreshold, tau, 1});
    ASSERT_EQ(results.size(), qs.size());
    for (size_t i = 0; i < qs.size(); ++i) {
      const auto& ranked = results[i].ranked;
      // Every id reported exactly once, sorted by decreasing estimate.
      ASSERT_EQ(static_cast<int>(ranked.size()), engine.size());
      std::vector<bool> seen(pts.size(), false);
      for (size_t j = 0; j < ranked.size(); ++j) {
        seen[ranked[j].first] = true;
        if (j > 0) EXPECT_GE(ranked[j - 1].second, ranked[j].second);
      }
      for (bool s : seen) EXPECT_TRUE(s);
    }
  }
}

// ---------------------------------------------------------------------------
// Warmup: builds every structure the query type needs, exactly once; a
// warmed engine never builds under queries.
// ---------------------------------------------------------------------------

TEST(EngineWarmup, BuildsOnceAndServesWithoutBuilding) {
  for (bool discrete : {true, false}) {
    auto pts = discrete ? workload::RandomDiscrete(15, 3, 66)
                        : workload::RandomDisks(15, 67);
    Engine engine(pts, {});
    EXPECT_EQ(engine.StructuresBuilt(), 0);

    const Engine::QueryType kAllTypes[] = {
        Engine::QueryType::kMostProbableNn,
        Engine::QueryType::kExpectedDistanceNn,
        Engine::QueryType::kThreshold,
        Engine::QueryType::kTopK,
        Engine::QueryType::kNonzeroNn,
    };
    // MostProbableNn alone already builds both structures: on disks the
    // estimator and the QuantTree it borrows; on discrete sets the exact
    // quantifier and the QuantTree its envelope walks.
    engine.Warmup(Engine::QueryType::kMostProbableNn);
    EXPECT_EQ(engine.StructuresBuilt(), 2);
    for (auto type : kAllTypes) engine.Warmup(type);
    // Disks: the QuantTree (EDNN, NN!=0) and the estimator. Discrete: the
    // QuantTree (EDNN, NN!=0, the quantifier's envelope) and the exact
    // quantifier (probabilities).
    int built = engine.StructuresBuilt();
    EXPECT_EQ(built, 2);

    // Idempotent: warming again builds nothing (no structure twice).
    for (auto type : kAllTypes) engine.Warmup(type);
    EXPECT_EQ(engine.StructuresBuilt(), built);

    // Serving warmed traffic builds nothing either.
    for (Vec2 q : TestQueries()) {
      engine.MostProbableNn(q);
      engine.ExpectedDistanceNn(q);
      engine.Threshold(q, 0.5);
      engine.TopK(q, 2);
      engine.NonzeroNn(q);
    }
    EXPECT_EQ(engine.StructuresBuilt(), built);
  }
}

// NN!=0 on every model comes from the quantification index the envelope
// and the Monte-Carlo sweep share, so warming it builds exactly that one
// structure: on a discrete kAuto set too, whose exact quantifier only the
// probability queries build.
TEST(EngineWarmup, NonzeroOnDisksBuildsOneStructure) {
  auto mixed = workload::RandomDisks(12, 69);
  auto extra = workload::RandomDiscrete(6, 2, 70);
  mixed.insert(mixed.end(), extra.begin(), extra.end());
  for (const auto& pts : {workload::RandomDisks(30, 69), mixed,
                          workload::RandomDiscrete(30, 3, 71)}) {
    Engine engine(pts, {});
    engine.Warmup(Engine::QueryType::kNonzeroNn);
    EXPECT_EQ(engine.StructuresBuilt(), 1);
    engine.MaxDistEnvelope({0.5, 0.5});
    engine.SupportsWithin({0.5, 0.5}, 1.0);
    EXPECT_EQ(engine.StructuresBuilt(), 1);
  }
}

TEST(EngineWarmup, SpecOverloadWarmsTighterThresholdEstimator) {
  // tau < 2 * eps needs a tighter estimator than the plain-QueryType
  // default; the spec overload must pre-build it so the query does not.
  auto pts = workload::RandomDisks(10, 68);  // Continuous => Monte Carlo.
  Engine::Config cfg;
  cfg.eps = 0.1;
  Engine engine(pts, cfg);
  Engine::QuerySpec spec{Engine::QueryType::kThreshold, 0.05, 1};
  engine.Warmup(spec);
  int built = engine.StructuresBuilt();
  engine.Threshold({0.5, 0.5}, spec.tau);
  EXPECT_EQ(engine.StructuresBuilt(), built);
}

// A sample-count override fixes the Monte-Carlo estimator whatever the
// accuracy a query asks for, so a Threshold with tau < 2 * eps is answered
// by the estimator the default warmup built, not a rebuilt copy of it.
// The warmup builds two structures: the QuantTree and the estimator over it.
TEST(EngineWarmup, SampleOverrideKeepsOneMonteCarloEstimator) {
  auto pts = workload::RandomDisks(500, 7);  // Continuous => Monte Carlo.
  Engine::Config cfg;
  cfg.mc_samples_override = 96;
  Engine engine(pts, cfg);
  engine.Warmup(Engine::QueryType::kThreshold);
  ASSERT_EQ(engine.StructuresBuilt(), 2);
  Engine cold(pts, cfg);
  for (Vec2 q : TestQueries()) {
    EXPECT_EQ(engine.Threshold(q, 0.02), cold.Threshold(q, 0.02));
  }
  EXPECT_EQ(engine.StructuresBuilt(), 2);
}

// The Monte-Carlo estimator borrows the Engine's QuantTree: once the tree
// exists, warming the estimator builds one structure, and rebuilding it for
// more samples (tau < 2 * eps) builds one more, never a second tree; an
// estimator built first builds the tree the envelope hook then reuses. A
// discrete kMonteCarlo Engine takes NN!=0 from the tree too (the exact
// discrete quantifier serves only kAuto's probabilities), so it counts the
// same.
TEST(EngineWarmup, MonteCarloSharesTheQuantTree) {
  auto mixed = workload::RandomDisks(12, 72);
  auto extra = workload::RandomDiscrete(6, 2, 73);
  mixed.insert(mixed.end(), extra.begin(), extra.end());
  struct Case {
    std::vector<UncertainPoint> pts;
    Backend backend;
  };
  const Case cases[] = {{workload::RandomDisks(20, 72), Backend::kAuto},
                        {mixed, Backend::kAuto},
                        {workload::RandomDiscrete(15, 3, 74),
                         Backend::kMonteCarlo}};
  const double tau = 0.05;  // < 2 * eps: needs more samples.
  for (const Case& c : cases) {
    Engine::Config cfg;
    cfg.backend = c.backend;
    Engine engine(c.pts, cfg);
    engine.Warmup(Engine::QueryType::kNonzeroNn);
    EXPECT_EQ(engine.StructuresBuilt(), 1);
    engine.MaxDistEnvelope({0.5, 0.5});
    EXPECT_EQ(engine.StructuresBuilt(), 1);
    engine.Warmup(Engine::QueryType::kMostProbableNn);
    EXPECT_EQ(engine.StructuresBuilt(), 2);
    Engine cold(c.pts, cfg);
    for (Vec2 q : TestQueries()) {
      EXPECT_EQ(engine.Threshold(q, tau), cold.Threshold(q, tau));
    }
    EXPECT_EQ(engine.StructuresBuilt(), 3);
    // Estimator first: it builds the tree, which the envelope hook reuses.
    EXPECT_EQ(cold.StructuresBuilt(), 2);
    cold.MaxDistEnvelope({0.5, 0.5});
    EXPECT_EQ(cold.StructuresBuilt(), 2);
  }
}

// E[d] is a per-point closed form: the hook reads the point and builds
// nothing.
TEST(EngineWarmup, ExpectedDistanceBuildsNothing) {
  auto pts = workload::RandomDisks(10, 75);
  auto extra = workload::RandomDiscrete(5, 3, 76);
  pts.insert(pts.end(), extra.begin(), extra.end());
  Engine engine(pts);
  for (int i = 0; i < engine.size(); ++i) {
    for (Vec2 q : TestQueries()) {
      EXPECT_EQ(engine.ExpectedDistance(i, q),
                prob::ExpectedDistance(pts[i], q));
    }
  }
  EXPECT_EQ(engine.StructuresBuilt(), 0);
}

// Every request is answered from the first instantiations it needs, so a
// larger estimator built for an earlier, tighter request does not change
// later answers: an Engine's answers do not depend on its query history.
TEST(EngineMonteCarlo, AnswersDoNotDependOnQueryHistory) {
  auto pts = workload::RandomDisks(200, 7);  // Continuous => Monte Carlo.
  Engine fresh(pts);
  Engine used(pts);
  used.Threshold({0.5, 0.5}, 0.08);  // tau / 2 < eps: more samples.
  std::mt19937_64 rng(71);
  std::uniform_real_distribution<double> u(-35.0, 35.0);
  for (int i = 0; i < 50; ++i) {
    Vec2 q{u(rng), u(rng)};
    EXPECT_EQ(used.TopK(q, 3), fresh.TopK(q, 3)) << "i=" << i;
  }
}

// The single-query methods are packs of one, so degenerate parameters get
// QueryMany's definition-level answers instead of aborting the process.
TEST(EngineSingleQuery, DegenerateParametersAnswerDefinitionLevel) {
  auto pts = workload::RandomDiscrete(9, 2, 69);
  Engine engine(pts, {});
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (Vec2 q : TestQueries()) {
    for (int k : {0, -3}) EXPECT_TRUE(engine.TopK(q, k).empty());
    for (double tau : {1.5, inf, nan}) {
      EXPECT_TRUE(engine.Threshold(q, tau).empty()) << "tau=" << tau;
    }
  }
  // Empty answers by definition touch no backend.
  EXPECT_EQ(engine.StructuresBuilt(), 0);
  for (Vec2 q : TestQueries()) {
    for (double tau : {0.0, -0.7, -inf}) {
      // Every pi reaches a non-positive threshold: every id, once.
      auto ranked = engine.Threshold(q, tau);
      ASSERT_EQ(static_cast<int>(ranked.size()), engine.size());
      EXPECT_EQ(ranked,
                engine.QueryMany({&q, 1}, {Engine::QueryType::kThreshold, tau})
                    .front()
                    .ranked);
    }
  }
}

TEST(EngineQueryMany, MatchesSingleQueries) {
  auto pts = workload::RandomDiscrete(15, 3, 61);
  Engine engine(pts, {});
  auto qs = TestQueries();

  auto nn = engine.QueryMany(qs, {Engine::QueryType::kMostProbableNn});
  auto ed = engine.QueryMany(qs, {Engine::QueryType::kExpectedDistanceNn});
  Engine::QuerySpec thr{Engine::QueryType::kThreshold, 0.3, 1};
  auto th = engine.QueryMany(qs, thr);
  Engine::QuerySpec topk{Engine::QueryType::kTopK, 0.5, 3};
  auto tk = engine.QueryMany(qs, topk);
  auto nz = engine.QueryMany(qs, {Engine::QueryType::kNonzeroNn});

  ASSERT_EQ(nn.size(), qs.size());
  for (size_t i = 0; i < qs.size(); ++i) {
    EXPECT_EQ(nn[i].nn, engine.MostProbableNn(qs[i]));
    EXPECT_EQ(ed[i].nn, engine.ExpectedDistanceNn(qs[i]));
    EXPECT_EQ(th[i].ranked, engine.Threshold(qs[i], 0.3));
    EXPECT_EQ(tk[i].ranked, engine.TopK(qs[i], 3));
    EXPECT_EQ(nz[i].ids, engine.NonzeroNn(qs[i]));
  }
}

// The envelope hook writes one slot per query: a span of another length
// aborts before anything is written, instead of writing past its end.
TEST(EngineDeathTest, MaxDistEnvelopeManyChecksOutputSize) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  Engine engine(workload::RandomDisks(12, 63), {});
  auto qs = TestQueries();
  for (size_t slots : {size_t{0}, qs.size() - 1, qs.size() + 1}) {
    std::vector<core::DeltaEnvelope> out(slots);
    EXPECT_DEATH(engine.MaxDistEnvelopeMany(qs, out), "one output slot");
  }
}

}  // namespace
}  // namespace unn
