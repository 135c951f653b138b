// Differential fuzz harness for the batched traversal kernels
// (spatial/batch.h, geom/lanes.h): every lane kernel must be
// bit-identical to its scalar counterpart, and Engine's envelope loop to
// the linear scan — including argmin tie semantics — on adversarial
// inputs: clustered sites, coincident anchors, duplicated points, equal
// radii, duplicate coordinates, and queries snapped onto site coordinates
// so distances tie exactly. The quantification index's NN!=0 must equal
// Lemma 2.1 on those sets, on mixed-model sets and far from the data.
// The Monte-Carlo estimator is checked against its definition instead:
// the instantiations redrawn and every one scanned over all n points,
// and kAuto's exact discrete quantification against Eq. (2) itself. At
// the Engine level, where QueryMany is the only path, a query's answer
// must not depend on its pack. Batch sizes sweep 1..2*kLaneWidth+1,
// covering every pack size 1..8 and ragged final packs. CTest runs a
// fixed seeded corpus; the nightly CI job raises the iteration count
// through UNN_FUZZ_ITERS.

#include <algorithm>
#include <cmath>
#include <functional>
#include <iterator>
#include <limits>
#include <random>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/brute_force.h"
#include "core/exact_pnn.h"
#include "core/monte_carlo_pnn.h"
#include "core/quant_tree.h"
#include "core/uncertain_point.h"
#include "engine/engine.h"
#include "fuzz_iters.h"
#include "geom/lanes.h"
#include "prob/distributions.h"
#include "workload/generators.h"

namespace unn {
namespace {

using core::UncertainPoint;
using geom::Vec2;

// ---------------------------------------------------------------------------
// Adversarial generators. All deterministic in the seed.
// ---------------------------------------------------------------------------

/// Discrete points in a handful of tight clusters; site coordinates are
/// snapped to a coarse grid so exact duplicates appear across points.
std::vector<UncertainPoint> ClusteredDiscrete(int n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(-8, 8);
  std::uniform_int_distribution<int> grid(-6, 6);
  std::uniform_int_distribution<int> nsites(1, 4);
  int clusters = 3 + static_cast<int>(seed % 4);
  std::vector<Vec2> centers(clusters);
  for (auto& c : centers) c = {u(rng), u(rng)};
  std::vector<UncertainPoint> pts;
  pts.reserve(n);
  for (int i = 0; i < n; ++i) {
    Vec2 c = centers[i % clusters];
    int k = nsites(rng);
    std::vector<Vec2> sites(k);
    for (auto& s : sites) {
      s = {c.x + grid(rng) * 0.25, c.y + grid(rng) * 0.25};
    }
    pts.push_back(UncertainPoint::DiscreteUniform(std::move(sites)));
  }
  return pts;
}

/// Many points sharing the exact same mean (sites mirrored around a few
/// anchors), so expected-squared values tie whenever variances do — the
/// hardest case for argmin tie-breaking.
std::vector<UncertainPoint> CoincidentAnchors(int n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(-5, 5);
  std::uniform_int_distribution<int> offset(1, 3);
  int anchors = 2 + static_cast<int>(seed % 3);
  std::vector<Vec2> centers(anchors);
  for (auto& c : centers) c = {u(rng), u(rng)};
  std::vector<UncertainPoint> pts;
  pts.reserve(n);
  for (int i = 0; i < n; ++i) {
    Vec2 c = centers[i % anchors];
    // Half the points repeat the same mirrored pair (exact duplicates,
    // equal mean AND equal variance); the rest vary the offset.
    double d = (i % 2 == 0) ? 0.5 : offset(rng) * 0.5;
    pts.push_back(UncertainPoint::DiscreteUniform(
        {{c.x - d, c.y}, {c.x + d, c.y}}));
  }
  return pts;
}

/// Disks with equal radii, several on exactly coincident centers.
std::vector<UncertainPoint> EqualRadiusDisks(int n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> grid(-5, 5);
  std::vector<UncertainPoint> pts;
  pts.reserve(n);
  for (int i = 0; i < n; ++i) {
    Vec2 c{grid(rng) * 1.0, grid(rng) * 1.0};  // Coarse grid: collisions.
    pts.push_back(UncertainPoint::Disk(c, 0.75));
  }
  return pts;
}

/// Queries that frequently coincide with the grid the generators snap
/// sites to (exact zero distances and exact ties), mixed with random
/// off-grid points.
std::vector<Vec2> AdversarialQueries(int n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(-9, 9);
  std::uniform_int_distribution<int> grid(-8, 8);
  std::vector<Vec2> qs(n);
  for (int i = 0; i < n; ++i) {
    if (i % 3 == 0) {
      qs[i] = {u(rng), u(rng)};
    } else {
      qs[i] = {grid(rng) * 0.25, grid(rng) * 0.25};
    }
  }
  return qs;
}

std::vector<UncertainPoint> AdversarialSet(int which, int n, uint64_t seed) {
  switch (which % 4) {
    case 0:
      return ClusteredDiscrete(n, seed);
    case 1:
      return CoincidentAnchors(n, seed);
    case 2:
      return EqualRadiusDisks(n, seed);
    default:
      return workload::RandomDiscrete(n, 3, seed);
  }
}

/// Disks and discrete points in one set, on overlapping grids so their
/// supports tie: the model mix no homogeneous index covers.
std::vector<UncertainPoint> MixedModels(int n, uint64_t seed) {
  std::vector<UncertainPoint> pts = EqualRadiusDisks(n - n / 2, seed);
  std::vector<UncertainPoint> discrete = ClusteredDiscrete(n / 2, seed + 1);
  pts.insert(pts.end(), discrete.begin(), discrete.end());
  return pts;
}

/// MixedModels moved by `offset`: at |offset| ~ 1e15 one ulp is 0.125,
/// so the grid survives exactly while distances round coarsely.
std::vector<UncertainPoint> Translated(const std::vector<UncertainPoint>& pts,
                                       Vec2 offset) {
  std::vector<UncertainPoint> out;
  out.reserve(pts.size());
  for (const UncertainPoint& p : pts) {
    if (p.is_disk()) {
      out.push_back(UncertainPoint::Disk(p.center() + offset, p.radius()));
      continue;
    }
    std::vector<Vec2> sites = p.sites();
    for (Vec2& s : sites) s = s + offset;
    out.push_back(UncertainPoint::Discrete(std::move(sites), p.weights()));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Kernel-level differentials
// ---------------------------------------------------------------------------

// The envelope hook the shard merges call: one scalar QuantTree walk per
// query, bit-identical to the linear scan it replaces (argmin ties toward
// the smaller id included).
TEST(BatchFuzz, QuantTreeEnvelopeBatchBitIdentical) {
  int iters = FuzzIters(8);
  for (int it = 0; it < iters; ++it) {
    uint64_t seed = 5000 + 19 * static_cast<uint64_t>(it);
    auto pts = AdversarialSet(it, 40 + (it % 5) * 21, seed);
    Engine engine(pts, {});
    for (int m = 1; m <= 2 * geom::kLaneWidth + 1; ++m) {
      auto qs = AdversarialQueries(m, seed + m);
      std::vector<core::DeltaEnvelope> got(qs.size());
      spatial::BatchStats stats;
      engine.MaxDistEnvelopeMany(qs, got, &stats);
      // Every walk enters the root; no lane kernel runs.
      EXPECT_GE(stats.nodes_visited, m);
      EXPECT_EQ(stats.lane_nodes_visited, 0);
      for (size_t i = 0; i < qs.size(); ++i) {
        auto want = core::TwoSmallestMaxDist(pts, qs[i]);
        EXPECT_EQ(got[i].best, want.best)
            << "it=" << it << " m=" << m << " i=" << i;
        EXPECT_EQ(got[i].second, want.second)
            << "it=" << it << " m=" << m << " i=" << i;
        EXPECT_EQ(got[i].argbest, want.argbest)
            << "it=" << it << " m=" << m << " i=" << i;
      }
    }
  }
}

// NN!=0 from the quantification index (Lemma 2.1 over SupportsWithin of
// the envelope's Delta) equals the definition on every model: disk,
// discrete, mixed, coincident and huge-magnitude sets, queried in the
// set's extent and far outside it, where an argmin's delta and Delta
// round to one double and only the runner-up comparison keeps it.
TEST(BatchFuzz, QuantTreeNonzeroMatchesOracle) {
  const Vec2 kDirections[] = {{1, 0}, {-1, 0}, {0, 1}, {0.6, -0.8}};
  const Vec2 kHuge{1e15, -1e15};
  int iters = FuzzIters(8);
  for (int it = 0; it < iters; ++it) {
    uint64_t seed = 5500 + 23 * static_cast<uint64_t>(it);
    int n = 30 + (it % 4) * 17;
    std::vector<std::pair<std::vector<UncertainPoint>, Vec2>> sets = {
        {AdversarialSet(it, n, seed), {0, 0}},
        {MixedModels(n, seed), {0, 0}},
        {Translated(MixedModels(n, seed), kHuge), kHuge},
    };
    for (const auto& [pts, origin] : sets) {
      core::QuantTree tree(&pts);
      std::vector<Vec2> qs = AdversarialQueries(24, seed + 7);
      for (Vec2& q : qs) q = q + origin;
      for (double scale : {1e15, 1e154, 1e300}) {
        for (Vec2 d : kDirections) qs.push_back(d * scale);
      }
      for (Vec2 q : qs) {
        // The envelope stays the scan's, argmin ties included, where the
        // squared box distance overflows (|q| >= ~1e154).
        core::DeltaEnvelope env = tree.MaxDistEnvelope(q);
        core::DeltaEnvelope want_env = core::TwoSmallestMaxDist(pts, q);
        EXPECT_EQ(env.best, want_env.best) << "it=" << it << " q.x=" << q.x;
        EXPECT_EQ(env.second, want_env.second) << "it=" << it;
        EXPECT_EQ(env.argbest, want_env.argbest)
            << "it=" << it << " q=(" << q.x << "," << q.y << ")";
        std::vector<int> got = tree.NonzeroNn(q);
        EXPECT_EQ(got, baselines::NonzeroNn(pts, q))
            << "it=" << it << " n=" << pts.size() << " q=(" << q.x << ","
            << q.y << ")";
        EXPECT_TRUE(std::adjacent_find(got.begin(), got.end(),
                                       std::greater_equal<int>()) ==
                    got.end());
        for (int id : got) EXPECT_TRUE(id >= 0 && id < tree.size());
        // The expected-distance search on the same tree: the definition's
        // lexicographic argmin, far from the data too.
        EXPECT_EQ(tree.ExpectedDistanceNn(q),
                  baselines::ExpectedDistanceNn(pts, q))
            << "it=" << it << " q=(" << q.x << "," << q.y << ")";
      }
    }
  }
}

// A discrete kAuto Engine takes NN!=0 from the quantification index, like
// every other Engine: a full pack and a pack of one both equal Lemma 2.1.
TEST(BatchFuzz, NonzeroDiscreteEngineMatchesLemma21) {
  int iters = FuzzIters(6);
  const Engine::QuerySpec nonzero{Engine::QueryType::kNonzeroNn, 0.5, 1};
  for (int it = 0; it < iters; ++it) {
    uint64_t seed = 8000 + 37 * static_cast<uint64_t>(it);
    int which = it % 3;
    auto pts = which == 0   ? ClusteredDiscrete(32 + it * 7, seed)
               : which == 1 ? CoincidentAnchors(32 + it * 7, seed)
                            : workload::RandomDiscrete(32 + it * 7, 3, seed);
    Engine engine(pts);
    for (int m = 1; m <= 2 * geom::kLaneWidth + 1; ++m) {
      auto qs = AdversarialQueries(m, seed + m);
      auto packed = engine.QueryMany(qs, nonzero);
      ASSERT_EQ(packed.size(), qs.size());
      for (size_t i = 0; i < qs.size(); ++i) {
        std::vector<int> want = baselines::NonzeroNn(pts, qs[i]);
        EXPECT_EQ(packed[i].ids, want)
            << "it=" << it << " m=" << m << " i=" << i;
        EXPECT_EQ(engine.NonzeroNn(qs[i]), want)
            << "it=" << it << " m=" << m << " i=" << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Exact discrete quantification: kAuto's candidate sweep against Eq. (2)
// over every site. The sweep runs the same accumulation over the same
// (distance, site id) prefix, so the answers are equal, not just close.
// ---------------------------------------------------------------------------

/// Discrete corpora for the candidate sweep: uniform and skewed weights,
/// duplicated points, sites shared across points (a coarse grid), certain
/// (k = 1) points, and one tight cluster.
std::vector<UncertainPoint> SweepCorpus(int which, int n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(-8, 8);
  std::uniform_real_distribution<double> unit(0, 1);
  std::uniform_int_distribution<int> grid(-6, 6);
  std::uniform_int_distribution<int> nsites(1, 4);
  switch (which % 6) {
    case 0:
      return workload::RandomDiscrete(n, 3, seed);
    case 1: {  // Skewed weights: w ~ u^4 spans orders of magnitude.
      std::vector<UncertainPoint> pts;
      for (int i = 0; i < n; ++i) {
        Vec2 c{u(rng), u(rng)};
        std::vector<Vec2> sites(nsites(rng));
        std::vector<double> w(sites.size());
        double total = 0;
        for (size_t s = 0; s < sites.size(); ++s) {
          sites[s] = {c.x + unit(rng) - 0.5, c.y + unit(rng) - 0.5};
          double x = 0.05 + unit(rng);
          w[s] = x * x * x * x;
          total += w[s];
        }
        for (double& x : w) x /= total;
        pts.push_back(UncertainPoint::Discrete(std::move(sites), w));
      }
      return pts;
    }
    case 2: {  // Every point appears twice.
      auto base = workload::RandomDiscrete(n / 2 + 1, 2, seed, 0.0, 1.0,
                                           /*uniform_weights=*/false);
      std::vector<UncertainPoint> pts;
      for (const auto& p : base) {
        pts.push_back(p);
        pts.push_back(p);
      }
      pts.erase(pts.begin() + n, pts.end());
      return pts;
    }
    case 3: {  // Sites on a coarse grid, so points share locations.
      std::vector<UncertainPoint> pts;
      for (int i = 0; i < n; ++i) {
        std::vector<Vec2> sites(nsites(rng));
        for (auto& s : sites) s = {grid(rng) * 0.5, grid(rng) * 0.5};
        pts.push_back(UncertainPoint::DiscreteUniform(std::move(sites)));
      }
      return pts;
    }
    case 4: {  // Every other point is certain.
      auto pts = workload::RandomDiscrete(n, 3, seed);
      for (int i = 0; i < n; i += 2) {
        pts[i] = UncertainPoint::DiscreteUniform({{u(rng), u(rng)}});
      }
      return pts;
    }
    default:
      return ClusteredDiscrete(n, seed);
  }
}

/// AdversarialQueries with every third query moved onto a site, where a
/// distance is exactly zero.
std::vector<Vec2> SweepQueries(const std::vector<UncertainPoint>& pts, int m,
                               uint64_t seed) {
  std::vector<Vec2> qs = AdversarialQueries(m, seed);
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<size_t> pick(0, pts.size() - 1);
  for (int i = 1; i < m; i += 3) {
    const auto& sites = pts[pick(rng)].sites();
    qs[i] = sites[pick(rng) % sites.size()];
  }
  return qs;
}

TEST(BatchFuzz, DiscreteCandidateSweepMatchesDefinition) {
  int iters = FuzzIters(12);
  const Engine::QuerySpec mpnn{Engine::QueryType::kMostProbableNn, 0.5, 1};
  const Engine::QuerySpec threshold{Engine::QueryType::kThreshold, 0.2, 1};
  const Engine::QuerySpec top_k{Engine::QueryType::kTopK, 0.5, 3};
  const Engine::QuerySpec nonzero{Engine::QueryType::kNonzeroNn, 0.5, 1};
  for (int it = 0; it < iters; ++it) {
    uint64_t seed = 15000 + 53 * static_cast<uint64_t>(it);
    auto pts = SweepCorpus(it, 20 + it * 7, seed);
    Engine engine(pts);  // kAuto: the candidate sweep on discrete input.
    for (int m = 1; m <= 2 * geom::kLaneWidth + 1; ++m) {
      auto qs = SweepQueries(pts, m, seed + m);
      auto probs = engine.ProbabilitiesMany(qs);
      auto best = engine.QueryMany(qs, mpnn);
      auto above = engine.QueryMany(qs, threshold);
      auto top = engine.QueryMany(qs, top_k);
      auto support = engine.QueryMany(qs, nonzero);
      ASSERT_EQ(probs.size(), qs.size());
      for (size_t i = 0; i < qs.size(); ++i) {
        const Vec2 q = qs[i];
        EXPECT_EQ(probs[i], core::DiscreteQuantification(pts, q))
            << "it=" << it << " m=" << m << " i=" << i;
        EXPECT_EQ(probs[i], engine.Probabilities(q))
            << "it=" << it << " m=" << m << " i=" << i;
        // pi > 0 exactly on NN!=0.
        const std::vector<int>& nz = support[i].ids;
        std::vector<int> positive;
        for (auto [id, pi] : probs[i]) positive.push_back(id);
        EXPECT_EQ(positive, nz) << "it=" << it << " m=" << m << " i=" << i;
        auto in_nz = [&](int id) {
          return std::binary_search(nz.begin(), nz.end(), id);
        };
        EXPECT_EQ(best[i].nn < 0, nz.empty());
        if (best[i].nn >= 0) EXPECT_TRUE(in_nz(best[i].nn));
        EXPECT_EQ(best[i].nn, engine.MostProbableNn(q));
        // Exact: Threshold reports exactly {pi >= tau}, inside NN!=0.
        size_t reaching = 0;
        for (auto [id, pi] : probs[i]) reaching += pi >= threshold.tau;
        EXPECT_EQ(above[i].ranked.size(), reaching);
        for (auto [id, pi] : above[i].ranked) {
          EXPECT_TRUE(in_nz(id)) << "it=" << it << " m=" << m << " i=" << i;
          EXPECT_GE(pi, threshold.tau);
        }
        EXPECT_EQ(above[i].ranked, engine.Threshold(q, threshold.tau));
        EXPECT_EQ(top[i].ranked, engine.TopK(q, top_k.k));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Monte-Carlo differential oracle: the candidate sweep against the
// estimator's definition, every instantiation scanned over all n points.
// ---------------------------------------------------------------------------

/// The s instantiations by the documented keyed draw: point i keyed by
/// its id, x_ij = prob::KeyedSample(P_i, seed, i, j).
std::vector<std::vector<Vec2>> DrawInstantiations(
    const std::vector<UncertainPoint>& pts, uint64_t seed, int s) {
  std::vector<std::vector<Vec2>> inst(s, std::vector<Vec2>(pts.size()));
  for (int j = 0; j < s; ++j) {
    for (size_t i = 0; i < pts.size(); ++i) {
      inst[j][i] = prob::KeyedSample(pts[i], seed, i, j);
    }
  }
  return inst;
}

/// hat-pi by definition: the winner of each instantiation is the first
/// strict minimum of Dist over all n points in id order (ties toward the
/// smaller id); a non-finite query has no estimates.
std::vector<std::pair<int, double>> MonteCarloOracle(
    const std::vector<std::vector<Vec2>>& inst, Vec2 q) {
  if (!std::isfinite(q.x) || !std::isfinite(q.y)) return {};
  std::vector<int> wins(inst[0].size(), 0);
  for (const std::vector<Vec2>& r : inst) {
    int best = 0;
    double best_d = Dist(q, r[0]);
    for (size_t i = 1; i < r.size(); ++i) {
      double d = Dist(q, r[i]);
      if (d < best_d) {
        best_d = d;
        best = static_cast<int>(i);
      }
    }
    ++wins[best];
  }
  std::vector<std::pair<int, double>> out;
  for (size_t i = 0; i < wins.size(); ++i) {
    if (wins[i] > 0) {
      out.push_back({static_cast<int>(i),
                     wins[i] / static_cast<double>(inst.size())});
    }
  }
  return out;
}

/// Corpora for the oracle, each with queries aimed at its exact ties:
/// grid-snapped queries moved by `shift`, plus support boundaries and
/// sites.
struct McCorpus {
  const char* name;
  std::vector<UncertainPoint> pts;
  Vec2 shift;
  std::vector<Vec2> queries;
};

std::vector<McCorpus> MonteCarloCorpora(uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> grid(-6, 6);
  std::vector<McCorpus> out;
  out.push_back({"uniform_disks", workload::RandomDisks(48, seed), {}, {}});
  auto gauss = workload::RandomDisks(48, seed + 1);
  for (auto& d : gauss) {
    d = UncertainPoint::Disk(d.center(), d.radius(),
                             core::DiskPdf::kTruncatedGaussian);
  }
  out.push_back({"gaussian_disks", std::move(gauss), {}, {}});
  // Certain points on a coarse grid: exact duplicate sites across ids,
  // so instantiation ties are exact and only the id rule decides them.
  std::vector<UncertainPoint> certain;
  for (int i = 0; i < 40; ++i) {
    certain.push_back(UncertainPoint::Discrete(
        {{grid(rng) * 0.5, grid(rng) * 0.5}}, {1.0}));
  }
  out.push_back({"certain_points", std::move(certain), {}, {}});
  out.push_back({"duplicate_sites", ClusteredDiscrete(40, seed), {}, {}});
  out.push_back({"coincident_anchors", CoincidentAnchors(40, seed), {}, {}});
  out.push_back({"equal_radii", EqualRadiusDisks(40, seed), {}, {}});
  auto mixed = EqualRadiusDisks(20, seed + 2);
  for (auto& p : ClusteredDiscrete(20, seed + 3)) mixed.push_back(p);
  out.push_back({"mixed", std::move(mixed), {}, {}});
  // A cluster 1e8 away from the origin: the absolute term of the guard
  // band scales with the coordinates, not with the radii.
  std::vector<UncertainPoint> far;
  const Vec2 offset{1e8, -1e8};
  for (int i = 0; i < 40; ++i) {
    far.push_back(UncertainPoint::Disk(
        offset + Vec2{grid(rng) * 0.5, grid(rng) * 0.5}, 1.0));
  }
  out.push_back({"far_offset", std::move(far), offset, {}});
  for (McCorpus& c : out) {
    for (Vec2 q : AdversarialQueries(12, seed + 5)) {
      c.queries.push_back(q + c.shift);
    }
    for (size_t i = 0; i < c.pts.size(); i += 5) {
      const UncertainPoint& p = c.pts[i];
      if (p.is_disk()) {
        c.queries.push_back(p.center() + Vec2{p.radius(), 0});
        c.queries.push_back(p.center() - Vec2{0, p.radius()});
        c.queries.push_back(p.center());
      } else {
        c.queries.push_back(p.sites().front());
      }
    }
  }
  return out;
}

TEST(BatchFuzz, MonteCarloMatchesDefinitionOracle) {
  int iters = FuzzIters(2);
  int checked = 0;
  for (int it = 0; it < iters; ++it) {
    uint64_t seed = 12000 + 47 * static_cast<uint64_t>(it);
    for (const McCorpus& c : MonteCarloCorpora(seed)) {
      core::MonteCarloPnnOptions opts;
      opts.s_override = 24;
      opts.seed = seed;
      core::QuantTree tree(&c.pts);
      core::MonteCarloPnn mc(&tree, opts);
      auto inst = DrawInstantiations(c.pts, seed, opts.s_override);
      std::vector<std::vector<std::pair<int, double>>> want;
      for (Vec2 q : c.queries) want.push_back(MonteCarloOracle(inst, q));
      for (size_t i = 0; i < c.queries.size(); ++i) {
        EXPECT_EQ(mc.Query(c.queries[i]), want[i])
            << c.name << " it=" << it << " i=" << i;
      }
      // Batched == scalar == oracle for every batch size 1..17: the
      // corpus' queries cut into consecutive batches of m.
      const size_t nq = c.queries.size();
      for (int m = 1; m <= 2 * geom::kLaneWidth + 1; ++m) {
        for (size_t base = 0; base + m <= nq; base += m) {
          std::span<const Vec2> qs(c.queries.data() + base, m);
          spatial::BatchStats stats;
          auto got = mc.QueryBatch(qs, &stats);
          ASSERT_EQ(got.size(), qs.size());
          // One envelope walk per (finite) query, each entering the root.
          EXPECT_GE(stats.nodes_visited, m);
          for (int i = 0; i < m; ++i) {
            EXPECT_EQ(got[i], want[base + i])
                << c.name << " it=" << it << " m=" << m << " i=" << base + i;
            ++checked;
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 1000);
}

// ---------------------------------------------------------------------------
// Engine-level pack independence: QueryMany is the one execution path of
// every query type, so a query's answer inside a full pack must equal its
// pack-of-one answer, for all five types and every pack size — and match
// the definition-level oracles where they are exact. Every fifth query
// has a NaN or infinite coordinate; those get no probability estimates,
// no expected-distance NN and an empty NN!=0.
// ---------------------------------------------------------------------------

TEST(BatchFuzz, EngineQueryManyPackIndependent) {
  const double inf = std::numeric_limits<double>::infinity();
  const Vec2 kNonFinite[] = {{std::nan(""), 0.2}, {0.3, std::nan("")},
                             {inf, 0.5}, {-inf, -0.5}, {0.1, inf}};
  int iters = FuzzIters(3);
  const Engine::QuerySpec specs[] = {
      {Engine::QueryType::kMostProbableNn, 0.5, 1},
      {Engine::QueryType::kExpectedDistanceNn, 0.5, 1},
      {Engine::QueryType::kThreshold, 0.25, 1},
      {Engine::QueryType::kTopK, 0.5, 3},
      {Engine::QueryType::kNonzeroNn, 0.5, 1},
  };
  for (int it = 0; it < iters; ++it) {
    uint64_t seed = 4000 + 7 * static_cast<uint64_t>(it);
    auto pts = AdversarialSet(it, 24 + it * 9, seed);
    Engine engine(pts);
    for (int m = 1; m <= 2 * geom::kLaneWidth + 1; ++m) {
      auto qs = AdversarialQueries(m, seed + 99 + m);
      for (int i = 2; i < m; i += 5) {
        qs[i] = kNonFinite[(i / 5 + it) % std::size(kNonFinite)];
      }
      for (const Engine::QuerySpec& spec : specs) {
        auto pack = engine.QueryMany(qs, spec);
        ASSERT_EQ(pack.size(), qs.size());
        for (size_t i = 0; i < qs.size(); ++i) {
          auto alone = engine.QueryMany({&qs[i], 1}, spec);
          ASSERT_EQ(alone.size(), 1u);
          EXPECT_EQ(pack[i].nn, alone[0].nn)
              << "it=" << it << " m=" << m << " i=" << i;
          EXPECT_EQ(pack[i].ranked, alone[0].ranked)
              << "it=" << it << " m=" << m << " i=" << i;
          EXPECT_EQ(pack[i].ids, alone[0].ids)
              << "it=" << it << " m=" << m << " i=" << i;
        }
      }
      // Definition-level oracles. NN!=0 is undefined exactly on diagram
      // edges (zero margin), so those queries are skipped; the
      // expected-distance argmin is the definition's on every model.
      auto nonzero = engine.QueryMany(qs, specs[4]);
      auto nearest = engine.QueryMany(qs, specs[1]);
      auto most_probable = engine.QueryMany(qs, specs[0]);
      auto threshold = engine.QueryMany(qs, specs[2]);
      auto top_k = engine.QueryMany(qs, specs[3]);
      for (size_t i = 0; i < qs.size(); ++i) {
        if (!geom::IsFinite(qs[i])) {
          EXPECT_EQ(most_probable[i].nn, -1) << "it=" << it << " i=" << i;
          EXPECT_EQ(nearest[i].nn, -1) << "it=" << it << " i=" << i;
          EXPECT_TRUE(nonzero[i].ids.empty()) << "it=" << it << " i=" << i;
          EXPECT_TRUE(threshold[i].ranked.empty()) << "it=" << it;
          EXPECT_TRUE(top_k[i].ranked.empty()) << "it=" << it;
          continue;
        }
        if (core::NonzeroNnMargin(pts, qs[i]) >= 1e-6) {
          EXPECT_EQ(nonzero[i].ids, baselines::NonzeroNn(pts, qs[i]))
              << "it=" << it << " m=" << m << " i=" << i;
        }
        EXPECT_EQ(nearest[i].nn, baselines::ExpectedDistanceNn(pts, qs[i]))
            << "it=" << it << " m=" << m << " i=" << i;
      }
    }
  }
}

// The single-query entry point and the batched path must agree too (the
// result cache mixes the two freely under one snapshot key).
TEST(BatchFuzz, SingleQueryAgreesWithBatchedQueryMany) {
  auto pts = CoincidentAnchors(36, 77);
  Engine engine(pts);
  auto qs = AdversarialQueries(19, 78);
  auto many = engine.QueryMany(
      qs, {Engine::QueryType::kExpectedDistanceNn, 0.5, 1});
  for (size_t i = 0; i < qs.size(); ++i) {
    EXPECT_EQ(many[i].nn, engine.ExpectedDistanceNn(qs[i]));
  }
}

}  // namespace
}  // namespace unn
