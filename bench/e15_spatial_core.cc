// Experiment E15 — the pack path behind Engine::QueryMany: a pack of one
// against a full pack. Every query type has one execution path,
// QueryMany over a Morton-sorted pack, so the fair question is what a
// full pack buys over the same queries answered one per call
// (`QueryMany({&q, 1})`, what a single Submit pays) on the same Engine.
// Both sides are pruned; neither is an unpruned scan.
//
// Rows, one Engine per input model:
//   batched_qm         ExpectedDistanceNn on discrete points (QuantTree);
//   batched_mpnn       MostProbableNn on disks (Monte-Carlo backend:
//   batched_threshold  Threshold        the scalar envelope walk, then
//   batched_topk       TopK             the candidate sweep, per query);
//   batched_nonzero    NonzeroNn on discrete points (QuantTree).
//
// Each row reports µs per query for both sides, their ratio as
// batched_speedup, and the lane utilization and scalar replays of the
// row's lane kernel, with the lane ISA as provenance; no row's query
// type runs a lane kernel, so their lane counters read 0. The discrete
// rows also report scalar_sorted_us: their QuantTree query alone, looped
// over the Morton-sorted pack. Exactness is the gate: a query must get
// the same answer in a full pack as alone, and any mismatch fails the
// run. The ratio is reported without a floor.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/quant_tree.h"
#include "core/uncertain_point.h"
#include "engine/engine.h"
#include "geom/lanes.h"
#include "spatial/batch.h"
#include "workload/generators.h"

using namespace unn;
using geom::Vec2;

namespace {

bool SameResult(const Engine::QueryResult& a, const Engine::QueryResult& b) {
  return a.nn == b.nn && a.ranked == b.ranked && a.ids == b.ids;
}

}  // namespace

int main(int argc, char** argv) {
  auto args = bench::ParseArgs(argc, argv);
  bench::JsonEmitter json("e15");
  printf("E15: Engine::QueryMany, pack of one vs full pack\n");
  printf("%-18s %9s %7s %11s %11s %8s %11s %6s\n", "structure", "n",
         "burst", "pack1_us", "pack_us", "ratio", "scalar_us", "util");

  size_t total_mismatches = 0;
  auto sizes = bench::Sweep<int>(args.tiny, {2000}, {20000, 200000});
  for (int n : sizes) {
    double extent = 2.5 * std::sqrt(static_cast<double>(n));
    // Disks resolve the probability backend to Monte Carlo; the sample
    // override keeps the sweep's wall clock proportional to the traversal
    // being measured, not the theorem's constants.
    auto disk_pts = workload::RandomDisks(n, 160);
    auto disc_pts = workload::RandomDiscrete(n, 4, 161);
    Engine::Config cfg;
    cfg.mc_samples_override = 96;
    Engine disk(disk_pts, cfg);
    Engine disc(disc_pts, cfg);
    core::QuantTree tree(&disc_pts);

    struct Part {
      const char* structure;
      Engine::QuerySpec spec;
      bool disks;
      int burst;
    };
    // Serving-representative bursts: pack coherence scales with query
    // density, and a sparse burst undersells every kernel. The NN!=0 and
    // E[d] engines answer a query far cheaper than the Monte-Carlo ones,
    // so a burst collected over the same serving window holds
    // proportionally more of them.
    const Part parts[] = {
        {"batched_qm", {Engine::QueryType::kExpectedDistanceNn}, false, 8192},
        {"batched_mpnn", {Engine::QueryType::kMostProbableNn}, true, 1024},
        {"batched_threshold",
         {Engine::QueryType::kThreshold, 0.25, 1},
         true, 1024},
        {"batched_topk", {Engine::QueryType::kTopK, 0.5, 8}, true, 1024},
        {"batched_nonzero", {Engine::QueryType::kNonzeroNn}, false, 8192},
    };
    for (const Part& part : parts) {
      const Engine& engine = part.disks ? disk : disc;
      auto qs = bench::RandomQueries(part.burst, extent, 159);
      engine.Warmup(part.spec);

      auto pack_of_one = [&] {
        std::vector<Engine::QueryResult> out(qs.size());
        for (size_t i = 0; i < qs.size(); ++i) {
          out[i] = std::move(engine.QueryMany({&qs[i], 1}, part.spec)[0]);
        }
        return out;
      };

      // Exactness first: batching must never change an answer.
      size_t mismatches = 0;
      auto alone = pack_of_one();
      auto packed = engine.QueryMany(qs, part.spec);
      for (size_t i = 0; i < qs.size(); ++i) {
        if (!SameResult(alone[i], packed[i])) ++mismatches;
      }

      // Best-of-3 interleaved passes: each section is only a few
      // milliseconds at the small sizes, where a single shot is at the
      // mercy of frequency and scheduler jitter.
      double pack1_ms = std::numeric_limits<double>::infinity();
      double pack_ms = std::numeric_limits<double>::infinity();
      for (int rep = 0; rep < 3; ++rep) {
        bench::Timer t1;
        pack_of_one();
        pack1_ms = std::min(pack1_ms, t1.Ms());
        bench::Timer tp;
        engine.QueryMany(qs, part.spec);
        pack_ms = std::min(pack_ms, tp.Ms());
      }
      double pack1_us = pack1_ms * 1000.0 / part.burst;
      double pack_us = pack_ms * 1000.0 / part.burst;
      double ratio = pack1_us / std::max(pack_us, 1e-9);

      // The dominant kernel on the same queries, Morton-sorted as
      // QueryMany sorts them: the disk rows' probability pass (its
      // envelope is a scalar walk, so the lane counters read 0), and for
      // the discrete rows the QuantTree query looped over the sorted pack.
      std::vector<Vec2> sorted;
      for (int i : spatial::PackCoherentOrder(qs)) sorted.push_back(qs[i]);
      spatial::BatchStats stats;
      double scalar_sorted_us = 0.0;
      switch (part.spec.type) {
        case Engine::QueryType::kExpectedDistanceNn: {
          bench::Timer tk;
          for (Vec2 q : sorted) tree.ExpectedDistanceNn(q);
          scalar_sorted_us = tk.Ms() * 1000.0 / part.burst;
          break;
        }
        case Engine::QueryType::kNonzeroNn: {
          bench::Timer tk;
          for (Vec2 q : sorted) tree.NonzeroNn(q);
          scalar_sorted_us = tk.Ms() * 1000.0 / part.burst;
          break;
        }
        default: {
          double eps_needed = part.spec.type == Engine::QueryType::kThreshold
                                  ? part.spec.tau / 2
                                  : 0.0;
          engine.ProbabilitiesMany(sorted, eps_needed, &stats);
        }
      }

      total_mismatches += mismatches;
      printf("%-18s %9d %7d %11.3f %11.3f %7.2fx %11.3f %6.2f%s\n",
             part.structure, n, part.burst, pack1_us, pack_us, ratio,
             scalar_sorted_us, stats.LaneUtilization(),
             mismatches ? "  MISMATCH" : "");
      json.StartRow();
      json.Metric("n", n);
      json.Str("structure", part.structure);
      json.Metric("burst", part.burst);
      json.Metric("pack1_us", pack1_us);
      json.Metric("pack_us", pack_us);
      json.Metric("batched_speedup", ratio);
      json.Metric("mismatches", static_cast<double>(mismatches));
      json.Metric("scalar_sorted_us", scalar_sorted_us);
      json.Metric("lane_utilization", stats.LaneUtilization());
      json.Metric("scalar_replays", static_cast<double>(stats.scalar_replays));
      json.Str("lane_isa", geom::LaneIsaName());
    }
  }

  printf("total mismatches, full pack vs pack of one: %zu %s\n",
         total_mismatches, total_mismatches == 0 ? "(bit-identical)" : "");
  // An answer that depends on its pack breaks the batching contract: fail
  // the run so CI catches it.
  return (json.Write(args.json_path) && total_mismatches == 0) ? 0 : 1;
}
