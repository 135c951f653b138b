// Scenario: a field of location-uncertain sensors (disk noise regions).
// Builds the nonzero Voronoi diagram V!=0, compares it against the
// Engine's near-linear index on a query workload, and renders the
// diagram to SVG — the kind of "which sensors could possibly be closest
// to an event?" dispatch question that motivates NN!=0 queries.
//
//   ./build/examples/sensor_field [n] [out.svg]

#include <cstdio>
#include <cstdlib>
#include <random>

#include "core/nonzero_voronoi.h"
#include "engine/engine.h"
#include "workload/generators.h"
#include "workload/svg.h"

using namespace unn;
using geom::Vec2;

int main(int argc, char** argv) {
  int n = argc > 1 ? std::atoi(argv[1]) : 24;
  const char* out = argc > 2 ? argv[2] : "sensor_field.svg";

  auto sensors = workload::RandomDisks(n, /*seed=*/2024, 0.0, 0.4, 1.6);
  core::NonzeroVoronoi diagram(sensors);
  Engine engine(sensors, {});

  printf("sensor field: n=%d, V!=0 has %lld vertices, %d faces, %d edges\n",
         n, static_cast<long long>(diagram.stats().arrangement_vertices),
         diagram.stats().bounded_faces, diagram.stats().dcel_edges);

  // Dispatch workload: events arrive, ask which sensors may be closest.
  std::mt19937_64 rng(7);
  double extent = diagram.window().Diagonal() / 4;
  std::uniform_real_distribution<double> u(-extent, extent);
  int total_candidates = 0, agree = 0;
  const int kQueries = 500;
  for (int t = 0; t < kQueries; ++t) {
    Vec2 q{u(rng), u(rng)};
    auto a = diagram.Query(q);
    auto b = engine.NonzeroNn(q);
    total_candidates += static_cast<int>(a.size());
    agree += (a == b);
  }
  printf("%d events: avg %.2f candidate sensors per event; diagram and "
         "index agree on %d/%d\n",
         kQueries, total_candidates / static_cast<double>(kQueries), agree,
         kQueries);

  // The same dispatch question through the Engine facade, batched.
  std::vector<Vec2> events;
  for (int t = 0; t < 8; ++t) events.push_back({u(rng), u(rng)});
  auto batched = engine.QueryMany(events, {Engine::QueryType::kNonzeroNn});
  printf("engine batch of %zu events, candidate counts:", events.size());
  for (const auto& r : batched) printf(" %zu", r.ids.size());
  printf("\n");

  // Render: sensor disks + the diagram's curves.
  workload::SvgWriter svg(diagram.window(), 900);
  svg.AddSubdivision(diagram.subdivision());
  for (const auto& s : sensors) {
    svg.AddCircle(s.center(), s.radius(), "#d62728", "none", 1.0);
    svg.AddDot(s.center(), 2.0, "#d62728");
  }
  if (svg.WriteFile(out)) {
    printf("wrote %s\n", out);
  } else {
    printf("could not write %s\n", out);
  }
  return 0;
}
