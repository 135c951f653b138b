#ifndef UNN_TESTS_SERVE_REQUESTS_H_
#define UNN_TESTS_SERVE_REQUESTS_H_

#include <span>
#include <vector>

#include "engine/engine.h"
#include "geom/vec2.h"
#include "serve/request.h"

namespace unn {

/// One serving request per point, all under `spec`, with no deadline at
/// normal priority: the input QueryServer::QueryBatch takes for a uniform
/// batch.
inline std::vector<serve::Request> Requests(std::span<const geom::Vec2> points,
                                            const Engine::QuerySpec& spec) {
  std::vector<serve::Request> out;
  out.reserve(points.size());
  for (geom::Vec2 q : points) out.push_back({q, spec});
  return out;
}

}  // namespace unn

#endif  // UNN_TESTS_SERVE_REQUESTS_H_
