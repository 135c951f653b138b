#ifndef UNN_GEOM_LANES_H_
#define UNN_GEOM_LANES_H_

#include <cstddef>

#include "geom/vec2.h"

#if defined(__AVX2__)
#include <immintrin.h>
#define UNN_LANES_ISA_AVX2 1
#elif defined(__SSE2__) || defined(_M_X64) || defined(_M_AMD64)
#include <emmintrin.h>
#define UNN_LANES_ISA_SSE2 1
#endif

/// \file lanes.h
/// The portable fixed-width lane abstraction behind the batched traversal
/// kernels (spatial/batch.h): arithmetic on kLaneWidth doubles at a time,
/// dispatched at build time to AVX2 (two 4-lane registers), SSE2 (four
/// 2-lane registers), or a plain scalar loop. Every operation here is a
/// composition of IEEE-754 basic operations (+, -, *, min, max) applied
/// per lane in the same order as the scalar code it replaces, and no
/// fused multiply-add is ever emitted (the repo builds with
/// -ffp-contract=off), so each lane's result is bit-identical to the
/// scalar computation — the property the lane kernel's exactness
/// contract rests on.

namespace unn {
namespace geom {

/// Queries per pack. Fixed across ISAs so pack formation, masks, and the
/// differential tests are ISA-independent.
inline constexpr int kLaneWidth = 8;

/// Which instruction set the lane ops compile to (bench/CI provenance).
inline const char* LaneIsaName() {
#if defined(UNN_LANES_ISA_AVX2)
  return "avx2";
#elif defined(UNN_LANES_ISA_SSE2)
  return "sse2";
#else
  return "scalar";
#endif
}

/// out[l] = (qx[l] - p.x)^2 + (qy[l] - p.y)^2 — DistSq of one point
/// against kLaneWidth query lanes, each lane rounding exactly like the
/// scalar geom::DistSq (two subtractions, two squarings, one add).
inline void DistSqLanes(const double* qx, const double* qy, Vec2 p,
                        double* out) {
#if defined(UNN_LANES_ISA_AVX2)
  __m256d px = _mm256_set1_pd(p.x);
  __m256d py = _mm256_set1_pd(p.y);
  for (int h = 0; h < 2; ++h) {
    __m256d dx = _mm256_sub_pd(_mm256_loadu_pd(qx + 4 * h), px);
    __m256d dy = _mm256_sub_pd(_mm256_loadu_pd(qy + 4 * h), py);
    _mm256_storeu_pd(out + 4 * h, _mm256_add_pd(_mm256_mul_pd(dx, dx),
                                                _mm256_mul_pd(dy, dy)));
  }
#elif defined(UNN_LANES_ISA_SSE2)
  __m128d px = _mm_set1_pd(p.x);
  __m128d py = _mm_set1_pd(p.y);
  for (int h = 0; h < 4; ++h) {
    __m128d dx = _mm_sub_pd(_mm_loadu_pd(qx + 2 * h), px);
    __m128d dy = _mm_sub_pd(_mm_loadu_pd(qy + 2 * h), py);
    _mm_storeu_pd(out + 2 * h,
                  _mm_add_pd(_mm_mul_pd(dx, dx), _mm_mul_pd(dy, dy)));
  }
#else
  for (int l = 0; l < kLaneWidth; ++l) {
    double dx = qx[l] - p.x;
    double dy = qy[l] - p.y;
    out[l] = dx * dx + dy * dy;
  }
#endif
}

/// out[l] = box.DistSqTo({qx[l], qy[l]}) — the squared point-to-box
/// distance of vec2.h, per lane: dx = max(lo.x - q.x, 0, q.x - hi.x)
/// (exact, max never rounds), then dx^2 + dy^2 with the scalar's
/// rounding order.
inline void BoxDistSqLanes(const double* qx, const double* qy, const Box& b,
                           double* out) {
#if defined(UNN_LANES_ISA_AVX2)
  __m256d lox = _mm256_set1_pd(b.lo.x);
  __m256d loy = _mm256_set1_pd(b.lo.y);
  __m256d hix = _mm256_set1_pd(b.hi.x);
  __m256d hiy = _mm256_set1_pd(b.hi.y);
  __m256d zero = _mm256_setzero_pd();
  for (int h = 0; h < 2; ++h) {
    __m256d x = _mm256_loadu_pd(qx + 4 * h);
    __m256d y = _mm256_loadu_pd(qy + 4 * h);
    __m256d dx = _mm256_max_pd(
        _mm256_max_pd(_mm256_sub_pd(lox, x), zero), _mm256_sub_pd(x, hix));
    __m256d dy = _mm256_max_pd(
        _mm256_max_pd(_mm256_sub_pd(loy, y), zero), _mm256_sub_pd(y, hiy));
    _mm256_storeu_pd(out + 4 * h, _mm256_add_pd(_mm256_mul_pd(dx, dx),
                                                _mm256_mul_pd(dy, dy)));
  }
#elif defined(UNN_LANES_ISA_SSE2)
  __m128d lox = _mm_set1_pd(b.lo.x);
  __m128d loy = _mm_set1_pd(b.lo.y);
  __m128d hix = _mm_set1_pd(b.hi.x);
  __m128d hiy = _mm_set1_pd(b.hi.y);
  __m128d zero = _mm_setzero_pd();
  for (int h = 0; h < 4; ++h) {
    __m128d x = _mm_loadu_pd(qx + 2 * h);
    __m128d y = _mm_loadu_pd(qy + 2 * h);
    __m128d dx = _mm_max_pd(_mm_max_pd(_mm_sub_pd(lox, x), zero),
                            _mm_sub_pd(x, hix));
    __m128d dy = _mm_max_pd(_mm_max_pd(_mm_sub_pd(loy, y), zero),
                            _mm_sub_pd(y, hiy));
    _mm_storeu_pd(out + 2 * h,
                  _mm_add_pd(_mm_mul_pd(dx, dx), _mm_mul_pd(dy, dy)));
  }
#else
  for (int l = 0; l < kLaneWidth; ++l) {
    out[l] = b.DistSqTo({qx[l], qy[l]});
  }
#endif
}

}  // namespace geom
}  // namespace unn

#endif  // UNN_GEOM_LANES_H_
