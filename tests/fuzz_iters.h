#ifndef UNN_TESTS_FUZZ_ITERS_H_
#define UNN_TESTS_FUZZ_ITERS_H_

#include <cstdlib>

namespace unn {

/// A fuzz loop's iteration count: `base` for the fixed CTest corpus, or
/// UNN_FUZZ_ITERS when that is a positive integer (the nightly CI job
/// raises it).
inline int FuzzIters(int base) {
  const char* env = std::getenv("UNN_FUZZ_ITERS");
  if (env == nullptr) return base;
  int v = std::atoi(env);
  return v > 0 ? v : base;
}

}  // namespace unn

#endif  // UNN_TESTS_FUZZ_ITERS_H_
