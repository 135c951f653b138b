#ifndef UNN_UTIL_SPLITMIX64_H_
#define UNN_UTIL_SPLITMIX64_H_

#include <cstdint>

namespace unn {
namespace util {

/// SplitMix64 (Steele, Lea and Flood, OOPSLA 2014) as a
/// UniformRandomBitGenerator: a 64-bit counter advanced by the golden
/// gamma, each output the counter through a bijective mixer. Its whole
/// state is one word, so starting a stream per sample costs nothing, and
/// one output of a stream seeded with x is a cheap hash of x.
class SplitMix64 {
 public:
  using result_type = uint64_t;
  static constexpr uint64_t kGamma = 0x9E3779B97F4A7C15ull;

  explicit SplitMix64(uint64_t state) : state_(state) {}
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() { return Mix(state_ += kGamma); }

  /// The output function, a bijection of 64-bit words.
  static constexpr uint64_t Mix(uint64_t z) {
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

 private:
  uint64_t state_;
};

}  // namespace util
}  // namespace unn

#endif  // UNN_UTIL_SPLITMIX64_H_
