#include "core/pnn_common.h"

#include "util/check.h"

namespace unn {
namespace core {

void AccumulateQuantification(const std::vector<WeightedSite>& sites, int n,
                              std::vector<double>* pi) {
  pi->assign(n, 0.0);
  std::vector<long double> f(n, 1.0L);
  long double prod_nonzero = 1.0L;
  int zero_count = 0;
  constexpr long double kZeroTol = 1e-13L;

  for (size_t begin = 0; begin < sites.size();) {
    // One group: every site at exactly this distance.
    size_t end = begin + 1;
    while (end < sites.size() && sites[end].dist == sites[begin].dist) ++end;
    // G is inclusive, so the whole group's mass leaves the survival
    // factors before any of its sites scores.
    for (size_t t = begin; t < end; ++t) {
      const WeightedSite& s = sites[t];
      UNN_DCHECK(s.owner >= 0 && s.owner < n);
      long double old_f = f[s.owner];
      if (old_f == 0.0L) continue;  // Exhausted; the rest is rounding.
      long double new_f = old_f - static_cast<long double>(s.weight);
      if (new_f < kZeroTol) new_f = 0.0L;
      f[s.owner] = new_f;
      if (new_f == 0.0L) {
        ++zero_count;
        prod_nonzero /= old_f;
      } else {
        prod_nonzero *= new_f / old_f;
      }
    }
    // A site scores w * prod_{j != owner} f_j: zero while any other
    // owner is exhausted.
    for (size_t t = begin; t < end; ++t) {
      const WeightedSite& s = sites[t];
      long double others;
      if (zero_count == 0) {
        others = prod_nonzero / f[s.owner];
      } else if (zero_count == 1 && f[s.owner] == 0.0L) {
        others = prod_nonzero;
      } else {
        continue;
      }
      (*pi)[s.owner] += static_cast<double>(s.weight * others);
    }
    begin = end;
  }
}

}  // namespace core
}  // namespace unn
