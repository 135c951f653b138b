#ifndef UNN_PERSIST_PERSISTENT_SET_H_
#define UNN_PERSIST_PERSISTENT_SET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/splitmix64.h"

/// \file persistent_set.h
/// A partially persistent ordered set of ints, implemented as a
/// path-copying treap. This is the [DSST89] technique the paper uses to
/// store the label set P_phi of every face of the nonzero Voronoi diagram in
/// O(1) amortized extra space per face: adjacent faces differ by a single
/// toggle (|P_phi xor P_phi'| = 1), so each face's set is a new version
/// derived from a neighbor at O(log n) node copies.

namespace unn {
namespace persist {

/// Version handle. Version 0 always exists and is the empty set.
using Version = int32_t;

class PersistentSet {
 public:
  PersistentSet();

  /// New version equal to `v` with `key` inserted (no-op copy-free result if
  /// already present: returns `v` itself).
  Version Insert(Version v, int key);

  /// New version equal to `v` with `key` removed (returns `v` if absent).
  Version Erase(Version v, int key);

  /// New version with `key`'s membership flipped.
  Version Toggle(Version v, int key);

  bool Contains(Version v, int key) const;

  /// Elements of version `v` in increasing order, O(size) time.
  std::vector<int> Items(Version v) const;

  int Size(Version v) const;

  /// Number of versions created so far (>= 1).
  int NumVersions() const { return static_cast<int>(roots_.size()); }

  /// Total pool nodes allocated across all versions — the O(mu) space
  /// accounting of Theorem 2.11.
  size_t NumNodes() const { return nodes_.size(); }

 private:
  struct Node {
    int key;
    uint32_t prio;
    int32_t left;
    int32_t right;
    int32_t size;
  };

  int32_t CopyNode(int32_t n);
  int32_t NewNode(int key);
  int32_t SizeOf(int32_t n) const { return n < 0 ? 0 : nodes_[n].size; }
  void Pull(int32_t n);
  /// Splits subtree `n` into keys < key and keys > key; sets *found if the
  /// key itself was present (its node is dropped).
  void Split(int32_t n, int key, int32_t* l, int32_t* r, bool* found);
  int32_t Merge(int32_t a, int32_t b);
  void Collect(int32_t n, std::vector<int>* out) const;

  std::vector<Node> nodes_;
  std::vector<int32_t> roots_;
  util::SplitMix64 rng_;
};

}  // namespace persist
}  // namespace unn

#endif  // UNN_PERSIST_PERSISTENT_SET_H_
