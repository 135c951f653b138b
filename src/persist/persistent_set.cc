#include "persist/persistent_set.h"

#include "util/check.h"
#include "util/splitmix64.h"

namespace unn {
namespace persist {

namespace {
constexpr int32_t kNil = -1;
}  // namespace

PersistentSet::PersistentSet() : rng_(0xabcdef1234567890ULL) {
  roots_.push_back(kNil);  // Version 0: empty set.
}

int32_t PersistentSet::NewNode(int key) {
  Node n;
  n.key = key;
  n.prio = static_cast<uint32_t>(rng_());
  n.left = kNil;
  n.right = kNil;
  n.size = 1;
  nodes_.push_back(n);
  return static_cast<int32_t>(nodes_.size()) - 1;
}

int32_t PersistentSet::CopyNode(int32_t n) {
  nodes_.push_back(nodes_[n]);
  return static_cast<int32_t>(nodes_.size()) - 1;
}

void PersistentSet::Pull(int32_t n) {
  nodes_[n].size = 1 + SizeOf(nodes_[n].left) + SizeOf(nodes_[n].right);
}

void PersistentSet::Split(int32_t n, int key, int32_t* l, int32_t* r,
                          bool* found) {
  if (n == kNil) {
    *l = kNil;
    *r = kNil;
    return;
  }
  if (nodes_[n].key == key) {
    // Drop this node; its children are already proper splits.
    *found = true;
    *l = nodes_[n].left;
    *r = nodes_[n].right;
    return;
  }
  int32_t c = CopyNode(n);
  if (key < nodes_[n].key) {
    int32_t sub_l, sub_r;
    Split(nodes_[n].left, key, &sub_l, &sub_r, found);
    nodes_[c].left = sub_r;
    Pull(c);
    *l = sub_l;
    *r = c;
  } else {
    int32_t sub_l, sub_r;
    Split(nodes_[n].right, key, &sub_l, &sub_r, found);
    nodes_[c].right = sub_l;
    Pull(c);
    *l = c;
    *r = sub_r;
  }
}

int32_t PersistentSet::Merge(int32_t a, int32_t b) {
  if (a == kNil) return b;
  if (b == kNil) return a;
  if (nodes_[a].prio > nodes_[b].prio) {
    int32_t c = CopyNode(a);
    nodes_[c].right = Merge(nodes_[a].right, b);
    Pull(c);
    return c;
  }
  int32_t c = CopyNode(b);
  nodes_[c].left = Merge(a, nodes_[b].left);
  Pull(c);
  return c;
}

Version PersistentSet::Insert(Version v, int key) {
  UNN_CHECK(v >= 0 && v < NumVersions());
  if (Contains(v, key)) return v;
  int32_t l, r;
  bool found = false;
  Split(roots_[v], key, &l, &r, &found);
  int32_t root = Merge(Merge(l, NewNode(key)), r);
  roots_.push_back(root);
  return static_cast<Version>(roots_.size()) - 1;
}

Version PersistentSet::Erase(Version v, int key) {
  UNN_CHECK(v >= 0 && v < NumVersions());
  if (!Contains(v, key)) return v;
  int32_t l, r;
  bool found = false;
  Split(roots_[v], key, &l, &r, &found);
  UNN_DCHECK(found);
  int32_t root = Merge(l, r);
  roots_.push_back(root);
  return static_cast<Version>(roots_.size()) - 1;
}

Version PersistentSet::Toggle(Version v, int key) {
  return Contains(v, key) ? Erase(v, key) : Insert(v, key);
}

bool PersistentSet::Contains(Version v, int key) const {
  UNN_CHECK(v >= 0 && v < NumVersions());
  int32_t n = roots_[v];
  while (n != kNil) {
    if (nodes_[n].key == key) return true;
    n = key < nodes_[n].key ? nodes_[n].left : nodes_[n].right;
  }
  return false;
}

void PersistentSet::Collect(int32_t n, std::vector<int>* out) const {
  if (n == kNil) return;
  Collect(nodes_[n].left, out);
  out->push_back(nodes_[n].key);
  Collect(nodes_[n].right, out);
}

std::vector<int> PersistentSet::Items(Version v) const {
  UNN_CHECK(v >= 0 && v < NumVersions());
  std::vector<int> out;
  out.reserve(Size(v));
  Collect(roots_[v], &out);
  return out;
}

int PersistentSet::Size(Version v) const {
  UNN_CHECK(v >= 0 && v < NumVersions());
  return SizeOf(roots_[v]);
}

}  // namespace persist
}  // namespace unn
