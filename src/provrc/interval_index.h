// Sorted interval index: rows ordered by interval lo with an implicit
// binary tree of subtree max-hi bounds over blocks of kLeafBlock sorted
// positions, so a probe enumerates exactly the overlapping rows in
// O(log n + hits) instead of scanning the table. This is the per-table
// index behind the indexed θ-join kernels (§V.B step 1): the sort is paid
// once per table and shared by every query against it.
//
// The index stores row *ids*, not bytes: it works identically over an
// owned CompressedTable arena and over a CompressedTableView borrowed from
// an mmap'd LogStore segment (the caller owns keeping the columns alive).

#ifndef DSLOG_PROVRC_INTERVAL_INDEX_H_
#define DSLOG_PROVRC_INTERVAL_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "provrc/interval.h"

namespace dslog {

class IntervalIndex {
 public:
  IntervalIndex() = default;

  /// Builds over `n` intervals read from strided columns: interval r is
  /// [lo[r * stride], hi[r * stride]]. Pass stride = 1 for a dense array.
  IntervalIndex(const int64_t* lo, const int64_t* hi, int64_t n,
                int64_t stride);

  int64_t size() const { return static_cast<int64_t>(lo_.size()); }
  bool empty() const { return lo_.empty(); }

  /// Approximate resident bytes (decode-cache charge accounting).
  int64_t bytes() const {
    const size_t wide = lo_.capacity() + hi_.capacity() + tree_.capacity();
    return static_cast<int64_t>(sizeof(*this) + wide * sizeof(int64_t) +
                                row_.capacity() * sizeof(int32_t));
  }

  /// Calls fn(row_id) for every indexed interval intersecting `probe`, in
  /// nondecreasing-lo order. Each overlapping row is emitted exactly once.
  template <typename Fn>
  void ForEachOverlapping(const Interval& probe, Fn&& fn) const {
    if (lo_.empty() || probe.hi < lo_.front()) return;
    Visit(1, 0, leaf_count_, probe, fn);
  }

 private:
  /// Sorted positions per tree leaf. A leaf block is scanned linearly, so
  /// the tree holds one bound per block instead of one per row.
  static constexpr size_t kLeafBlock = 8;

  // Recursive descent over the implicit tree. Node `node` covers leaf
  // blocks [block, block + width); width is a power of two. Prunes a
  // subtree when its smallest lo already exceeds probe.hi (sorted order)
  // or its largest hi falls short of probe.lo (the tree bound). A leaf
  // block that survives both prunes is scanned in position order up to the
  // first lo past probe.hi.
  template <typename Fn>
  void Visit(size_t node, size_t block, size_t width, const Interval& probe,
             Fn&& fn) const {
    const size_t begin = block * kLeafBlock;
    if (begin >= lo_.size() || lo_[begin] > probe.hi) return;
    if (tree_[node] < probe.lo) return;
    if (width == 1) {
      const size_t end = std::min(begin + kLeafBlock, lo_.size());
      for (size_t i = begin; i < end && lo_[i] <= probe.hi; ++i)
        if (hi_[i] >= probe.lo) fn(row_[i]);
      return;
    }
    const size_t half = width / 2;
    Visit(2 * node, block, half, probe, fn);
    Visit(2 * node + 1, block + half, half, probe, fn);
  }

  std::vector<int64_t> lo_;   // sorted nondecreasing
  std::vector<int64_t> hi_;   // aligned with lo_
  std::vector<int32_t> row_;  // original row id per sorted position
  /// Heap-ordered max-hi per node (a leaf covers one kLeafBlock block);
  /// leaves past the last block padded with INT64_MIN.
  std::vector<int64_t> tree_;
  size_t leaf_count_ = 0;  // power-of-two leaf-block span of the tree
};

}  // namespace dslog

#endif  // DSLOG_PROVRC_INTERVAL_INDEX_H_
