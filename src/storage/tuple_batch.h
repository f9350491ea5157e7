// Fixed-capacity batches of tuples for batch-at-a-time execution.
//
// A TupleBatch holds up to `capacity` reusable Tuple slots, created on
// first use by AppendRow.  Producers refill the same batch over and over
// (Clear + AppendRow), so after the first fill the per-slot Value storage —
// including string capacity — is recycled and the steady state allocates
// nothing.  A batch that never fills never creates its unused slots.  A batch optionally carries a *selection
// vector*: the physical row indices (strictly increasing) that are live.
// Filters narrow the selection in place instead of copying survivors,
// which is the core trick of vectorized filter evaluation.

#ifndef DQEP_STORAGE_TUPLE_BATCH_H_
#define DQEP_STORAGE_TUPLE_BATCH_H_

#include <cstdint>
#include <vector>

#include "common/macros.h"
#include "storage/tuple.h"

namespace dqep {

/// A batch of up to `capacity` tuples with an optional selection vector.
class TupleBatch {
 public:
  /// Small enough that a pipeline of wide rows stays cache- and
  /// RSS-friendly, large enough to amortize the per-batch virtual calls.
  static constexpr int32_t kDefaultCapacity = 128;

  explicit TupleBatch(int32_t capacity = kDefaultCapacity)
      : capacity_(capacity) {
    DQEP_CHECK_GT(capacity, 0);
  }

  int32_t capacity() const { return capacity_; }

  /// Physical rows present (including rows a selection filters out).
  int32_t size() const { return size_; }

  bool full() const { return size_ >= capacity_; }

  /// Live rows: selection size if one is set, else size().
  int32_t num_rows() const {
    return has_selection_ ? static_cast<int32_t>(selection_.size()) : size_;
  }

  bool empty() const { return num_rows() == 0; }

  /// Physical index of the i-th live row.
  int32_t row_index(int32_t i) const {
    DQEP_CHECK_GE(i, 0);
    DQEP_CHECK_LT(i, num_rows());
    return has_selection_ ? selection_[static_cast<size_t>(i)] : i;
  }

  /// The i-th live row.
  const Tuple& row(int32_t i) const {
    return rows_[static_cast<size_t>(row_index(i))];
  }

  /// Direct physical row access (ignores the selection).
  Tuple& physical_row(int32_t i) {
    DQEP_CHECK_GE(i, 0);
    DQEP_CHECK_LT(i, size_);
    return rows_[static_cast<size_t>(i)];
  }
  const Tuple& physical_row(int32_t i) const {
    DQEP_CHECK_GE(i, 0);
    DQEP_CHECK_LT(i, size_);
    return rows_[static_cast<size_t>(i)];
  }

  /// Resets to empty (drops the selection) while keeping all row storage
  /// for reuse.
  void Clear() {
    size_ = 0;
    has_selection_ = false;
  }

  /// Claims the next writable row slot; requires !full().  The returned
  /// tuple holds whatever a previous fill left behind — assign into it.
  /// The reference is valid until the next AppendRow.
  Tuple& AppendRow() {
    DQEP_CHECK(!full());
    DQEP_CHECK(!has_selection_);
    if (static_cast<size_t>(size_) == rows_.size()) {
      rows_.emplace_back();
    }
    return rows_[static_cast<size_t>(size_++)];
  }

  /// Releases the most recently appended row (a producer that claimed a
  /// slot but found no tuple to put in it).
  void PopRow() {
    DQEP_CHECK(!has_selection_);
    DQEP_CHECK_GT(size_, 0);
    --size_;
  }

  bool has_selection() const { return has_selection_; }

  /// The selection vector; requires has_selection().
  const std::vector<int32_t>& selection() const {
    DQEP_CHECK(has_selection_);
    return selection_;
  }

  /// Ensures a selection vector exists (identity over all physical rows if
  /// none was set) and returns it for in-place narrowing.  Narrowers must
  /// keep indices strictly increasing.
  std::vector<int32_t>* MaterializeSelection() {
    if (!has_selection_) {
      selection_.resize(static_cast<size_t>(size_));
      for (int32_t i = 0; i < size_; ++i) {
        selection_[static_cast<size_t>(i)] = i;
      }
      has_selection_ = true;
    }
    return &selection_;
  }

 private:
  std::vector<Tuple> rows_;
  std::vector<int32_t> selection_;
  int32_t capacity_ = 0;
  int32_t size_ = 0;
  bool has_selection_ = false;
};

}  // namespace dqep

#endif  // DQEP_STORAGE_TUPLE_BATCH_H_
