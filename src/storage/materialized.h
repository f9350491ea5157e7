// Materialized intermediate results for mid-query re-optimization.
//
// When a runtime cardinality checkpoint fires at a pipeline breaker, the
// already-computed intermediate (a hash-join build side or a finished
// sort) is captured as a MaterializedTable: a synthetic leaf relation the
// decision engine can re-optimize the remaining plan suffix against.  The
// table keeps the *original* attribute identities of the rows it holds
// (its TupleLayout carries the base-relation AttrRefs), so every
// downstream predicate, join key, and projection slot resolves against it
// exactly as it did against the subtree it replaces.
//
// Rows live in memory until the capturing context's budget is exhausted,
// then move to a TempHeap from the database's own page store (the same
// spill storage every operator uses, which holds rows of any width).

#ifndef DQEP_STORAGE_MATERIALIZED_H_
#define DQEP_STORAGE_MATERIALIZED_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/temp_heap.h"
#include "storage/tuple.h"

namespace dqep {

class Database;

/// A captured intermediate result acting as a synthetic base relation.
///
/// Build protocol (single-threaded, one capture phase): Append() every
/// row — calling Spill() at most once, after which buffered rows move to
/// a temp heap and later appends write through — then treat the table as
/// immutable and Read() it any number of times.
class MaterializedTable {
 public:
  /// `covered` lists the base relations whose terms this table subsumes
  /// (every scan leaf under the replaced subtree).
  MaterializedTable(std::string name, TupleLayout layout,
                    std::vector<RelationId> covered);
  ~MaterializedTable();

  MaterializedTable(const MaterializedTable&) = delete;
  MaterializedTable& operator=(const MaterializedTable&) = delete;

  /// Appends one row (copies it).  Returns the row's modeled resident
  /// bytes when kept in memory, or 0 when it went to the spill heap.
  int64_t Append(const Tuple& row);

  /// Moves all buffered rows to a temp heap and routes later appends
  /// there.  Returns the in-memory bytes released (the caller owns the
  /// memory accounting).  Idempotent.
  int64_t Spill(const Database& db);

  const std::string& name() const { return name_; }
  const TupleLayout& layout() const { return layout_; }
  const std::vector<RelationId>& covered() const { return covered_; }
  bool Covers(RelationId relation) const;

  int64_t num_rows() const { return num_rows_; }

  /// Average encoded row width in bytes (what the cost model should
  /// charge per row); the layout-declared width of an empty table.
  double width_bytes() const;

  bool spilled() const { return heap_ != nullptr; }

  /// The attribute the stored row sequence is sorted on (e.g. a captured
  /// sort output); invalid when storage order carries no known order.
  const AttrRef& sorted_on() const { return sorted_on_; }
  void set_sorted_on(const AttrRef& attr) { sorted_on_ = attr; }

  /// Sequential cursor over the rows in storage (append) order.
  class Reader {
   public:
    explicit Reader(const MaterializedTable* table);

    /// Produces the next row; false at end.
    bool Next(Tuple* out);

   private:
    const MaterializedTable* table_;
    size_t next_ = 0;                            // in-memory cursor
    std::optional<TempHeap::Scanner> scanner_;   // spilled cursor
  };

  Reader Read() const { return Reader(this); }

 private:
  friend class Reader;

  std::string name_;
  TupleLayout layout_;
  std::vector<RelationId> covered_;
  AttrRef sorted_on_;

  std::vector<Tuple> rows_;
  int64_t rows_bytes_ = 0;
  std::unique_ptr<TempHeap> heap_;

  int64_t num_rows_ = 0;
  double total_encoded_bytes_ = 0.0;
};

using MaterializedTablePtr = std::shared_ptr<const MaterializedTable>;

/// Deterministic model of a materialized row's resident bytes; the
/// executor's TrackedTupleBytes is this model, so capture honors the same
/// budget the operators do.
int64_t MaterializedTupleBytes(const Tuple& tuple);

}  // namespace dqep

#endif  // DQEP_STORAGE_MATERIALIZED_H_
