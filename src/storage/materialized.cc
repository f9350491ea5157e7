#include "storage/materialized.h"

#include <algorithm>
#include <utility>

#include "storage/database.h"
#include "storage/record_codec.h"

namespace dqep {

int64_t MaterializedTupleBytes(const Tuple& tuple) {
  int64_t bytes = static_cast<int64_t>(sizeof(Tuple)) +
                  static_cast<int64_t>(tuple.size()) *
                      static_cast<int64_t>(sizeof(Value));
  for (int32_t i = 0; i < tuple.size(); ++i) {
    const Value& value = tuple.value(i);
    if (value.is_string()) {
      bytes += static_cast<int64_t>(value.AsString().size());
    }
  }
  return bytes;
}

MaterializedTable::MaterializedTable(std::string name, TupleLayout layout,
                                     std::vector<RelationId> covered)
    : name_(std::move(name)),
      layout_(std::move(layout)),
      covered_(std::move(covered)) {}

MaterializedTable::~MaterializedTable() = default;

bool MaterializedTable::Covers(RelationId relation) const {
  return std::find(covered_.begin(), covered_.end(), relation) !=
         covered_.end();
}

double MaterializedTable::width_bytes() const {
  if (num_rows_ == 0) {
    // No captured rows to average: fall back to one value-slot's worth
    // per layout attribute so costing never sees a zero width.
    return static_cast<double>(layout_.num_slots()) *
           static_cast<double>(sizeof(int64_t));
  }
  return total_encoded_bytes_ / static_cast<double>(num_rows_);
}

int64_t MaterializedTable::Append(const Tuple& row) {
  ++num_rows_;
  total_encoded_bytes_ += static_cast<double>(EncodedTupleBytes(row));
  if (heap_ != nullptr) {
    heap_->Append(row);
    return 0;
  }
  int64_t bytes = MaterializedTupleBytes(row);
  rows_.push_back(row);
  rows_bytes_ += bytes;
  return bytes;
}

int64_t MaterializedTable::Spill(const Database& db) {
  if (heap_ != nullptr) {
    return 0;
  }
  heap_ = db.CreateTempHeap();
  for (const Tuple& row : rows_) {
    heap_->Append(row);
  }
  int64_t released = rows_bytes_;
  rows_.clear();
  rows_.shrink_to_fit();
  rows_bytes_ = 0;
  return released;
}

MaterializedTable::Reader::Reader(const MaterializedTable* table)
    : table_(table) {
  if (table_->spilled()) {
    scanner_.emplace(table_->heap_->CreateScanner());
  }
}

bool MaterializedTable::Reader::Next(Tuple* out) {
  if (!table_->spilled()) {
    if (next_ >= table_->rows_.size()) {
      return false;
    }
    out->AssignFrom(table_->rows_[next_++]);
    return true;
  }
  return scanner_->Next(out);
}

}  // namespace dqep
