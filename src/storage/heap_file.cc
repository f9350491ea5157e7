#include "storage/heap_file.h"

#include <algorithm>

#include "storage/record_codec.h"
#include "storage/slotted_page.h"

namespace dqep {

HeapFile::HeapFile(PageStore* store, BufferPool* pool)
    : store_(store), pool_(pool) {
  DQEP_CHECK(store != nullptr);
  DQEP_CHECK(pool != nullptr);
}

Result<RowId> HeapFile::Append(const Tuple& tuple) {
  record_.clear();
  EncodeTupleTo(tuple, &record_);
  return AppendRecord(record_);
}

Result<RowId> HeapFile::AppendRecord(std::string_view record) {
  if (record.size() > kMaxRecordBytes) {
    return Status::InvalidArgument(
        "record of " + std::to_string(record.size()) +
        " bytes exceeds the page payload");
  }
  std::optional<SlotId> slot;
  if (tail_ != nullptr && slotted_page::RecordCount(*tail_) < kMaxSlots) {
    slot = slotted_page::Insert(tail_, record);
  }
  if (!slot.has_value()) {
    StartPage();
    slot = slotted_page::Insert(tail_, record);
    DQEP_CHECK(slot.has_value());  // a fresh page holds kMaxRecordBytes
  }
  ++num_tuples_;
  return MakeRowId(NumPages() - 1, *slot);
}

void HeapFile::StartPage() {
  PageId page = store_->Allocate(&tail_);
  slotted_page::Initialize(tail_);
  // The page is written once, in place, from here until the next page
  // starts; that one physical write is counted now.
  store_->Write(page);
  pages_.push_back(page);
}

void HeapFile::FreePages() {
  pool_->Discard(pages_);
  store_->Free(pages_);
  pages_.clear();
  tail_ = nullptr;
  num_tuples_ = 0;
}

Tuple HeapFile::tuple(RowId rid) const {
  Tuple out;
  TupleInto(rid, &out);
  return out;
}

void HeapFile::TupleInto(RowId rid, Tuple* out) const {
  int64_t page_ordinal = rid >> kSlotBits;
  int32_t slot = static_cast<int32_t>(rid & (kMaxSlots - 1));
  DQEP_CHECK_GE(page_ordinal, 0);
  DQEP_CHECK_LT(page_ordinal, NumPages());
  PageGuard guard = pool_->Fetch(pages_[static_cast<size_t>(page_ordinal)]);
  Status decoded =
      DecodeTupleInto(slotted_page::Read(guard.data(), slot), out);
  DQEP_CHECK(decoded.ok());
}

size_t HeapFile::Scanner::PageLimit() const {
  size_t live_end = file_->pages_.size();
  if (end_page_ < 0) {
    return live_end;
  }
  return std::min(static_cast<size_t>(end_page_), live_end);
}

bool HeapFile::Scanner::OnRecord() {
  for (;;) {
    if (page_ == nullptr) {
      if (page_index_ >= PageLimit()) {
        return false;
      }
      // The pin ends with this scope (see the class comment).
      PageGuard guard = file_->pool_->Fetch(file_->pages_[page_index_]);
      page_ = &guard.data();
      slot_ = 0;
    }
    if (slot_ < slotted_page::RecordCount(*page_)) {
      return true;
    }
    page_ = nullptr;
    ++page_index_;
  }
}

bool HeapFile::Scanner::NextRecord(std::string_view* out) {
  DQEP_CHECK(out != nullptr);
  if (!OnRecord()) {
    return false;
  }
  *out = slotted_page::Read(*page_, slot_);
  last_row_id_ = MakeRowId(static_cast<int64_t>(page_index_), slot_);
  ++slot_;
  return true;
}

bool HeapFile::Scanner::Next(Tuple* out) {
  DQEP_CHECK(out != nullptr);
  std::string_view record;
  if (!NextRecord(&record)) {
    return false;
  }
  Status decoded = DecodeTupleInto(record, out);
  DQEP_CHECK(decoded.ok());
  return true;
}

int32_t HeapFile::Scanner::NextBatch(TupleBatch* out) {
  DQEP_CHECK(out != nullptr);
  int32_t added = 0;
  while (!out->full() && OnRecord()) {
    int32_t records = slotted_page::RecordCount(*page_);
    while (slot_ < records && !out->full()) {
      Status decoded = DecodeTupleInto(slotted_page::Read(*page_, slot_),
                                       &out->AppendRow());
      DQEP_CHECK(decoded.ok());
      last_row_id_ = MakeRowId(static_cast<int64_t>(page_index_), slot_);
      ++slot_;
      ++added;
    }
  }
  return added;
}

void HeapFile::Scanner::Reset() {
  page_ = nullptr;
  page_index_ = static_cast<size_t>(begin_page_);
  slot_ = 0;
  last_row_id_ = -1;
}

std::vector<Tuple> HeapFile::Materialize() const {
  std::vector<Tuple> tuples;
  tuples.reserve(static_cast<size_t>(num_tuples_));
  Scanner scanner = CreateScanner();
  Tuple tuple;
  while (scanner.Next(&tuple)) {
    tuples.push_back(tuple);
  }
  return tuples;
}

}  // namespace dqep
