#include "storage/temp_heap.h"

#include <algorithm>
#include <string_view>

#include "obs/metrics.h"
#include "storage/database.h"
#include "storage/record_codec.h"

namespace dqep {

namespace {

obs::SharedCounterRef g_created_metric("storage.tempheap.created");

/// Payload bytes per chunk record, after its is_last byte.
constexpr size_t kChunkPayloadBytes = HeapFile::kMaxRecordBytes - 1;

}  // namespace

TempHeap::TempHeap(PageStore* store, BufferPool* pool, const Database* owner)
    : owner_(owner), heap_(store, pool) {
  DQEP_CHECK(owner != nullptr);
  owner_->live_temp_heaps_.Add(1);
  g_created_metric.Add(1);
}

TempHeap::~TempHeap() {
  heap_.FreePages();
  owner_->live_temp_heaps_.Add(-1);
}

void TempHeap::Append(const Tuple& tuple) {
  record_.assign(1, '\1');
  EncodeTupleTo(tuple, &record_);
  std::string_view payload = std::string_view(record_).substr(1);
  if (payload.size() <= kChunkPayloadBytes) {
    Result<RowId> rid = heap_.AppendRecord(record_);
    DQEP_CHECK(rid.ok());
    return;
  }
  for (size_t offset = 0; offset < payload.size();
       offset += kChunkPayloadBytes) {
    std::string_view piece = payload.substr(offset, kChunkPayloadBytes);
    bool last = offset + piece.size() == payload.size();
    chunk_.assign(1, last ? '\1' : '\0');
    chunk_.append(piece);
    Result<RowId> rid = heap_.AppendRecord(chunk_);
    DQEP_CHECK(rid.ok());
  }
}

bool TempHeap::Scanner::Next(Tuple* out) {
  std::string_view chunk;
  if (!scanner_.NextRecord(&chunk)) {
    return false;
  }
  std::string_view record = chunk.substr(1);
  if (chunk[0] == '\0') {
    record_.assign(record);
    do {
      DQEP_CHECK(scanner_.NextRecord(&chunk));  // chunks are contiguous
      record_.append(chunk.substr(1));
    } while (chunk[0] == '\0');
    record = record_;
  }
  Status decoded = DecodeTupleInto(record, out);
  DQEP_CHECK(decoded.ok());
  return true;
}

}  // namespace dqep
