// Heap files: unordered, append-only tuple storage on slotted pages.
//
// Reads go through the buffer pool, so full scans incur sequential page
// reads and RowId fetches (e.g. from unclustered B-tree lookups) incur
// random page reads — the same I/O pattern the cost model charges.
//
// Appends do not touch the pool.  A file fills its tail page in place in
// the store (storage/page_store.h says who may write a page, and when)
// and seals it when the next record does not fit; each page is written
// exactly once, so its one physical write is counted when the file
// starts it.  A freshly started page is never "read".

#ifndef DQEP_STORAGE_HEAP_FILE_H_
#define DQEP_STORAGE_HEAP_FILE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/page_store.h"
#include "storage/tuple.h"
#include "storage/tuple_batch.h"

namespace dqep {

/// Position of a tuple: (page ordinal within the file, slot within page),
/// packed into one integer.
using RowId = int64_t;

/// An append-only collection of tuples on slotted pages.
class HeapFile {
 public:
  HeapFile(PageStore* store, BufferPool* pool);

  HeapFile(const HeapFile&) = delete;
  HeapFile& operator=(const HeapFile&) = delete;

  /// Appends a tuple and returns its RowId.  Fails only if the encoded
  /// record cannot fit a fresh page.
  Result<RowId> Append(const Tuple& tuple);

  /// Appends one raw record (at most kMaxRecordBytes) and returns its
  /// RowId.  Takes no buffer-pool lock.
  Result<RowId> AppendRecord(std::string_view record);

  /// The largest record a page holds: its payload minus the page header
  /// and one slot entry.
  static constexpr size_t kMaxRecordBytes = kPageSize - 8;

  /// Fetches one tuple by RowId (a random page access).
  Tuple tuple(RowId rid) const;

  /// Fetches one tuple by RowId into `out`, reusing its value storage.
  void TupleInto(RowId rid, Tuple* out) const;

  int64_t num_tuples() const { return num_tuples_; }

  /// Pages allocated by this file.
  int64_t NumPages() const { return static_cast<int64_t>(pages_.size()); }

  /// Sequential scan cursor; reads each page once, in order, through the
  /// pool.  It pins a page only for the fetch, which counts the page's
  /// hit or miss; the page's bytes never move and stay readable while the
  /// file lives, so no pin is held between calls.  A scanner may be restricted to a half-open
  /// page range [begin_page, end_page) — the unit of work for parallel
  /// morsel-driven scans.  end_page == -1 means "to the live end of the
  /// file" (so appends after construction are still visible, matching
  /// the unranged scanner).
  class Scanner {
   public:
    explicit Scanner(const HeapFile* file) : Scanner(file, 0, -1) {}

    Scanner(const HeapFile* file, int64_t begin_page, int64_t end_page)
        : file_(file),
          begin_page_(begin_page),
          end_page_(end_page),
          page_index_(static_cast<size_t>(begin_page)) {
      DQEP_CHECK_GE(begin_page, 0);
      DQEP_CHECK(end_page == -1 || end_page >= begin_page);
    }

    /// Produces the next tuple; false at end of file.
    bool Next(Tuple* out);

    /// Produces the next raw record (a view into the page); false at end
    /// of file.
    bool NextRecord(std::string_view* out);

    /// Appends up to `out`'s remaining capacity tuples, decoding into the
    /// batch's reused row slots; returns the number appended (0 at end of
    /// file).
    int32_t NextBatch(TupleBatch* out);

    /// RowId of the tuple most recently produced by Next().
    RowId last_row_id() const { return last_row_id_; }

    /// Restarts from the beginning of the range.
    void Reset();

   private:
    /// First page index past the range (clamped to the current file end).
    size_t PageLimit() const;

    /// Moves page_ to the page holding the next record; false at the end
    /// of the range.
    bool OnRecord();

    const HeapFile* file_;
    int64_t begin_page_ = 0;
    int64_t end_page_ = -1;  // -1: live end of file
    size_t page_index_ = 0;
    int32_t slot_ = 0;
    RowId last_row_id_ = -1;
    const PageData* page_ = nullptr;  // page page_index_; not pinned
  };

  Scanner CreateScanner() const { return Scanner(this); }

  /// Scanner over the half-open page range [begin_page, end_page);
  /// end_page == -1 means the live end of the file.
  Scanner CreateScanner(int64_t begin_page, int64_t end_page) const {
    return Scanner(this, begin_page, end_page);
  }

  /// All tuples in RowId order (test/reference helper; copies everything).
  std::vector<Tuple> Materialize() const;

  /// Discards this file's pages from the buffer pool and returns them to
  /// the store's free list, emptying the file.  Only temp (spill) heaps
  /// do this; cataloged tables live forever.  No scanner or guard on this
  /// file may be live, and the caller must serialize with appends.  One
  /// pool lock and one store lock for the whole file.
  void FreePages();

  /// RowId of (page ordinal, slot).
  static RowId MakeRowId(int64_t page_ordinal, int32_t slot) {
    return (page_ordinal << kSlotBits) | slot;
  }

 private:
  friend class Scanner;

  static constexpr int32_t kSlotBits = 10;  // up to 1024 slots per page
  static constexpr int32_t kMaxSlots = 1 << kSlotBits;

  /// Seals the tail page and starts a fresh one, counting its write.
  void StartPage();

  PageStore* store_;
  BufferPool* pool_;
  std::vector<PageId> pages_;
  /// The last page's bytes, filled in place; null before the first
  /// append and after FreePages.
  PageData* tail_ = nullptr;
  int64_t num_tuples_ = 0;
  std::string record_;  // Append's reused encode buffer
};

}  // namespace dqep

#endif  // DQEP_STORAGE_HEAP_FILE_H_
