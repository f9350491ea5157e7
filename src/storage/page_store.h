// The "disk": a flat array of fixed-size pages with I/O accounting.
//
// All table data lives in pages reached through the buffer pool; the
// store counts physical reads and writes, which lets experiments compare
// the cost model's predicted I/O against the I/O a plan actually incurs.
//
// The pages are in memory and each has a stable address for the life of
// the store, so nothing is ever copied in or out: a "read" hands out the
// page's own bytes and a "write" records that bytes already in place
// reached the disk.  Both only count.  Who may write a page's bytes, and
// when:
//  - The heap file that allocated a page fills it in place, one record
//    at a time, until it starts its next page; that page is then sealed
//    and never written again.  A file's owner serializes its appends
//    with its scans, so a page is never read while its writer fills it.
//  - Table pages are written only while the table is loaded, before any
//    query reads it.
//  - A PageGuard's MutableData() writes through the buffer pool under
//    the same rule: the caller excludes concurrent readers of the page.
//
// Freed pages (spill temp heaps release theirs on close) go on a free
// list and are recycled, zeroed, by later Allocate calls; the caller
// drops any buffer-pool frame caching a page before freeing it.  The
// store's mutex guards the page directory and the free list, because
// spilling operators allocate and free pages while exchange workers read
// table pages; the buffer pool calls Read under its own mutex (pool
// before store), and the store never calls back into the pool.  The I/O
// counters are relaxed atomics and take no lock.

#ifndef DQEP_STORAGE_PAGE_STORE_H_
#define DQEP_STORAGE_PAGE_STORE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/macros.h"

namespace dqep {

/// Identifies a page within the store.
using PageId = int64_t;

inline constexpr PageId kInvalidPage = -1;

/// Physical page size in bytes (paper geometry: 2 KB pages).
inline constexpr int32_t kPageSize = 2048;

/// Raw page contents.
struct PageData {
  std::array<uint8_t, kPageSize> bytes{};
};

/// Cumulative physical I/O counters.
struct IoStats {
  int64_t page_reads = 0;
  int64_t page_writes = 0;

  IoStats operator-(const IoStats& other) const {
    return IoStats{page_reads - other.page_reads,
                   page_writes - other.page_writes};
  }
};

/// An in-memory array of pages standing in for secondary storage.
class PageStore {
 public:
  PageStore() = default;

  PageStore(const PageStore&) = delete;
  PageStore& operator=(const PageStore&) = delete;

  /// Allocates a zeroed page — recycling a freed one if available — and
  /// returns its id.  `data`, when given, receives the page's bytes.
  PageId Allocate(PageData** data = nullptr) {
    std::lock_guard<std::mutex> lock(mutex_);
    PageId id;
    if (!free_list_.empty()) {
      id = free_list_.back();
      free_list_.pop_back();
      pages_[static_cast<size_t>(id)]->bytes.fill(0);
    } else {
      pages_.push_back(std::make_unique<PageData>());
      id = static_cast<PageId>(pages_.size()) - 1;
    }
    if (data != nullptr) {
      *data = pages_[static_cast<size_t>(id)].get();
    }
    return id;
  }

  /// Returns `ids` to the free list for reuse.  The caller must first drop
  /// any buffer-pool frame caching them (BufferPool::Discard), or a frame
  /// would go on standing for a page that now belongs to someone else.
  void Free(std::span<const PageId> ids) {
    std::lock_guard<std::mutex> lock(mutex_);
    for (PageId id : ids) {
      DQEP_CHECK_GE(id, 0);
      DQEP_CHECK_LT(id, static_cast<int64_t>(pages_.size()));
      free_list_.push_back(id);
    }
  }

  int64_t num_pages() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<int64_t>(pages_.size());
  }

  int64_t num_free_pages() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<int64_t>(free_list_.size());
  }

  /// The page's bytes, without counting I/O.  Stable until the store is
  /// destroyed.
  PageData* page(PageId id) const {
    std::lock_guard<std::mutex> lock(mutex_);
    DQEP_CHECK_GE(id, 0);
    DQEP_CHECK_LT(id, static_cast<int64_t>(pages_.size()));
    return pages_[static_cast<size_t>(id)].get();
  }

  /// Reads a page, counting one physical read: returns its bytes.
  PageData* Read(PageId id) const {
    PageData* data = page(id);
    page_reads_.fetch_add(1, std::memory_order_relaxed);
    return data;
  }

  /// Counts one physical write of `id`, whose bytes are already in place.
  void Write(PageId id) {
    DQEP_CHECK_GE(id, 0);
    page_writes_.fetch_add(1, std::memory_order_relaxed);
  }

  IoStats stats() const {
    return IoStats{page_reads_.load(std::memory_order_relaxed),
                   page_writes_.load(std::memory_order_relaxed)};
  }
  void ResetStats() {
    page_reads_.store(0, std::memory_order_relaxed);
    page_writes_.store(0, std::memory_order_relaxed);
  }

 private:
  /// Guards pages_ and free_list_.  See the header comment for the lock
  /// order relative to the buffer pool.
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<PageData>> pages_;
  std::vector<PageId> free_list_;
  mutable std::atomic<int64_t> page_reads_{0};
  std::atomic<int64_t> page_writes_{0};
};

}  // namespace dqep

#endif  // DQEP_STORAGE_PAGE_STORE_H_
