// A pin-counted LRU buffer pool over the page store.
//
// Pages are accessed through RAII PageGuards that pin a frame for the
// guard's lifetime.  Unpinned frames are evicted in exact LRU order.
// Hit/miss statistics feed the cost-model validation experiments.
//
// Frames are zero-copy: a frame points at the store's own bytes (see
// storage/page_store.h), so a miss counts one physical read and copies
// nothing, and evicting or flushing a dirty frame counts one physical
// write and copies nothing.  The pool therefore decides *what I/O a run
// costs*, not where bytes live: a pin keeps its frame resident, and a
// page's bytes stay readable as long as the heap file owning the page
// does, pinned or not.
//
// The pool allocates nothing after construction: frames live in one
// array of `capacity` entries, the unpinned ones on an intrusive,
// index-linked LRU list, and an open-addressing table maps page ids to
// frame indexes.
//
// Locking contract (the pool is shared by all exchange worker threads):
//  - One internal mutex guards the frame array, the id table, the LRU
//    and free lists, pin counts, dirty bits and the sequential-miss
//    tracker.  Fetch, Unpin (a guard's release), Discard and FlushAll
//    take it once each.  A guard carries its frame index and its own
//    dirty bit, so MutableData() takes no lock and release needs no id
//    lookup.  Store I/O happens under it (pool mutex before store mutex).
//  - hits/misses/sequential_misses and the pinned-frame gauge live in
//    atomic MetricsRegistry cells ("storage.bufferpool.*") so readers
//    (profilers, benchmarks, registry snapshots) can sample them without
//    taking the pool mutex.
//  - Page *data* is not latched.  Who may write a page, and when, is set
//    out in storage/page_store.h: a heap file's unsealed tail page by its
//    writer, and table pages only while loading.  Any thread may read a
//    sealed page.

#ifndef DQEP_STORAGE_BUFFER_POOL_H_
#define DQEP_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "obs/metrics.h"
#include "storage/page_store.h"

namespace dqep {

class BufferPool;

/// RAII pin on one buffered page.  Movable, not copyable.  A guard is
/// owned by one thread at a time; distinct threads may hold guards on the
/// same page concurrently (the frame's pin count tracks both).
class PageGuard {
 public:
  PageGuard() = default;

  PageGuard(PageGuard&& other) noexcept { *this = std::move(other); }
  PageGuard& operator=(PageGuard&& other) noexcept;
  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  ~PageGuard() { Release(); }

  bool valid() const { return data_ != nullptr; }
  PageId id() const { return id_; }

  const PageData& data() const {
    DQEP_CHECK(valid());
    return *data_;
  }

  /// Grants mutable access; the frame is dirty from this guard's release
  /// on.  Takes no lock.  Callers must ensure no other thread is reading
  /// this page (see the header comment).
  PageData& MutableData() {
    DQEP_CHECK(valid());
    dirty_ = true;
    return *data_;
  }

  /// Releases the pin early.
  void Release();

 private:
  friend class BufferPool;

  PageGuard(BufferPool* pool, int32_t frame, PageId id, PageData* data)
      : pool_(pool), data_(data), id_(id), frame_(frame) {}

  BufferPool* pool_ = nullptr;
  PageData* data_ = nullptr;
  PageId id_ = kInvalidPage;
  int32_t frame_ = -1;
  bool dirty_ = false;
};

/// Fixed-capacity page cache with pin counting and LRU replacement.
/// Thread-safe: see the locking contract at the top of this header.
class BufferPool {
 public:
  /// `capacity` is the number of frames; must be >= 1.
  BufferPool(PageStore* store, int32_t capacity);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;
  ~BufferPool();

  /// Pins `id` (counting a store read on a miss) and returns a guard.
  /// Aborts if every frame is pinned (callers pin O(1) pages at a time,
  /// and only within one call, so this only fires if capacity < the
  /// number of concurrently pinning threads).
  PageGuard Fetch(PageId id);

  /// Counts a store write for every dirty frame and marks it clean.
  void FlushAll();

  /// Drops the frames caching `ids`, if any, without writing them back.
  /// Used when a temp heap's pages are freed: once the store recycles a
  /// page id, a frame left standing for it would count the new owner's
  /// first read as a hit.  The frames must be unpinned (aborts
  /// otherwise); a page absent from the pool is skipped.
  void Discard(std::span<const PageId> ids);

  int32_t capacity() const { return capacity_; }

  int64_t hits() const { return hits_.value(); }
  int64_t misses() const { return misses_.value(); }

  /// Frames pinned right now — zero whenever no guard is alive.  This
  /// pool's slice of the "storage.bufferpool.pinned" gauge.
  int64_t pinned() const { return pinned_.value(); }

  /// Misses whose page follows the previously missed page (a sequential
  /// scan pattern); the complement of random_misses().  Under concurrent
  /// scans the interleaving of misses is nondeterministic, so this split
  /// is only meaningful for single-threaded calibration runs.
  int64_t sequential_misses() const { return sequential_misses_.value(); }

  /// Misses that jumped to an unrelated page (index fetch pattern).
  int64_t random_misses() const { return misses() - sequential_misses(); }

  /// Resets this pool's own cells (not other pools' contributions to the
  /// process-wide "storage.bufferpool.*" aggregates).
  void ResetStats() {
    std::lock_guard<std::mutex> lock(mutex_);
    hits_.Reset();
    misses_.Reset();
    sequential_misses_.Reset();
    last_missed_page_ = kInvalidPage;
  }

 private:
  friend class PageGuard;

  static constexpr int32_t kNoFrame = -1;

  struct Frame {
    PageId id = kInvalidPage;  // kInvalidPage: on the free list
    PageData* data = nullptr;
    int32_t pin_count = 0;
    bool dirty = false;
    /// Neighbours on the LRU list while cached and unpinned; `next`
    /// links the free list while free.
    int32_t prev = kNoFrame;
    int32_t next = kNoFrame;
  };

  void Unpin(int32_t frame, bool dirty);

  // Caller holds mutex_ for all of the below.
  size_t HomeSlot(PageId id) const;
  int32_t FindFrame(PageId id) const;
  void MapInsert(int32_t frame);
  void MapErase(PageId id);
  void LruUnlink(int32_t frame);
  void LruPushBack(int32_t frame);

  PageStore* store_;
  int32_t capacity_;

  std::mutex mutex_;
  std::vector<Frame> frames_;
  /// Open-addressing (linear probing) table from page id to frame index;
  /// a power of two at least twice the capacity, kNoFrame when empty.
  std::vector<int32_t> slots_;
  int shift_ = 0;
  /// Unpinned cached frames, least recently used first.
  int32_t lru_head_ = kNoFrame;
  int32_t lru_tail_ = kNoFrame;
  /// Frames caching no page.
  int32_t free_head_ = kNoFrame;

  /// MetricsRegistry cells ("storage.bufferpool.{hits,misses,
  /// sequential_misses,pinned}"): relaxed atomics, so readers sample
  /// without the pool mutex.
  obs::CellHandle hits_;
  obs::CellHandle misses_;
  obs::CellHandle sequential_misses_;
  obs::CellHandle pinned_;
  PageId last_missed_page_ = kInvalidPage;
};

}  // namespace dqep

#endif  // DQEP_STORAGE_BUFFER_POOL_H_
