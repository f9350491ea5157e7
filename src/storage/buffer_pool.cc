#include "storage/buffer_pool.h"

namespace dqep {

PageGuard& PageGuard::operator=(PageGuard&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    data_ = other.data_;
    id_ = other.id_;
    frame_ = other.frame_;
    dirty_ = other.dirty_;
    other.pool_ = nullptr;
    other.data_ = nullptr;
    other.id_ = kInvalidPage;
    other.frame_ = -1;
    other.dirty_ = false;
  }
  return *this;
}

void PageGuard::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_, dirty_);
  }
  pool_ = nullptr;
  data_ = nullptr;
  id_ = kInvalidPage;
  frame_ = -1;
  dirty_ = false;
}

BufferPool::BufferPool(PageStore* store, int32_t capacity)
    : store_(store),
      capacity_(capacity),
      hits_(obs::MetricsRegistry::Instance().NewCounter(
          "storage.bufferpool.hits")),
      misses_(obs::MetricsRegistry::Instance().NewCounter(
          "storage.bufferpool.misses")),
      sequential_misses_(obs::MetricsRegistry::Instance().NewCounter(
          "storage.bufferpool.sequential_misses")),
      pinned_(obs::MetricsRegistry::Instance().NewGauge(
          "storage.bufferpool.pinned")) {
  DQEP_CHECK(store != nullptr);
  DQEP_CHECK_GE(capacity, 1);
  frames_.resize(static_cast<size_t>(capacity));
  for (int32_t i = capacity - 1; i >= 0; --i) {
    frames_[static_cast<size_t>(i)].next = free_head_;
    free_head_ = i;
  }
  int bits = 1;
  while ((size_t{1} << bits) < 2 * static_cast<size_t>(capacity)) {
    ++bits;
  }
  slots_.assign(size_t{1} << bits, kNoFrame);
  shift_ = 64 - bits;
}

BufferPool::~BufferPool() { FlushAll(); }

PageGuard BufferPool::Fetch(PageId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  int32_t index = FindFrame(id);
  if (index != kNoFrame) {
    hits_.Add(1);
    if (frames_[static_cast<size_t>(index)].pin_count == 0) {
      LruUnlink(index);
    }
  } else {
    misses_.Add(1);
    if (last_missed_page_ != kInvalidPage &&
        (id == last_missed_page_ + 1 || id == last_missed_page_)) {
      sequential_misses_.Add(1);
    }
    last_missed_page_ = id;
    if (free_head_ != kNoFrame) {
      index = free_head_;
      free_head_ = frames_[static_cast<size_t>(index)].next;
    } else {
      index = lru_head_;
      DQEP_CHECK(index != kNoFrame);  // all frames pinned: caller bug
      LruUnlink(index);
      Frame& victim = frames_[static_cast<size_t>(index)];
      if (victim.dirty) {
        store_->Write(victim.id);
      }
      MapErase(victim.id);
    }
    Frame& frame = frames_[static_cast<size_t>(index)];
    frame.id = id;
    frame.data = store_->Read(id);
    frame.dirty = false;
    MapInsert(index);
  }
  Frame& frame = frames_[static_cast<size_t>(index)];
  if (frame.pin_count++ == 0) {
    pinned_.Add(1);
  }
  return PageGuard(this, index, id, frame.data);
}

void BufferPool::FlushAll() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (Frame& frame : frames_) {
    if (frame.dirty) {
      store_->Write(frame.id);
      frame.dirty = false;
    }
  }
}

void BufferPool::Discard(std::span<const PageId> ids) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (PageId id : ids) {
    int32_t index = FindFrame(id);
    if (index == kNoFrame) {
      continue;
    }
    Frame& frame = frames_[static_cast<size_t>(index)];
    DQEP_CHECK_EQ(frame.pin_count, 0);  // caller still holds a guard: bug
    LruUnlink(index);
    MapErase(id);
    frame = Frame();
    frame.next = free_head_;
    free_head_ = index;
  }
}

void BufferPool::Unpin(int32_t index, bool dirty) {
  std::lock_guard<std::mutex> lock(mutex_);
  Frame& frame = frames_[static_cast<size_t>(index)];
  DQEP_CHECK_GT(frame.pin_count, 0);
  frame.dirty = frame.dirty || dirty;
  if (--frame.pin_count == 0) {
    LruPushBack(index);
    pinned_.Add(-1);
  }
}

size_t BufferPool::HomeSlot(PageId id) const {
  // Fibonacci hashing: the top bits of id * 2^64/phi.
  return static_cast<size_t>(
      (static_cast<uint64_t>(id) * 0x9e3779b97f4a7c15ULL) >> shift_);
}

int32_t BufferPool::FindFrame(PageId id) const {
  size_t mask = slots_.size() - 1;
  for (size_t i = HomeSlot(id);; i = (i + 1) & mask) {
    int32_t index = slots_[i];
    if (index == kNoFrame || frames_[static_cast<size_t>(index)].id == id) {
      return index;
    }
  }
}

void BufferPool::MapInsert(int32_t index) {
  size_t mask = slots_.size() - 1;
  size_t i = HomeSlot(frames_[static_cast<size_t>(index)].id);
  while (slots_[i] != kNoFrame) {
    i = (i + 1) & mask;
  }
  slots_[i] = index;
}

void BufferPool::MapErase(PageId id) {
  size_t mask = slots_.size() - 1;
  size_t hole = HomeSlot(id);
  while (frames_[static_cast<size_t>(slots_[hole])].id != id) {
    hole = (hole + 1) & mask;
  }
  // Backward-shift deletion: pull later entries of the probe run into
  // the hole unless that would move one before its home slot.
  for (size_t i = (hole + 1) & mask; slots_[i] != kNoFrame;
       i = (i + 1) & mask) {
    size_t home = HomeSlot(frames_[static_cast<size_t>(slots_[i])].id);
    if (((i - home) & mask) >= ((i - hole) & mask)) {
      slots_[hole] = slots_[i];
      hole = i;
    }
  }
  slots_[hole] = kNoFrame;
}

void BufferPool::LruUnlink(int32_t index) {
  Frame& frame = frames_[static_cast<size_t>(index)];
  if (frame.prev != kNoFrame) {
    frames_[static_cast<size_t>(frame.prev)].next = frame.next;
  } else {
    lru_head_ = frame.next;
  }
  if (frame.next != kNoFrame) {
    frames_[static_cast<size_t>(frame.next)].prev = frame.prev;
  } else {
    lru_tail_ = frame.prev;
  }
  frame.prev = kNoFrame;
  frame.next = kNoFrame;
}

void BufferPool::LruPushBack(int32_t index) {
  Frame& frame = frames_[static_cast<size_t>(index)];
  frame.prev = lru_tail_;
  frame.next = kNoFrame;
  if (lru_tail_ != kNoFrame) {
    frames_[static_cast<size_t>(lru_tail_)].next = index;
  } else {
    lru_head_ = index;
  }
  lru_tail_ = index;
}

}  // namespace dqep
