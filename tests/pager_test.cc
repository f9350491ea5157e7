// Page store, buffer pool, slotted pages, and the record codec.

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <list>
#include <map>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "storage/buffer_pool.h"
#include "storage/database.h"
#include "storage/page_store.h"
#include "storage/record_codec.h"
#include "storage/slotted_page.h"
#include "storage/temp_heap.h"

namespace dqep {
namespace {

TEST(PageStoreTest, AllocateReadWrite) {
  PageStore store;
  EXPECT_EQ(store.num_pages(), 0);
  PageId a = store.Allocate();
  PageId b = store.Allocate();
  EXPECT_NE(a, b);
  EXPECT_EQ(store.num_pages(), 2);

  store.page(a)->bytes[0] = 0xAB;
  store.Write(a);
  EXPECT_EQ(store.Read(a)->bytes[0], 0xAB);
  EXPECT_EQ(store.Read(a), store.page(a));  // zero-copy: the page itself
  EXPECT_EQ(store.Read(b)->bytes[0], 0);    // fresh pages are zeroed
}

TEST(PageStoreTest, CountsPhysicalIo) {
  PageStore store;
  PageId p = store.Allocate();
  store.Read(p);
  store.Read(p);
  store.page(p);  // no I/O
  store.Write(p);
  EXPECT_EQ(store.stats().page_reads, 2);
  EXPECT_EQ(store.stats().page_writes, 1);
  store.ResetStats();
  EXPECT_EQ(store.stats().page_reads, 0);
}

TEST(BufferPoolTest, HitAvoidsPhysicalRead) {
  PageStore store;
  BufferPool pool(&store, 4);
  PageId p = store.Allocate();
  {
    PageGuard g1 = pool.Fetch(p);
    EXPECT_TRUE(g1.valid());
  }
  {
    PageGuard g2 = pool.Fetch(p);  // cached
    EXPECT_TRUE(g2.valid());
  }
  EXPECT_EQ(store.stats().page_reads, 1);
  EXPECT_EQ(pool.hits(), 1);
  EXPECT_EQ(pool.misses(), 1);
}

TEST(BufferPoolTest, EvictsLruUnpinned) {
  PageStore store;
  BufferPool pool(&store, 2);
  PageId a = store.Allocate();
  PageId b = store.Allocate();
  PageId c = store.Allocate();
  pool.Fetch(a);            // released immediately
  pool.Fetch(b);            // released immediately
  pool.Fetch(c);            // evicts a (LRU)
  EXPECT_EQ(store.stats().page_reads, 3);
  pool.Fetch(b);            // still cached
  EXPECT_EQ(store.stats().page_reads, 3);
  pool.Fetch(a);            // was evicted: re-read
  EXPECT_EQ(store.stats().page_reads, 4);
}

TEST(BufferPoolTest, DirtyPagesWrittenBackOnEviction) {
  PageStore store;
  BufferPool pool(&store, 1);
  PageId a = store.Allocate();
  PageId b = store.Allocate();
  {
    PageGuard g = pool.Fetch(a);
    g.MutableData().bytes[7] = 0x7F;
  }
  pool.Fetch(b);  // evicts dirty a -> write-back
  EXPECT_EQ(store.stats().page_writes, 1);
  const PageData& data = *store.page(a);
  EXPECT_EQ(data.bytes[7], 0x7F);
}

TEST(BufferPoolTest, FlushAllWritesDirtyFrames) {
  PageStore store;
  BufferPool pool(&store, 4);
  PageId a = store.Allocate();
  {
    PageGuard g = pool.Fetch(a);
    g.MutableData().bytes[1] = 0x11;
  }
  pool.FlushAll();
  const PageData& data = *store.page(a);
  EXPECT_EQ(data.bytes[1], 0x11);
}

TEST(BufferPoolTest, MoveOnlyGuards) {
  PageStore store;
  BufferPool pool(&store, 2);
  PageId a = store.Allocate();
  PageGuard g1 = pool.Fetch(a);
  PageGuard g2 = std::move(g1);
  EXPECT_FALSE(g1.valid());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(g2.valid());
  g2.Release();
  EXPECT_FALSE(g2.valid());
}

/// The pool's hit/miss sequence equals an exact LRU model's under random
/// fetches, overlapping pins, releases in any order and Discards.
TEST(BufferPoolTest, MatchesReferenceLruModel) {
  constexpr int32_t kCapacity = 5;
  PageStore store;
  BufferPool pool(&store, kCapacity);
  std::vector<PageId> pages;
  for (int i = 0; i < 20; ++i) {
    pages.push_back(store.Allocate());
  }
  std::list<PageId> lru;          // model: unpinned cached, LRU first
  std::map<PageId, int> pins;     // model: cached page -> pin count
  std::vector<PageGuard> held;
  Rng rng(7);
  for (int op = 0; op < 20000; ++op) {
    int64_t choice = rng.NextInt(0, 9);
    if (choice < 5 && held.size() < 3) {
      PageId id = pages[static_cast<size_t>(rng.NextInt(0, 19))];
      auto it = pins.find(id);
      bool model_hit = it != pins.end();
      if (model_hit) {
        if (it->second == 0) {
          lru.remove(id);
        }
        ++it->second;
      } else {
        if (static_cast<int32_t>(pins.size()) == kCapacity) {
          pins.erase(lru.front());
          lru.pop_front();
        }
        pins[id] = 1;
      }
      int64_t hits = pool.hits();
      held.push_back(pool.Fetch(id));
      ASSERT_EQ(pool.hits() - hits, model_hit ? 1 : 0) << "op " << op;
    } else if (choice < 8 && !held.empty()) {
      size_t victim = static_cast<size_t>(
          rng.NextInt(0, static_cast<int64_t>(held.size()) - 1));
      PageId id = held[victim].id();
      held.erase(held.begin() + static_cast<int64_t>(victim));
      if (--pins[id] == 0) {
        lru.push_back(id);
      }
    } else if (!lru.empty()) {
      PageId id = lru.back();
      pool.Discard({&id, 1});
      lru.pop_back();
      pins.erase(id);
    }
    ASSERT_EQ(pool.pinned(),
              static_cast<int64_t>(pins.size() - lru.size()));
  }
  EXPECT_EQ(store.stats().page_reads, pool.misses());
}

/// Four threads over a pool far smaller than the pages they touch,
/// mixing fetches, in-place writes, releases and Discards.  Every thread
/// may pin any shared page but writes (and reads back) only the pages it
/// owns, and only it touches its private pages, which it also discards —
/// the page-write rule of storage/page_store.h.
TEST(BufferPoolTest, ConcurrentFetchWriteDiscardKeepsCountsAndBytes) {
  constexpr int kThreads = 4;
  constexpr int kShared = 32;      // page p is written only by p % 4
  constexpr int kPrivate = 4;      // per thread: fetched only by it
  constexpr int kOpsPerThread = 20000;
  PageStore store;
  BufferPool pool(&store, 8);
  std::vector<PageId> pages;
  for (int i = 0; i < kShared + kThreads * kPrivate; ++i) {
    pages.push_back(store.Allocate());
  }
  // The last value each page's writer stored in its first 8 bytes.
  std::vector<int64_t> last_written(pages.size(), 0);
  std::array<int64_t, kThreads> fetches{};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(100 + t));
      for (int op = 0; op < kOpsPerThread; ++op) {
        bool use_private = rng.NextBool(0.25);
        size_t index = use_private
                           ? static_cast<size_t>(kShared + t * kPrivate +
                                                 rng.NextInt(0, kPrivate - 1))
                           : static_cast<size_t>(rng.NextInt(0, kShared - 1));
        bool owned = use_private || static_cast<int>(index) % kThreads == t;
        PageGuard guard = pool.Fetch(pages[index]);
        ++fetches[static_cast<size_t>(t)];
        if (!owned) {
          continue;  // pin and release only: another thread writes it
        }
        int64_t stored;
        std::memcpy(&stored, guard.data().bytes.data(), sizeof(stored));
        EXPECT_EQ(stored, last_written[index]);
        if (rng.NextBool(0.5)) {
          int64_t value = int64_t{t} << 32 | op;
          std::memcpy(guard.MutableData().bytes.data(), &value,
                      sizeof(value));
          last_written[index] = value;
        }
        guard.Release();
        if (use_private && rng.NextBool(0.2)) {
          pool.Discard({&pages[index], 1});
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  int64_t total_fetches = 0;
  for (int64_t n : fetches) {
    total_fetches += n;
  }
  EXPECT_EQ(pool.hits() + pool.misses(), total_fetches);
  EXPECT_EQ(store.stats().page_reads, pool.misses());
  EXPECT_EQ(pool.pinned(), 0);
  for (size_t i = 0; i < pages.size(); ++i) {
    int64_t stored;
    std::memcpy(&stored, store.page(pages[i])->bytes.data(), sizeof(stored));
    EXPECT_EQ(stored, last_written[i]) << "page " << i;
  }
}

/// A spill file of N pages costs exactly N page writes and no read while
/// it is written (a fresh page is never read, and appends bypass the
/// pool); read back through a cold pool it costs exactly N page reads,
/// one miss per page, and it pins nothing between tuples.
TEST(BufferPoolTest, SpillFileCostsOneWriteAndOneReadPerPage) {
  Database db(/*buffer_pool_pages=*/8);
  BufferPool& pool = db.buffer_pool();
  std::vector<Tuple> written;
  {
    auto heap = db.CreateTempHeap();
    for (int64_t i = 0; i < 2000; ++i) {
      Tuple tuple;
      for (int64_t c = 0; c < 10; ++c) {
        tuple.Append(Value(i * 10 + c));
      }
      // Every 97th tuple is wider than a page, so it spans chunk records.
      tuple.Append(Value(std::string(i % 97 == 0 ? 5000 : 8, 'x')));
      heap->Append(tuple);
      written.push_back(tuple);
    }
    int64_t n = heap->NumPages();
    ASSERT_GT(n, pool.capacity());
    EXPECT_EQ(db.page_store().stats().page_writes, n);
    EXPECT_EQ(db.page_store().stats().page_reads, 0);
    EXPECT_EQ(pool.hits() + pool.misses(), 0);

    TempHeap::Scanner scanner = heap->CreateScanner();
    Tuple tuple;
    size_t read = 0;
    while (scanner.Next(&tuple)) {
      ASSERT_LT(read, written.size());
      EXPECT_EQ(tuple, written[read]);
      EXPECT_EQ(pool.pinned(), 0);
      ++read;
    }
    EXPECT_EQ(read, written.size());
    EXPECT_EQ(db.page_store().stats().page_reads, n);
    EXPECT_EQ(pool.misses(), n);
    EXPECT_EQ(pool.hits(), 0);
    EXPECT_EQ(db.page_store().stats().page_writes, n);
  }
  EXPECT_EQ(db.live_temp_heaps(), 0);
  EXPECT_EQ(db.page_store().num_free_pages(), db.page_store().num_pages());
}

TEST(SlottedPageTest, InsertAndRead) {
  PageData page;
  slotted_page::Initialize(&page);
  EXPECT_EQ(slotted_page::RecordCount(page), 0);
  auto s0 = slotted_page::Insert(&page, "hello");
  auto s1 = slotted_page::Insert(&page, "world!");
  ASSERT_TRUE(s0.has_value());
  ASSERT_TRUE(s1.has_value());
  EXPECT_EQ(slotted_page::RecordCount(page), 2);
  EXPECT_EQ(slotted_page::Read(page, *s0), "hello");
  EXPECT_EQ(slotted_page::Read(page, *s1), "world!");
}

TEST(SlottedPageTest, FillsUntilFull) {
  PageData page;
  slotted_page::Initialize(&page);
  std::string record(100, 'r');
  int inserted = 0;
  while (slotted_page::Insert(&page, record).has_value()) {
    ++inserted;
  }
  // 2048 bytes: header 4, per record 100 + 4 slot -> 19 records.
  EXPECT_EQ(inserted, 19);
  EXPECT_EQ(slotted_page::RecordCount(page), 19);
  // Everything is still readable after the page filled up.
  for (SlotId s = 0; s < 19; ++s) {
    EXPECT_EQ(slotted_page::Read(page, s), record);
  }
}

TEST(SlottedPageTest, EmptyRecordsSupported) {
  PageData page;
  slotted_page::Initialize(&page);
  auto slot = slotted_page::Insert(&page, "");
  ASSERT_TRUE(slot.has_value());
  EXPECT_EQ(slotted_page::Read(page, *slot), "");
}

TEST(RecordCodecTest, RoundTripMixedTuple) {
  Tuple tuple({Value(int64_t{-5}), Value(std::string("abc")),
               Value(int64_t{1} << 40), Value(std::string(""))});
  auto decoded = DecodeTuple(EncodeTuple(tuple));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, tuple);
}

TEST(RecordCodecTest, RoundTripEmptyTuple) {
  Tuple tuple;
  auto decoded = DecodeTuple(EncodeTuple(tuple));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->size(), 0);
}

TEST(RecordCodecTest, CorruptionRejected) {
  Tuple tuple({Value(int64_t{1}), Value(std::string("xyz"))});
  std::string bytes = EncodeTuple(tuple);
  EXPECT_FALSE(DecodeTuple(bytes.substr(0, bytes.size() - 1)).ok());
  EXPECT_FALSE(DecodeTuple(bytes + "junk").ok());
  EXPECT_FALSE(DecodeTuple("").ok());
  std::string bad_tag = bytes;
  bad_tag[2] = 9;  // first value's type tag
  EXPECT_FALSE(DecodeTuple(bad_tag).ok());
}

TEST(RecordCodecTest, RandomizedRoundTrip) {
  Rng rng(31);
  for (int trial = 0; trial < 200; ++trial) {
    Tuple tuple;
    int32_t arity = static_cast<int32_t>(rng.NextInt(0, 6));
    for (int32_t i = 0; i < arity; ++i) {
      if (rng.NextBool(0.5)) {
        tuple.Append(Value(rng.NextInt(-1000000, 1000000)));
      } else {
        tuple.Append(Value(std::string(
            static_cast<size_t>(rng.NextInt(0, 50)),
            static_cast<char>('a' + rng.NextInt(0, 25)))));
      }
    }
    auto decoded = DecodeTuple(EncodeTuple(tuple));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(*decoded, tuple);
  }
}

}  // namespace
}  // namespace dqep
