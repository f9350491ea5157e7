// A database: catalog, page store, buffer pool, and tables.

#ifndef DQEP_STORAGE_DATABASE_H_
#define DQEP_STORAGE_DATABASE_H_

#include <memory>
#include <vector>

#include "catalog/catalog.h"
#include "obs/metrics.h"
#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/page_store.h"
#include "storage/table.h"
#include "storage/temp_heap.h"

namespace dqep {

/// Owns the catalog, the paged storage substrate, and one Table per
/// cataloged relation.
class Database {
 public:
  /// `buffer_pool_pages` bounds the pages cached in memory at once.
  explicit Database(int32_t buffer_pool_pages = 256)
      : store_(std::make_unique<PageStore>()),
        pool_(std::make_unique<BufferPool>(store_.get(),
                                           buffer_pool_pages)) {}

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }

  /// Creates a relation in the catalog and its backing table.
  Result<RelationId> CreateTable(const std::string& name,
                                 std::vector<ColumnInfo> columns,
                                 int64_t cardinality);

  /// Creates an index in the catalog and back-fills the table's B-tree.
  Status CreateIndex(RelationId relation, int32_t column);

  Table& table(RelationId id) {
    DQEP_CHECK(catalog_.HasRelation(id));
    return *tables_[static_cast<size_t>(id)];
  }
  const Table& table(RelationId id) const {
    DQEP_CHECK(catalog_.HasRelation(id));
    return *tables_[static_cast<size_t>(id)];
  }

  PageStore& page_store() { return *store_; }
  const PageStore& page_store() const { return *store_; }
  BufferPool& buffer_pool() { return *pool_; }
  const BufferPool& buffer_pool() const { return *pool_; }

  /// Creates a scratch heap file for spilling operators.  Const because
  /// temp pages are invisible to the catalog and allocation is
  /// thread-safe, so executors holding `const Database&` may spill.
  std::unique_ptr<TempHeap> CreateTempHeap() const {
    return std::make_unique<TempHeap>(store_.get(), pool_.get(), this);
  }

  /// Temp heaps currently alive — zero once every query is closed.
  int64_t live_temp_heaps() const { return live_temp_heaps_.value(); }

  /// Zeroes all physical and buffer statistics (e.g. between experiment
  /// runs).
  void ResetIoStats() {
    store_->ResetStats();
    pool_->ResetStats();
  }

 private:
  friend class TempHeap;  // maintains live_temp_heaps_

  Catalog catalog_;
  std::unique_ptr<PageStore> store_;
  std::unique_ptr<BufferPool> pool_;
  std::vector<std::unique_ptr<Table>> tables_;
  /// "storage.tempheap.live" registry gauge cell (this database's slice).
  mutable obs::CellHandle live_temp_heaps_ =
      obs::MetricsRegistry::Instance().NewGauge("storage.tempheap.live");
};

}  // namespace dqep

#endif  // DQEP_STORAGE_DATABASE_H_
