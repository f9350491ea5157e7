// Scratch heap files for spilling operators.
//
// A TempHeap is an anonymous (uncataloged) heap file whose pages come
// from the database's shared page store and whose lifetime is one
// operator phase: grace hash-join partitions, external-sort runs and
// spilled mid-query captures write to it like any table (filling their
// tail page in place, with no buffer-pool lock per tuple) and read it
// back through the buffer pool, and the destructor discards the file's
// frames and returns its pages to the store's free list.  The owning
// Database counts live temp heaps so tests can assert that a query —
// including one cancelled mid-flight — leaks no spill storage.
//
// Spilled tuples can be wider than a page (an intermediate join row
// concatenates every input relation's columns), so each tuple is encoded
// once and stored as one or more chunk records — [u8 is_last][piece] —
// that the scanner reassembles.  Chunks of one tuple are contiguous
// because a temp heap is appended by a single writer.

#ifndef DQEP_STORAGE_TEMP_HEAP_H_
#define DQEP_STORAGE_TEMP_HEAP_H_

#include <memory>
#include <string>

#include "storage/heap_file.h"

namespace dqep {

class Database;

/// RAII spill file: tuples of any width on heap-file storage that frees
/// its pages on destruction.
class TempHeap {
 public:
  TempHeap(PageStore* store, BufferPool* pool, const Database* owner);
  ~TempHeap();

  TempHeap(const TempHeap&) = delete;
  TempHeap& operator=(const TempHeap&) = delete;

  /// Appends one tuple, encoding it once.
  void Append(const Tuple& tuple);

  /// Pages written so far (each counted as one physical write).
  int64_t NumPages() const { return heap_.NumPages(); }

  /// Sequential cursor over the tuples in append order, reading through
  /// the buffer pool.  No appends may interleave with a live scanner.
  class Scanner {
   public:
    explicit Scanner(const TempHeap* heap)
        : scanner_(heap->heap_.CreateScanner()) {}

    /// Produces the next tuple; false at end of file.
    bool Next(Tuple* out);

   private:
    HeapFile::Scanner scanner_;
    std::string record_;  // reassembly buffer for multi-chunk tuples
  };

  Scanner CreateScanner() const { return Scanner(this); }

 private:
  const Database* owner_;
  HeapFile heap_;
  std::string record_;  // reused [is_last][encoded tuple] buffer
  std::string chunk_;   // reused chunk record of a multi-chunk tuple
};

}  // namespace dqep

#endif  // DQEP_STORAGE_TEMP_HEAP_H_
