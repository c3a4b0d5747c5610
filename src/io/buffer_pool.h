#ifndef PMJOIN_IO_BUFFER_POOL_H_
#define PMJOIN_IO_BUFFER_POOL_H_

#include <cstdint>
#include <list>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "io/page_file.h"
#include "io/storage_backend.h"

namespace pmjoin {

/// Fixed-capacity page buffer with LRU replacement (paper §4: "We will use
/// LRU as the page replacement policy due to its simplicity and
/// effectiveness").
///
/// The pool tracks *residency*, not payload bytes (payloads live with the
/// datasets; the disk is simulated). A page access that hits the pool is
/// free and counted in `IoStats::buffer_hits`; a miss evicts the LRU
/// unpinned page if the pool is full and charges the simulated disk.
///
/// Cluster reuse across consecutive clusters (the paper's Optimization 3)
/// falls out of this design: pages shared with the previous cluster are
/// still resident and hit the pool.
///
/// A pool may also be shared *across* whole joins (the join server hands
/// one pool to every query via JoinResources): page identity is global
/// (PageId = file + index), so residency left by one query simply turns
/// the next query's reads of the same pages into buffer hits. The sharer
/// must serialize access (the pool is not thread-safe) and should assert
/// CheckQuiescent() at query boundaries — a leaked pin would silently
/// shrink every later query's effective buffer.
class BufferPool {
 public:
  /// A pool holding at most `capacity` pages. `disk` must outlive the pool.
  BufferPool(StorageBackend* disk, uint32_t capacity);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Makes `pid` resident (reading it from disk if needed) and pins it.
  /// Pinned pages are never evicted; fails with BufferFull if the pool is
  /// full of pinned pages.
  Status Pin(PageId pid);

  /// Makes `pid` resident without pinning (it is immediately evictable).
  Status Touch(PageId pid);

  /// Releases one pin on `pid`. The page stays resident (LRU) until evicted.
  void Unpin(PageId pid);

  /// Pins a batch. Misses are fetched with the seek-optimal disk schedule
  /// (io/disk_scheduler.h); hits cost nothing. The batch must fit:
  /// `pages.size() + pinned pages` must be <= capacity.
  ///
  /// Failure is NOT state-neutral: pins acquired before the failure are
  /// rolled back (and, when the physical read of the miss set fails — a
  /// FileBackend checksum mismatch, say — the missed pages' residency is
  /// dropped too, since their payloads were never read), but evictions
  /// already performed, `buffer_hits` already charged, and refreshed LRU
  /// positions are not restored. Callers treat failure as fatal.
  Status PinBatch(std::span<const PageId> pages);

  /// Unpins every page in `pages` (each exactly once).
  void UnpinBatch(std::span<const PageId> pages);

  /// True iff the page is resident (pinned or not).
  bool Contains(PageId pid) const;

  /// Drops all unpinned pages (used between independent experiment phases).
  /// Fails if any page is still pinned.
  Status Clear();

  /// Verifies no page is pinned (every resident page is evictable).
  /// Callers sharing a pool across joins (the join server) check this at
  /// query boundaries: a leaked pin is a bug in the finished query, and
  /// left in place it would steal buffer capacity from every subsequent
  /// one. Returns Internal naming the pinned count on violation.
  Status CheckQuiescent() const;

  /// Full structural audit of the pool's bookkeeping: residency never
  /// exceeds capacity, `PinnedCount()` equals the number of frames with a
  /// positive pin count, and the LRU list holds exactly the unpinned
  /// resident pages (each once, with back-pointers consistent). O(resident)
  /// — called from tests, and at executor phase boundaries in paranoid
  /// builds (-DPMJOIN_PARANOID=ON). Returns Internal describing the first
  /// violation found.
  Status ValidateInvariants() const;

  uint32_t capacity() const { return capacity_; }
  uint32_t ResidentCount() const { return static_cast<uint32_t>(frames_.size()); }
  uint32_t PinnedCount() const { return pinned_count_; }

  StorageBackend* disk() { return disk_; }

 private:
  struct Frame {
    uint32_t pin_count = 0;
    /// Position in lru_ when pin_count == 0; lru_.end() otherwise.
    std::list<PageId>::iterator lru_pos;
    bool in_lru = false;
  };

  /// Ensures residency; appends to `missed` instead of reading when the
  /// page is absent (batch path) or reads immediately when `missed` is null.
  Status Ensure(PageId pid, std::vector<PageId>* missed);

  /// Evicts one LRU unpinned page; BufferFull if none exists.
  Status EvictOne();

  StorageBackend* disk_;
  uint32_t capacity_;
  uint32_t pinned_count_ = 0;
  std::unordered_map<PageId, Frame, PageIdHash> frames_;
  /// Unpinned resident pages, least-recently-used first.
  std::list<PageId> lru_;
};

/// RAII batch pin: pins in the constructor caller's hands, unpins on
/// destruction.
class PinnedBatch {
 public:
  PinnedBatch(BufferPool* pool, std::vector<PageId> pages)
      : pool_(pool), pages_(std::move(pages)) {}
  ~PinnedBatch() {
    if (pool_ != nullptr) pool_->UnpinBatch(pages_);
  }
  PinnedBatch(const PinnedBatch&) = delete;
  PinnedBatch& operator=(const PinnedBatch&) = delete;

  const std::vector<PageId>& pages() const { return pages_; }

 private:
  BufferPool* pool_;
  std::vector<PageId> pages_;
};

}  // namespace pmjoin

#endif  // PMJOIN_IO_BUFFER_POOL_H_
