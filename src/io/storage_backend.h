#ifndef PMJOIN_IO_STORAGE_BACKEND_H_
#define PMJOIN_IO_STORAGE_BACKEND_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "io/disk_model.h"
#include "io/io_stats.h"
#include "io/page_file.h"

namespace pmjoin {

/// Physical page size used by backends unless the caller overrides it.
/// The *modeled* cost is per-page regardless of size; the page size only
/// matters for backends that store real payload bytes.
inline constexpr uint32_t kDefaultPageSizeBytes = 4096;

/// Abstract page-oriented storage: a set of files, each a dense array of
/// fixed-size pages.
///
/// The base class owns the paper's linear-disk *cost model* — the head
/// position, the seek-vs-sequential accounting, and the cumulative
/// `IoStats`. Every public operation first performs the backend's physical
/// work (a subclass hook), then applies the modeled accounting only on
/// success. Because the accounting lives here and is keyed purely to the
/// sequence of page operations, the modeled `IoStats` of a run are
/// byte-identical across backends by construction; backends differ only in
/// where the payload bytes live (RAM, real files) and in the *measured*
/// I/O they report.
///
/// All I/O performed by the join operators — through the BufferPool or
/// directly (external sort passes, spill files) — funnels through this
/// interface, so `stats()` is the single source of truth for every modeled
/// I/O figure the benchmarks report.
class StorageBackend {
 public:
  /// Real I/O observed by the backend (syscalls issued, bytes moved).
  /// Always counted — cheap integer increments — independent of the obs
  /// layer; the obs metrics mirror these when a tracer session is active.
  /// The simulated backend performs no syscalls, so its counters stay zero.
  struct MeasuredIo {
    uint64_t read_syscalls = 0;
    uint64_t write_syscalls = 0;
    uint64_t read_bytes = 0;
    uint64_t write_bytes = 0;
    uint64_t sync_calls = 0;
    uint64_t checksum_checks = 0;
    /// Always zero: no backend issues read-ahead hints (the async reader
    /// is the only prefetch). Kept because perfbench/src/batch_workloads.cc
    /// reads the field.
    uint64_t fadvise_calls = 0;

    /// Folds another counter set into this one (used to merge the
    /// per-staged-run counters accumulated off-thread by the async
    /// reader back into the backend's ledger on the coordinator).
    void Merge(const MeasuredIo& other) {
      read_syscalls += other.read_syscalls;
      write_syscalls += other.write_syscalls;
      read_bytes += other.read_bytes;
      write_bytes += other.write_bytes;
      sync_calls += other.sync_calls;
      checksum_checks += other.checksum_checks;
    }
  };

  explicit StorageBackend(DiskModel model = DiskModel(),
                          uint32_t page_size_bytes = kDefaultPageSizeBytes);
  virtual ~StorageBackend();

  StorageBackend(const StorageBackend&) = delete;
  StorageBackend& operator=(const StorageBackend&) = delete;

  /// Short identifier for reports: "sim", "file".
  virtual std::string_view backend_name() const = 0;

  /// Creates a file with `initial_pages` pages. Files occupy disjoint
  /// physical regions; a file may grow later via `AllocatePages`. Returns
  /// the new file's id. Registration itself never fails; a backend whose
  /// physical create fails (e.g. the data directory is not writable)
  /// records a sticky error that every subsequent operation on the file
  /// returns.
  uint32_t CreateFile(std::string_view name, uint32_t initial_pages = 0);

  /// Number of files registered.
  size_t NumFiles() const { return files_.size(); }

  /// File metadata; `file` must be a valid id.
  const PageFile& file(uint32_t file) const { return files_[file]; }

  /// Number of pages currently in `file`; `file` must be a valid id.
  uint32_t num_pages(uint32_t file) const { return files_[file].num_pages; }

  /// Finds a file by name. When several files share a name (e.g. a dataset
  /// persisted twice), the most recently created one wins.
  Result<uint32_t> FindFile(std::string_view name) const;

  /// Grows `file` by `pages` pages (physically contiguous with the file's
  /// existing pages). Returns the index of the first new page.
  Result<uint32_t> AllocatePages(uint32_t file, uint32_t pages = 1);

  /// Reads one page, payload discarded: charges one modeled transfer, plus
  /// a seek if the page is not physically adjacent to the previous access.
  Status ReadPage(PageId pid);

  /// Reads `count` physically consecutive pages starting at `pid` (one
  /// modeled seek at most, `count` transfers).
  Status ReadPages(PageId pid, uint32_t count);

  /// Writes one page of zeros (same adjacency rule as reads). The page
  /// must already exist (use AllocatePages to grow the file first).
  Status WritePage(PageId pid);

  /// Writes one page with the given payload (at most `page_size_bytes()`
  /// bytes; the remainder of the page is zero-filled). Modeled cost is
  /// identical to `WritePage`.
  Status WritePagePayload(PageId pid, std::span<const uint8_t> payload);

  /// Reads one page's payload into `out`, which must be exactly
  /// `page_size_bytes()` long. Modeled cost is identical to `ReadPage`.
  Status ReadPagePayload(PageId pid, std::span<uint8_t> out);

  /// Full sequential scan of a file (one modeled seek + N transfers).
  Status ScanFile(uint32_t file);

  /// Flushes all buffered writes to stable storage. No modeled cost (the
  /// paper's model has no durability dimension).
  Status Sync();

  /// Physical page size in bytes.
  uint32_t page_size_bytes() const { return page_size_bytes_; }

  /// Cumulative modeled I/O counters.
  const IoStats& stats() const { return stats_; }
  IoStats& mutable_stats() { return stats_; }

  /// Cumulative measured (real) I/O counters.
  const MeasuredIo& measured() const { return measured_; }

  /// The disk cost model in force.
  const DiskModel& model() const { return model_; }

  /// Modeled elapsed I/O seconds so far.
  double ModeledSeconds() const { return stats_.ModeledSeconds(model_); }

  /// Resets modeled counters (not file layout). Used between benchmark
  /// phases that share a dataset.
  void ResetStats() { stats_.Reset(); }

  /// --- Asynchronous staging (optional; see io/async_reader.h) ---
  ///
  /// Staging moves *physical bytes only* — it never touches the modeled
  /// `IoStats` ledger, which is charged (by the base class, as always)
  /// when the staged run is later consumed through `ReadPages` at its
  /// normal call site. A backend without physical reads has nothing to
  /// stage; the defaults make staging a no-op there.
  ///
  /// Lifecycle of one staged run (a physically consecutive page range):
  ///   1. BeginStage(pid, count)  — coordinator registers the run (pending).
  ///      Returns false if the backend does not stage, the range is
  ///      invalid, or a run with the same start is already registered.
  ///      (Runs are keyed by start; consumption requires an exact
  ///      (start, count) match, so distinct-start overlaps are harmless —
  ///      they just read some bytes twice.)
  ///   2. PerformStage(pid, count) — an I/O thread claims the pending run,
  ///      physically reads + verifies it into a staging buffer, and
  ///      publishes the result (payload or error). A run already claimed
  ///      back by the coordinator (step 3 hit first) is skipped.
  ///   3. ReadPages(pid, count) on the coordinator consumes the staged
  ///      result instead of re-reading: ready runs are taken as-is
  ///      (blocking briefly if the read is still in flight — the wait is
  ///      surfaced via the `io.wait_ns` metric); still-pending runs are
  ///      claimed back and read synchronously.
  ///   4. DropStaged() discards whatever was never consumed (end of run or
  ///      error unwind). Physical reads that already happened stay in the
  ///      measured ledger — the bytes really moved.
  virtual bool SupportsStaging() const { return false; }
  virtual bool BeginStage(PageId pid, uint32_t count) {
    (void)pid;
    (void)count;
    return false;
  }
  /// Thread-safe; the only StorageBackend entry point I/O threads may call.
  virtual void PerformStage(PageId pid, uint32_t count) {
    (void)pid;
    (void)count;
  }
  /// Blocks until no stage is in flight, then discards unconsumed runs.
  /// Coordinator-only, and only safe once no further PerformStage calls
  /// can be *submitted* (destroy the AsyncReader first).
  virtual void DropStaged() {}
  /// Number of runs currently registered (pending, in flight, or ready).
  virtual size_t StagedCount() const { return 0; }

 protected:
  /// Physical hooks. The base class validates arguments and performs the
  /// modeled accounting; hooks only move bytes. A hook failure suppresses
  /// the accounting for that operation.
  ///
  /// Physically creates the file. Must not fail destructively: a backend
  /// that cannot create the file records a sticky per-file error instead
  /// (CreateFile registration is infallible by contract).
  virtual void DoCreateFile(uint32_t file_id, std::string_view name,
                            uint32_t initial_pages) = 0;
  /// Physically extends `file` with `count` zeroed pages at `first_new`.
  virtual Status DoAllocatePages(uint32_t file, uint32_t first_new,
                                 uint32_t count) = 0;
  /// Physically reads `count` consecutive pages. If `payload_out` is
  /// non-null it holds `count * page_size_bytes()` bytes to fill; when
  /// null the payload is verified (checksums) but discarded.
  virtual Status DoReadPages(PageId pid, uint32_t count,
                             uint8_t* payload_out) = 0;
  /// Physically writes one page. `payload`/`payload_size` give the leading
  /// bytes (null/0 for a zero page); the rest of the page is zero-filled.
  virtual Status DoWritePage(PageId pid, const uint8_t* payload,
                             uint32_t payload_size) = 0;
  virtual Status DoSync() = 0;

  /// Registers a file restored from existing physical storage (backend
  /// attach path). Bypasses `DoCreateFile` and charges nothing.
  uint32_t RegisterRestoredFile(std::string_view name, uint32_t num_pages);

  /// Real-I/O counters, maintained by subclass hooks.
  MeasuredIo measured_;

  /// Physical region granularity between files. Regions never overlap as
  /// long as no file exceeds this page count; because regions are this far
  /// apart, an access that crosses a file boundary always charges a seek,
  /// which makes the modeled cost independent of file *ids* (only the
  /// per-file page sequences matter).
  static constexpr uint64_t kFileRegionPages = uint64_t(1) << 32;

 private:
  Status CheckPage(PageId pid) const;
  void Access(uint64_t physical, uint32_t run_len, bool is_write);
  uint32_t RegisterFile(std::string_view name, uint32_t num_pages);

  DiskModel model_;
  uint32_t page_size_bytes_;
  std::vector<PageFile> files_;
  IoStats stats_;

  /// Physical address the head would reach next with no seek; ~0 initially
  /// (first access always seeks).
  uint64_t next_sequential_ = ~uint64_t(0);
};

/// Writes `blob` to a new file `name` on `backend` as zero-padded pages.
/// Returns the new file's id. Used for dataset metadata (`Persist`).
Result<uint32_t> WriteBlobFile(StorageBackend* backend, std::string_view name,
                               std::span<const uint8_t> blob);

/// Reads the whole of `file` back as one byte buffer of
/// `num_pages * page_size_bytes()` (the writer's zero padding included).
Result<std::vector<uint8_t>> ReadFileBlob(StorageBackend* backend,
                                          uint32_t file);

}  // namespace pmjoin

#endif  // PMJOIN_IO_STORAGE_BACKEND_H_
