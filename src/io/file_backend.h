#ifndef PMJOIN_IO_FILE_BACKEND_H_
#define PMJOIN_IO_FILE_BACKEND_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/sync.h"
#include "io/disk_model.h"
#include "io/page_file.h"
#include "io/storage_backend.h"

namespace pmjoin {

/// Real-file `StorageBackend`: POSIX pread/pwrite over a directory of page
/// files. The modeled `IoStats` are still computed by the base class (so a
/// run's modeled cost is byte-identical to the simulated backend); this
/// backend adds *measured* I/O on top, so modeled-vs-measured cost can be
/// compared in one run report.
///
/// On-disk format (all integers little-endian):
///
///   <dir>/pf<6-digit id>_<sanitized name>.pmj
///
///   [ superblock: kSuperblockBytes ]
///     off 0   magic   "PMJPAGE1" (8 bytes)
///     off 8   u32     format version (kFormatVersion)
///     off 12  u32     page size in bytes
///     off 16  u32     number of pages
///     off 20  u32     file-name length
///     off 24  name    (at most kMaxNameBytes bytes, unpadded)
///     off 504 u64     XXH64 of bytes [0, 504)
///   [ page slot 0: page_size payload + u64 XXH64 of the payload ]
///   [ page slot 1 ] ...
///
/// Every read verifies the per-page checksum; a mismatch (bit flip,
/// truncation, torn write) surfaces as `Status::Corruption` — never a
/// crash. Pages allocated but never written read back as zeros (slots are
/// zero-filled, with valid checksums, at allocation time).
class FileBackend final : public StorageBackend {
 public:
  struct Options {
    DiskModel model;
    uint32_t page_size_bytes = kDefaultPageSizeBytes;
  };

  static constexpr char kMagic[8] = {'P', 'M', 'J', 'P', 'A', 'G', 'E', '1'};
  static constexpr uint32_t kFormatVersion = 1;
  static constexpr uint32_t kSuperblockBytes = 512;
  static constexpr uint32_t kMaxNameBytes = 448;

  /// Byte length of one page slot (payload + checksum trailer).
  static constexpr uint64_t SlotBytes(uint32_t page_size) {
    return uint64_t(page_size) + 8;
  }
  /// Byte offset of page `page`'s slot within its file.
  static constexpr uint64_t SlotOffset(uint32_t page_size, uint32_t page) {
    return kSuperblockBytes + uint64_t(page) * SlotBytes(page_size);
  }

  /// Opens (creating if needed) `directory` as a backend root and attaches
  /// any page files already present, restoring their ids in creation
  /// order. Fails with `Corruption` on a bad superblock (magic, version,
  /// checksum, or a gap in the id sequence) and `InvalidArgument` on a
  /// page-size mismatch with `options`.
  static Result<std::unique_ptr<FileBackend>> Open(std::string_view directory,
                                                   Options options);
  static Result<std::unique_ptr<FileBackend>> Open(std::string_view directory) {
    return Open(directory, Options());
  }

  ~FileBackend() override;

  std::string_view backend_name() const override { return "file"; }

  const std::string& directory() const { return dir_; }

  /// The sticky physical status of `file`: OK, or the error that its
  /// creation hit (every page operation on such a file returns it too).
  Status FileStatus(uint32_t file) const;

  /// Asynchronous staging (see io/storage_backend.h for the lifecycle and
  /// io/async_reader.h for the threads that drive PerformStage). The
  /// staging table is guarded by `staging_mu_` (lock_rank::kIoStaging);
  /// the physical read and its metric mirrors always happen with the
  /// mutex released, so staging never nests a lock over the obs layer.
  /// BeginStage / DropStaged / StagedCount are coordinator-only;
  /// PerformStage is the one thread-safe entry point.
  /// Staging must not run concurrently with file creation or allocation
  /// (the executor only stages between joins of an already-built dataset).
  bool SupportsStaging() const override { return true; }
  bool BeginStage(PageId pid, uint32_t count) override
      PMJOIN_EXCLUDES(staging_mu_);
  void PerformStage(PageId pid, uint32_t count) override
      PMJOIN_EXCLUDES(staging_mu_);
  void DropStaged() override PMJOIN_EXCLUDES(staging_mu_);
  size_t StagedCount() const override PMJOIN_EXCLUDES(staging_mu_);

 protected:
  void DoCreateFile(uint32_t file_id, std::string_view name,
                    uint32_t initial_pages) override;
  Status DoAllocatePages(uint32_t file, uint32_t first_new,
                         uint32_t count) override;
  Status DoReadPages(PageId pid, uint32_t count,
                     uint8_t* payload_out) override;
  Status DoWritePage(PageId pid, const uint8_t* payload,
                     uint32_t payload_size) override;
  Status DoSync() override;

 private:
  struct Handle {
    int fd = -1;
    std::string path;  // for opening extra staging descriptors
    Status error;      // sticky: set when creation failed
  };

  /// One staged page run: registered pending by the coordinator, read into
  /// `slots` by an I/O thread (state kInFlight → kReady), consumed or
  /// dropped by the coordinator. `slots` is the run's raw on-disk image
  /// (payload + checksum trailer per page), verified in place by the I/O
  /// thread — the consume path copies payloads straight out of it, so a
  /// staged read costs the same number of copies as a synchronous one.
  /// `io` accumulates the staging read's measured counters off-thread;
  /// they are merged into `measured_` on the coordinator when the run is
  /// consumed or dropped.
  enum class StageState { kPending, kInFlight, kReady };
  struct StagedRun {
    StageState state = StageState::kPending;
    uint32_t count = 0;
    Status status;
    // Uninitialized on purpose: every byte is overwritten by the staging
    // pread (or the run fails and the buffer is dropped unread); zeroing
    // it first would put a full extra memory pass on the staging path.
    std::unique_ptr<uint8_t[]> slots;
    MeasuredIo io;
  };

  FileBackend(std::string directory, Options options);

  /// Staging-table key: the run's physical start (file region + page).
  static uint64_t StageKey(PageId pid) {
    return (uint64_t(pid.file) << 32) | pid.page;
  }

  std::string PathFor(uint32_t file_id, std::string_view name) const;
  Status WriteSuperblock(uint32_t file, std::string_view name,
                         uint32_t num_pages);
  Status WriteZeroSlots(uint32_t file, uint32_t first, uint32_t count);
  Status PwriteAll(int fd, const uint8_t* buf, size_t len, uint64_t offset);
  Status PreadAll(int fd, uint8_t* buf, size_t len, uint64_t offset,
                  std::string_view what, MeasuredIo* io);
  /// Chunked pread + per-page checksum verification of `count` slots
  /// starting at `pid`, copying payloads into `payload_out` when non-null.
  /// Counts into `io` (the caller picks `&measured_` on the coordinator or
  /// a staged run's local set on an I/O thread) and uses `scratch` for the
  /// slot-aligned chunk buffer.
  Status ReadSlotsVerify(int fd, PageId pid, uint32_t count,
                         const std::string& fname, uint8_t* payload_out,
                         std::vector<uint8_t>* scratch, MeasuredIo* io);

  std::string dir_;
  std::vector<Handle> handles_;
  /// Slot-aligned scratch for chunked reads/writes; coordinator-only (the
  /// executor funnels all pool I/O through one thread; staging reads on
  /// I/O threads use per-call local buffers instead).
  std::vector<uint8_t> scratch_;

  mutable Mutex staging_mu_{lock_rank::kIoStaging, "FileBackend::staging_mu_"};
  CondVar staging_cv_;
  std::unordered_map<uint64_t, StagedRun> staging_
      PMJOIN_GUARDED_BY(staging_mu_);
  /// Number of runs currently being read by PerformStage. DropStaged waits
  /// for this to reach zero before clearing the table.
  uint32_t staging_inflight_ PMJOIN_GUARDED_BY(staging_mu_) = 0;
  /// Spare read-only descriptors per file, used exclusively by
  /// PerformStage. Each concurrent staged read checks one out (opening a
  /// new one on first use), so every read stream owns a distinct kernel
  /// file description: the per-description readahead state then sees each
  /// run's chunks back-to-back instead of interleaved with other runs on
  /// the coordinator's descriptor — interleaving defeats sequential
  /// detection and measurably slows the physical reads. The pool never
  /// grows past the number of concurrently staging threads.
  std::unordered_map<uint32_t, std::vector<int>> staging_fds_
      PMJOIN_GUARDED_BY(staging_mu_);
};

}  // namespace pmjoin

#endif  // PMJOIN_IO_FILE_BACKEND_H_
