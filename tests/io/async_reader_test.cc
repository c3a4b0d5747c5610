// Staging lifecycle of the async read pipeline (io/async_reader.h +
// FileBackend staging): staged reads must be ledger-neutral — the modeled
// IoStats charged when a staged run is consumed through ReadPages are
// byte-identical to a synchronous read of the same run — while the
// measured (real) counters faithfully record every physical read,
// consumed or dropped.

#include "io/async_reader.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <system_error>
#include <vector>

#include <gtest/gtest.h>

#include "io/file_backend.h"
#include "io/page_file.h"
#include "io/simulated_disk.h"

namespace pmjoin {
namespace {

/// A fresh scratch directory under the gtest temp dir (removed up front so
/// reruns start clean).
std::string ScratchDir(const char* tag) {
  const std::string dir = ::testing::TempDir() + "pmjoin-artest-" +
                          std::to_string(::getpid()) + "-" + tag;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return dir;
}

FileBackend::Options SmallPages() {
  FileBackend::Options options;
  options.page_size_bytes = 128;
  return options;
}

/// Path of `file`'s page file inside the backend directory (resolved by
/// prefix so the name-sanitization rules stay internal to the backend).
std::string PagePath(const FileBackend& backend, uint32_t file) {
  char prefix[16];
  std::snprintf(prefix, sizeof(prefix), "pf%06u_", file);
  for (const auto& entry :
       std::filesystem::directory_iterator(backend.directory())) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0)
      return entry.path().string();
  }
  return {};
}

/// Flips one bit at byte `offset` of `path`.
void FlipBit(const std::string& path, uint64_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open()) << path;
  f.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&byte, 1);
}

constexpr uint32_t kPages = 6;

/// Backend with one file of `kPages` pages whose payloads are distinct per
/// page (so consumed staging buffers can be verified byte-for-byte).
std::unique_ptr<FileBackend> MakeBackend(const char* tag,
                                         uint32_t* file_out) {
  auto backend = FileBackend::Open(ScratchDir(tag), SmallPages()).value();
  const uint32_t file = backend->CreateFile("data", kPages);
  std::vector<uint8_t> payload(backend->page_size_bytes());
  for (uint32_t page = 0; page < kPages; ++page) {
    for (size_t i = 0; i < payload.size(); ++i)
      payload[i] = static_cast<uint8_t>(page * 31 + i);
    EXPECT_TRUE(backend->WritePagePayload({file, page}, payload).ok());
  }
  *file_out = file;
  return backend;
}

TEST(FileBackendStagingTest, StagedConsumeMatchesSyncRead) {
  uint32_t file = 0;
  auto backend = MakeBackend("consume", &file);
  // Warm-up read so the two measured runs below start from the same head
  // position (the first access after Build charges a different seek).
  ASSERT_TRUE(backend->ReadPages({file, 0}, 3).ok());

  // Synchronous reference read of the run.
  const IoStats sync_io_before = backend->stats();
  const StorageBackend::MeasuredIo sync_meas_before = backend->measured();
  ASSERT_TRUE(backend->ReadPages({file, 0}, 3).ok());
  const IoStats sync_io = backend->stats().Delta(sync_io_before);
  const uint64_t sync_syscalls =
      backend->measured().read_syscalls - sync_meas_before.read_syscalls;
  const uint64_t sync_bytes =
      backend->measured().read_bytes - sync_meas_before.read_bytes;
  const uint64_t sync_checks =
      backend->measured().checksum_checks - sync_meas_before.checksum_checks;

  // The same run staged and driven to completion, then consumed.
  ASSERT_TRUE(backend->BeginStage({file, 0}, 3));
  EXPECT_EQ(backend->StagedCount(), 1u);
  backend->PerformStage({file, 0}, 3);

  const IoStats staged_io_before = backend->stats();
  const StorageBackend::MeasuredIo staged_meas_before = backend->measured();
  ASSERT_TRUE(backend->ReadPages({file, 0}, 3).ok());
  EXPECT_EQ(backend->StagedCount(), 0u);

  // Modeled ledger: byte-identical to the synchronous read.
  EXPECT_EQ(backend->stats().Delta(staged_io_before), sync_io);
  // Measured ledger: the staged physical read (performed above, merged at
  // consumption) did exactly the synchronous read's work.
  EXPECT_EQ(backend->measured().read_syscalls -
                staged_meas_before.read_syscalls,
            sync_syscalls);
  EXPECT_EQ(backend->measured().read_bytes - staged_meas_before.read_bytes,
            sync_bytes);
  EXPECT_EQ(backend->measured().checksum_checks -
                staged_meas_before.checksum_checks,
            sync_checks);
}

TEST(FileBackendStagingTest, StagedPayloadRoundTrips) {
  uint32_t file = 0;
  auto backend = MakeBackend("payload", &file);
  ASSERT_TRUE(backend->BeginStage({file, 4}, 1));
  backend->PerformStage({file, 4}, 1);

  std::vector<uint8_t> out(backend->page_size_bytes(), 0xAA);
  ASSERT_TRUE(backend->ReadPagePayload({file, 4}, out).ok());
  EXPECT_EQ(backend->StagedCount(), 0u);
  for (size_t i = 0; i < out.size(); ++i)
    ASSERT_EQ(out[i], static_cast<uint8_t>(4 * 31 + i)) << "byte " << i;
}

TEST(FileBackendStagingTest, PendingRunClaimedBackSynchronously) {
  uint32_t file = 0;
  auto backend = MakeBackend("claimback", &file);
  // Registered but never reached by an I/O thread: the coordinator's own
  // read claims it back and reads synchronously.
  ASSERT_TRUE(backend->BeginStage({file, 1}, 2));
  ASSERT_TRUE(backend->ReadPages({file, 1}, 2).ok());
  EXPECT_EQ(backend->StagedCount(), 0u);

  // A PerformStage arriving after the claim-back is a no-op.
  const StorageBackend::MeasuredIo before = backend->measured();
  backend->PerformStage({file, 1}, 2);
  EXPECT_EQ(backend->measured().read_syscalls, before.read_syscalls);
  EXPECT_EQ(backend->StagedCount(), 0u);
}

TEST(FileBackendStagingTest, CountMismatchReadsSynchronouslyAndKeepsRun) {
  uint32_t file = 0;
  auto backend = MakeBackend("mismatch", &file);
  ASSERT_TRUE(backend->BeginStage({file, 0}, 2));
  backend->PerformStage({file, 0}, 2);
  // Same start, different length: consumption requires an exact match, so
  // this reads synchronously and leaves the staged run for DropStaged.
  ASSERT_TRUE(backend->ReadPage({file, 0}).ok());
  EXPECT_EQ(backend->StagedCount(), 1u);
  backend->DropStaged();
  EXPECT_EQ(backend->StagedCount(), 0u);
}

TEST(FileBackendStagingTest, BeginStageRejectsDuplicatesAndBadRanges) {
  uint32_t file = 0;
  auto backend = MakeBackend("reject", &file);
  EXPECT_TRUE(backend->BeginStage({file, 0}, 2));
  EXPECT_FALSE(backend->BeginStage({file, 0}, 1));       // same start
  EXPECT_FALSE(backend->BeginStage({file, 0}, 0));       // empty run
  EXPECT_FALSE(backend->BeginStage({file, kPages}, 1));  // past the end
  EXPECT_FALSE(backend->BeginStage({file, kPages - 1}, 2));  // overruns
  EXPECT_FALSE(backend->BeginStage({file + 7, 0}, 1));   // no such file
  EXPECT_EQ(backend->StagedCount(), 1u);
  backend->DropStaged();
  EXPECT_EQ(backend->StagedCount(), 0u);
}

TEST(FileBackendStagingTest, DropStagedKeepsMeasuredBytes) {
  uint32_t file = 0;
  auto backend = MakeBackend("drop", &file);
  ASSERT_TRUE(backend->BeginStage({file, 0}, 2));
  backend->PerformStage({file, 0}, 2);

  const IoStats io_before = backend->stats();
  const StorageBackend::MeasuredIo meas_before = backend->measured();
  backend->DropStaged();
  EXPECT_EQ(backend->StagedCount(), 0u);
  // The physical read really happened: it lands in the measured ledger on
  // the drop. The modeled ledger never sees dropped staging.
  EXPECT_GT(backend->measured().read_syscalls, meas_before.read_syscalls);
  EXPECT_GT(backend->measured().checksum_checks, meas_before.checksum_checks);
  EXPECT_EQ(backend->stats(), io_before);
}

TEST(SimulatedDiskStagingTest, DeclinesStaging) {
  SimulatedDisk disk;
  disk.CreateFile("d", 4);
  EXPECT_FALSE(disk.SupportsStaging());
  EXPECT_FALSE(disk.BeginStage({0, 0}, 2));
  EXPECT_EQ(disk.StagedCount(), 0u);
  disk.DropStaged();  // no-op

  AsyncReader reader(&disk, 2);
  EXPECT_FALSE(reader.Submit(PageRun{{0, 0}, 2}));
  // Reads are untouched by the declined staging.
  EXPECT_TRUE(disk.ReadPages({0, 0}, 4).ok());
}

TEST(AsyncReaderTest, StagesRunsForLaterConsumption) {
  uint32_t file = 0;
  auto backend = MakeBackend("reader", &file);
  {
    AsyncReader reader(backend.get(), 2);
    EXPECT_EQ(reader.num_threads(), 2u);
    EXPECT_TRUE(reader.Submit(PageRun{{file, 0}, 3}));
    EXPECT_TRUE(reader.Submit(PageRun{{file, 4}, 2}));
    EXPECT_FALSE(reader.Submit(PageRun{{file, 0}, 3}));  // duplicate start
    EXPECT_FALSE(reader.Submit(PageRun{{file, 0}, 0}));  // empty run
  }  // joins the reader threads
  // Whatever the readers finished is consumed as staged; anything they
  // never reached is claimed back — either way the reads succeed and the
  // staging table drains.
  EXPECT_TRUE(backend->ReadPages({file, 0}, 3).ok());
  EXPECT_TRUE(backend->ReadPages({file, 4}, 2).ok());
  EXPECT_EQ(backend->StagedCount(), 0u);
}

TEST(AsyncReaderTest, TinyQueueStillCompletes) {
  uint32_t file = 0;
  auto backend = MakeBackend("tinyqueue", &file);
  {
    // Capacity 1 forces Submit to block on the queue bound and exercise
    // the backpressure path.
    AsyncReader reader(backend.get(), 1, /*queue_capacity=*/1);
    for (uint32_t page = 0; page < kPages; ++page)
      EXPECT_TRUE(reader.Submit(PageRun{{file, page}, 1}));
  }
  for (uint32_t page = 0; page < kPages; ++page)
    EXPECT_TRUE(backend->ReadPage({file, page}).ok());
  EXPECT_EQ(backend->StagedCount(), 0u);
}

TEST(AsyncReaderTest, CorruptStagedReadSurfacesThroughReadPages) {
  uint32_t file = 0;
  auto backend = MakeBackend("corrupt", &file);
  const std::string path = PagePath(*backend, file);
  ASSERT_FALSE(path.empty());
  // Corrupt page 2's payload on disk, then stage the run covering it.
  FlipBit(path, FileBackend::SlotOffset(backend->page_size_bytes(), 2) + 7);
  {
    AsyncReader reader(backend.get(), 1);
    ASSERT_TRUE(reader.Submit(PageRun{{file, 1}, 3}));
  }
  const IoStats io_before = backend->stats();
  const Status st = backend->ReadPages({file, 1}, 3);
  EXPECT_TRUE(st.IsCorruption()) << st.message();
  EXPECT_EQ(backend->StagedCount(), 0u);
  // A failed read charges nothing on the modeled ledger (same rule as the
  // synchronous path), and the backend stays usable for intact pages.
  EXPECT_EQ(backend->stats(), io_before);
  EXPECT_TRUE(backend->ReadPage({file, 0}).ok());
}

}  // namespace
}  // namespace pmjoin
