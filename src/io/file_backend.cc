#include "io/file_backend.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <utility>
#include <vector>

#include "io/checksum.h"
#include "obs/clock.h"
#include "obs/metrics.h"

namespace pmjoin {
namespace {

/// Pages moved per syscall when reading/writing runs of slots.
constexpr uint32_t kChunkPages = 256;

void PutU32(uint8_t* p, uint32_t v) { std::memcpy(p, &v, sizeof(v)); }
void PutU64(uint8_t* p, uint64_t v) { std::memcpy(p, &v, sizeof(v)); }
uint32_t GetU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
uint64_t GetU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

Status ErrnoStatus(std::string_view what) {
  return Status::IoError(std::string(what) + ": " + std::strerror(errno));
}

std::string SanitizeName(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                      c == '-';
    out.push_back(keep ? c : '_');
  }
  if (out.size() > 64) out.resize(64);
  return out;
}

}  // namespace

FileBackend::FileBackend(std::string directory, Options options)
    : StorageBackend(options.model, options.page_size_bytes),
      dir_(std::move(directory)) {}

FileBackend::~FileBackend() {
  for (Handle& h : handles_) {
    if (h.fd >= 0) ::close(h.fd);
  }
  for (auto& [file, fds] : staging_fds_) {
    for (int fd : fds) ::close(fd);
  }
}

Result<std::unique_ptr<FileBackend>> FileBackend::Open(
    std::string_view directory, Options options) {
  if (options.page_size_bytes == 0)
    return Status::InvalidArgument("FileBackend: page size must be nonzero");
  std::string dir(directory);
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST)
    return ErrnoStatus("FileBackend: mkdir " + dir);

  // Collect existing page files: pf<6-digit id>_<name>.pmj.
  std::vector<std::pair<uint32_t, std::string>> entries;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return ErrnoStatus("FileBackend: opendir " + dir);
  while (dirent* e = ::readdir(d)) {
    const std::string fname = e->d_name;
    if (fname.size() < 13 || fname.rfind("pf", 0) != 0) continue;
    if (fname.substr(fname.size() - 4) != ".pmj") continue;
    if (fname[8] != '_') continue;
    uint32_t id = 0;
    bool numeric = true;
    for (int i = 2; i < 8; ++i) {
      if (fname[i] < '0' || fname[i] > '9') {
        numeric = false;
        break;
      }
      id = id * 10 + static_cast<uint32_t>(fname[i] - '0');
    }
    if (!numeric) continue;
    entries.emplace_back(id, fname);
  }
  ::closedir(d);
  std::sort(entries.begin(), entries.end());

  std::unique_ptr<FileBackend> backend(
      new FileBackend(std::move(dir), options));
  for (size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].first != i)
      return Status::Corruption(
          "FileBackend: page-file id sequence has a gap before " +
          entries[i].second);
    const std::string path = backend->dir_ + "/" + entries[i].second;
    const int fd = ::open(path.c_str(), O_RDWR);
    if (fd < 0) return ErrnoStatus("FileBackend: open " + path);

    uint8_t sb[kSuperblockBytes];
    Status read =
        backend->PreadAll(fd, sb, sizeof(sb), 0, path, &backend->measured_);
    if (!read.ok()) {
      ::close(fd);
      if (read.IsCorruption())
        return Status::Corruption("FileBackend: truncated superblock in " +
                                  path);
      return read;
    }
    if (std::memcmp(sb, kMagic, sizeof(kMagic)) != 0) {
      ::close(fd);
      return Status::Corruption("FileBackend: bad magic in " + path);
    }
    if (GetU64(sb + kSuperblockBytes - 8) !=
        Xxh64(sb, kSuperblockBytes - 8)) {
      ::close(fd);
      return Status::Corruption("FileBackend: superblock checksum mismatch " +
                                path);
    }
    const uint32_t version = GetU32(sb + 8);
    if (version != kFormatVersion) {
      ::close(fd);
      return Status::Corruption("FileBackend: unsupported format version in " +
                                path);
    }
    const uint32_t page_size = GetU32(sb + 12);
    if (page_size != options.page_size_bytes) {
      ::close(fd);
      return Status::InvalidArgument(
          "FileBackend: page-size mismatch (backend vs. " + path + ")");
    }
    const uint32_t num_pages = GetU32(sb + 16);
    const uint32_t name_len = GetU32(sb + 20);
    if (name_len > kMaxNameBytes) {
      ::close(fd);
      return Status::Corruption("FileBackend: bad name length in " + path);
    }
    const std::string name(reinterpret_cast<const char*>(sb + 24), name_len);
    backend->RegisterRestoredFile(name, num_pages);
    backend->handles_.push_back(Handle{fd, path, Status::OK()});
  }
  return backend;
}

Status FileBackend::FileStatus(uint32_t file) const {
  if (file >= handles_.size())
    return Status::InvalidArgument("FileStatus: bad file id");
  const Handle& h = handles_[file];
  if (h.fd >= 0) return Status::OK();
  return h.error.ok() ? Status::Internal("FileStatus: file has no descriptor")
                      : h.error;
}

std::string FileBackend::PathFor(uint32_t file_id,
                                 std::string_view name) const {
  char prefix[16];
  std::snprintf(prefix, sizeof(prefix), "pf%06u_", file_id);
  return dir_ + "/" + prefix + SanitizeName(name) + ".pmj";
}

Status FileBackend::PreadAll(int fd, uint8_t* buf, size_t len,
                             uint64_t offset, std::string_view what,
                             MeasuredIo* io) {
  size_t done = 0;
  while (done < len) {
#ifndef PMJOIN_OBS_DISABLED
    const bool timed = obs::ObsEnabled();
    const int64_t t0 = timed ? obs::MonotonicNanos() : 0;
#endif
    const ssize_t r = ::pread(fd, buf + done, len - done,
                              static_cast<off_t>(offset + done));
#ifndef PMJOIN_OBS_DISABLED
    if (timed)
      PMJOIN_METRIC_RECORD(
          "io.pread_ns",
          static_cast<uint64_t>(obs::MonotonicNanos() - t0));
#endif
    if (r < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus(std::string("pread ") + std::string(what));
    }
    ++io->read_syscalls;
    io->read_bytes += static_cast<uint64_t>(r);
    PMJOIN_METRIC_COUNT("io.read_syscalls", 1);
    PMJOIN_METRIC_COUNT("io.read_bytes", static_cast<uint64_t>(r));
    if (r == 0)
      return Status::Corruption(std::string(what) +
                                ": short read (file truncated?)");
    done += static_cast<size_t>(r);
  }
  return Status::OK();
}

Status FileBackend::PwriteAll(int fd, const uint8_t* buf, size_t len,
                              uint64_t offset) {
  size_t done = 0;
  while (done < len) {
#ifndef PMJOIN_OBS_DISABLED
    const bool timed = obs::ObsEnabled();
    const int64_t t0 = timed ? obs::MonotonicNanos() : 0;
#endif
    const ssize_t r = ::pwrite(fd, buf + done, len - done,
                               static_cast<off_t>(offset + done));
#ifndef PMJOIN_OBS_DISABLED
    if (timed)
      PMJOIN_METRIC_RECORD(
          "io.pwrite_ns",
          static_cast<uint64_t>(obs::MonotonicNanos() - t0));
#endif
    if (r < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("pwrite");
    }
    ++measured_.write_syscalls;
    measured_.write_bytes += static_cast<uint64_t>(r);
    PMJOIN_METRIC_COUNT("io.write_syscalls", 1);
    PMJOIN_METRIC_COUNT("io.write_bytes", static_cast<uint64_t>(r));
    if (r == 0) return Status::IoError("pwrite: no progress");
    done += static_cast<size_t>(r);
  }
  return Status::OK();
}

Status FileBackend::WriteSuperblock(uint32_t file, std::string_view name,
                                    uint32_t num_pages) {
  uint8_t sb[kSuperblockBytes] = {0};
  std::memcpy(sb, kMagic, sizeof(kMagic));
  PutU32(sb + 8, kFormatVersion);
  PutU32(sb + 12, page_size_bytes());
  PutU32(sb + 16, num_pages);
  std::string_view stored = name.substr(0, kMaxNameBytes);
  PutU32(sb + 20, static_cast<uint32_t>(stored.size()));
  std::memcpy(sb + 24, stored.data(), stored.size());
  PutU64(sb + kSuperblockBytes - 8, Xxh64(sb, kSuperblockBytes - 8));
  return PwriteAll(handles_[file].fd, sb, sizeof(sb), 0);
}

Status FileBackend::WriteZeroSlots(uint32_t file, uint32_t first,
                                   uint32_t count) {
  if (count == 0) return Status::OK();
  const uint64_t slot = SlotBytes(page_size_bytes());
  const uint32_t chunk_pages = std::min(count, kChunkPages);
  // All zero slots are identical: one template chunk, repeated.
  std::vector<uint8_t> zeros(chunk_pages * slot, 0);
  const uint64_t zero_sum = Xxh64(zeros.data(), page_size_bytes());
  for (uint32_t i = 0; i < chunk_pages; ++i)
    PutU64(zeros.data() + i * slot + page_size_bytes(), zero_sum);
  uint32_t written = 0;
  while (written < count) {
    const uint32_t n = std::min(count - written, chunk_pages);
    PMJOIN_RETURN_IF_ERROR(
        PwriteAll(handles_[file].fd, zeros.data(), n * slot,
                  SlotOffset(page_size_bytes(), first + written)));
    written += n;
  }
  return Status::OK();
}

void FileBackend::DoCreateFile(uint32_t file_id, std::string_view name,
                               uint32_t initial_pages) {
  handles_.resize(file_id + 1);
  Handle& h = handles_[file_id];
  const std::string path = PathFor(file_id, name);
  h.path = path;
  h.fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (h.fd < 0) {
    h.error = ErrnoStatus("FileBackend: create " + path);
    return;
  }
  Status st = WriteSuperblock(file_id, name, initial_pages);
  if (st.ok()) st = WriteZeroSlots(file_id, 0, initial_pages);
  if (!st.ok()) {
    ::close(h.fd);
    h.fd = -1;
    h.error = st;
  }
}

Status FileBackend::DoAllocatePages(uint32_t file, uint32_t first_new,
                                    uint32_t count) {
  PMJOIN_RETURN_IF_ERROR(FileStatus(file));
  PMJOIN_RETURN_IF_ERROR(WriteZeroSlots(file, first_new, count));
  return WriteSuperblock(file, this->file(file).name, first_new + count);
}

Status FileBackend::ReadSlotsVerify(int fd, PageId pid, uint32_t count,
                                    const std::string& fname,
                                    uint8_t* payload_out,
                                    std::vector<uint8_t>* scratch,
                                    MeasuredIo* io) {
  const uint64_t slot = SlotBytes(page_size_bytes());
  const uint32_t chunk_pages = std::min(count, kChunkPages);
  scratch->resize(chunk_pages * slot);
  uint32_t done = 0;
  while (done < count) {
    const uint32_t n = std::min(count - done, chunk_pages);
    PMJOIN_RETURN_IF_ERROR(
        PreadAll(fd, scratch->data(), n * slot,
                 SlotOffset(page_size_bytes(), pid.page + done), fname, io));
    for (uint32_t i = 0; i < n; ++i) {
      const uint8_t* slot_base = scratch->data() + i * slot;
      ++io->checksum_checks;
      if (Xxh64(slot_base, page_size_bytes()) !=
          GetU64(slot_base + page_size_bytes())) {
        return Status::Corruption(
            "FileBackend: page checksum mismatch in '" + fname + "' page " +
            std::to_string(pid.page + done + i));
      }
      if (payload_out != nullptr) {
        std::memcpy(payload_out + uint64_t(done + i) * page_size_bytes(),
                    slot_base, page_size_bytes());
      }
    }
    done += n;
  }
  return Status::OK();
}

Status FileBackend::DoReadPages(PageId pid, uint32_t count,
                                uint8_t* payload_out) {
  PMJOIN_RETURN_IF_ERROR(FileStatus(pid.file));

  // Staged-run fast path: when the async reader was asked to stage exactly
  // this run, consume its result instead of re-reading. The modeled ledger
  // is untouched either way — the base class charges it after this hook
  // returns, identically for staged and synchronous reads.
  Status staged_status;
  std::unique_ptr<uint8_t[]> staged_slots;
  MeasuredIo staged_io;
  bool consumed = false;
  uint64_t waited_ns = 0;
  {
    MutexLock lock(&staging_mu_);
    const uint64_t key = StageKey(pid);
    auto it = staging_.find(key);
    if (it != staging_.end() && it->second.count == count) {
      if (it->second.state == StageState::kPending) {
        // The reader never got to it: claim it back, read synchronously.
        staging_.erase(it);
      } else {
        if (it->second.state == StageState::kInFlight) {
#ifndef PMJOIN_OBS_DISABLED
          const bool timed = obs::ObsEnabled();
          const int64_t t0 = timed ? obs::MonotonicNanos() : 0;
#endif
          // Re-find after each wake: BeginStage inserts (from the
          // coordinator) cannot run while we block here, but PerformStage
          // publishing other runs keeps the map live.
          while (staging_.at(key).state == StageState::kInFlight)
            staging_cv_.Wait(&staging_mu_);
#ifndef PMJOIN_OBS_DISABLED
          if (timed)
            waited_ns = static_cast<uint64_t>(obs::MonotonicNanos() - t0);
#endif
        }
        StagedRun& run = staging_.at(key);
        staged_status = std::move(run.status);
        staged_slots = std::move(run.slots);
        staged_io = run.io;
        staging_.erase(key);
        consumed = true;
      }
    }
  }
  if (consumed) {
    measured_.Merge(staged_io);
#ifndef PMJOIN_OBS_DISABLED
    if (waited_ns > 0) PMJOIN_METRIC_RECORD("io.wait_ns", waited_ns);
#endif
    (void)waited_ns;
    PMJOIN_RETURN_IF_ERROR(staged_status);
    if (payload_out != nullptr) {
      const uint64_t slot = SlotBytes(page_size_bytes());
      for (uint32_t i = 0; i < count; ++i) {
        std::memcpy(payload_out + uint64_t(i) * page_size_bytes(),
                    staged_slots.get() + uint64_t(i) * slot,
                    page_size_bytes());
      }
    }
    return Status::OK();
  }

  return ReadSlotsVerify(handles_[pid.file].fd, pid, count,
                         file(pid.file).name, payload_out, &scratch_,
                         &measured_);
}

bool FileBackend::BeginStage(PageId pid, uint32_t count) {
  if (count == 0 || pid.file >= handles_.size()) return false;
  if (handles_[pid.file].fd < 0) return false;
  if (pid.page >= num_pages(pid.file) ||
      count > num_pages(pid.file) - pid.page)
    return false;
  MutexLock lock(&staging_mu_);
  auto [it, inserted] = staging_.try_emplace(StageKey(pid));
  if (!inserted) return false;
  it->second.count = count;
  return true;
}

void FileBackend::PerformStage(PageId pid, uint32_t count) {
  const uint64_t key = StageKey(pid);
  int fd = -1;
  {
    MutexLock lock(&staging_mu_);
    auto it = staging_.find(key);
    if (it == staging_.end() || it->second.state != StageState::kPending ||
        it->second.count != count)
      return;  // claimed back or dropped before we got here
    it->second.state = StageState::kInFlight;
    ++staging_inflight_;
    // Check out this stream's private descriptor (see staging_fds_ in the
    // header: one kernel file description per concurrent read stream keeps
    // readahead sequential-detection intact).
    std::vector<int>& pool = staging_fds_[pid.file];
    if (!pool.empty()) {
      fd = pool.back();
      pool.pop_back();
    }
  }
  // Physical read + verification with no lock held, into per-run local
  // buffers and counters (scratch_/measured_ are coordinator-only, and
  // the metric mirrors inside PreadAll must not fire under staging_mu_).
  // The run's raw slot image is read in the same chunk sizes the
  // synchronous path uses and verified in place; no payload copy happens
  // here (the consume path copies straight from the image).
  const uint64_t slot = SlotBytes(page_size_bytes());
  auto slots = std::make_unique_for_overwrite<uint8_t[]>(uint64_t(count) * slot);
  MeasuredIo io;
  Status st = FileStatus(pid.file);
  if (st.ok()) {
    if (fd < 0 && !handles_[pid.file].path.empty())
      fd = ::open(handles_[pid.file].path.c_str(), O_RDONLY);
    // Shared-descriptor fallback if the private open failed: correct,
    // just slower under concurrency.
    const int read_fd = fd >= 0 ? fd : handles_[pid.file].fd;
    const std::string& fname = file(pid.file).name;
    for (uint32_t done = 0; done < count && st.ok();
         done += std::min(count - done, kChunkPages)) {
      const uint32_t n = std::min(count - done, kChunkPages);
      st = PreadAll(read_fd, slots.get() + uint64_t(done) * slot, n * slot,
                    SlotOffset(page_size_bytes(), pid.page + done), fname,
                    &io);
    }
    for (uint32_t i = 0; i < count && st.ok(); ++i) {
      const uint8_t* slot_base = slots.get() + i * slot;
      ++io.checksum_checks;
      if (Xxh64(slot_base, page_size_bytes()) !=
          GetU64(slot_base + page_size_bytes())) {
        st = Status::Corruption(
            "FileBackend: page checksum mismatch in '" + fname + "' page " +
            std::to_string(pid.page + i));
      }
    }
  }
  MutexLock lock(&staging_mu_);
  auto it = staging_.find(key);
  if (it != staging_.end() && it->second.state == StageState::kInFlight) {
    it->second.state = StageState::kReady;
    it->second.status = std::move(st);
    it->second.slots = std::move(slots);
    it->second.io = io;
  }
  --staging_inflight_;
  if (fd >= 0) staging_fds_[pid.file].push_back(fd);
  staging_cv_.NotifyAll();
}

void FileBackend::DropStaged() {
  MeasuredIo dropped;
  {
    MutexLock lock(&staging_mu_);
    // Pending runs never started; in-flight runs must finish first (the
    // reader thread still references their entries).
    for (auto it = staging_.begin(); it != staging_.end();) {
      it = it->second.state == StageState::kPending ? staging_.erase(it)
                                                    : std::next(it);
    }
    while (staging_inflight_ > 0) staging_cv_.Wait(&staging_mu_);
    for (const auto& [key, run] : staging_) dropped.Merge(run.io);
    staging_.clear();
  }
  // Dropped reads still happened physically: they stay in the measured
  // ledger. The modeled ledger never saw them (staging charges nothing).
  measured_.Merge(dropped);
}

size_t FileBackend::StagedCount() const {
  MutexLock lock(&staging_mu_);
  return staging_.size();
}

Status FileBackend::DoWritePage(PageId pid, const uint8_t* payload,
                                uint32_t payload_size) {
  PMJOIN_RETURN_IF_ERROR(FileStatus(pid.file));
  const uint64_t slot = SlotBytes(page_size_bytes());
  scratch_.assign(slot, 0);
  if (payload != nullptr && payload_size > 0)
    std::memcpy(scratch_.data(), payload, payload_size);
  PutU64(scratch_.data() + page_size_bytes(),
         Xxh64(scratch_.data(), page_size_bytes()));
  return PwriteAll(handles_[pid.file].fd, scratch_.data(), slot,
                   SlotOffset(page_size_bytes(), pid.page));
}

Status FileBackend::DoSync() {
  for (const Handle& h : handles_) {
    if (h.fd < 0) continue;
    if (::fsync(h.fd) != 0) return ErrnoStatus("fsync");
    ++measured_.sync_calls;
  }
  return Status::OK();
}

}  // namespace pmjoin
