#include "core/executor.h"

#include <algorithm>
#include <deque>
#include <optional>
#include <utility>

#include "common/check.h"
#include "io/async_reader.h"
#include "io/disk_scheduler.h"
#include "obs/span.h"

namespace pmjoin {

void JoinEntries(const JoinInput& input, std::span<const MatrixEntry> entries,
                 PairSink* sink, OpCounters* ops) {
  for (const MatrixEntry& e : entries) {
    input.joiner->JoinPages(e.row, e.col, sink, ops);
  }
}

namespace {

/// Validates a cluster index and computes its page set. Shared by the join
/// loop and the staging window so a bad cluster is rejected at the join
/// loop's position with the same status either way.
Status ValidateAndPageSet(const JoinInput& input,
                          const std::vector<Cluster>& clusters,
                          uint32_t index, uint32_t capacity,
                          std::vector<PageId>* pages) {
  if (index >= clusters.size())
    return Status::InvalidArgument("order index out of range");
  *pages = ClusterPageSet(clusters[index], input);
  if (pages->size() > capacity)
    return Status::BufferFull("cluster larger than buffer pool");
  return Status::OK();
}

/// The seek-optimal physical read schedule of `pages`'s non-resident
/// subset — the runs the later PinBatch will issue for them. Exact for
/// the immediately next cluster (nothing changes residency between this
/// prediction and that PinBatch: Unpin touches no residency, and
/// PinBatch pins a batch's resident pages before any eviction). For
/// clusters staged further ahead the prediction can go stale — see
/// StagingWindow.
std::vector<PageRun> MissRuns(BufferPool* pool,
                              std::span<const PageId> pages) {
  std::vector<PageId> missed;
  for (const PageId& pid : pages) {
    if (!pool->Contains(pid)) missed.push_back(pid);
  }
  return BuildSchedule(*pool->disk(), std::move(missed));
}

/// Hands one upcoming cluster's miss runs to the async reader, which
/// physically reads them into staging buffers while earlier clusters are
/// joined. The schedule is split into one contiguous slice per reader
/// thread, so multiple I/O threads share a cluster's reads while each
/// slice stays in seek-optimal order.
/// Ledger-neutral: staging charges no modeled I/O — consumption happens
/// inside the later PinBatch at its usual position, where the base
/// backend applies the identical accounting the synchronous read would
/// have.
void StageCluster(BufferPool* pool, AsyncReader* reader,
                  std::span<const PageId> next, uint32_t next_index) {
  PMJOIN_SPAN_ARG("prefetch_async", next_index);
  const std::vector<PageRun> runs = MissRuns(pool, next);
  if (runs.empty()) return;
  const size_t slices = std::min<size_t>(reader->num_threads(), runs.size());
  const size_t per_slice = (runs.size() + slices - 1) / slices;
  for (size_t begin = 0; begin < runs.size(); begin += per_slice) {
    reader->SubmitBatch(std::span(runs).subspan(
        begin, std::min(per_slice, runs.size() - begin)));
  }
}

/// Sliding lookahead window for the async read pipeline: keeps the miss
/// runs of up to kLookaheadClusters upcoming clusters staged ahead of the
/// join cursor, bounded by a staged-page budget so staging memory stays a
/// few MB regardless of pool size (the cluster right after the cursor is
/// always staged, matching the minimum one-cluster pipeline). Depth
/// beyond one cluster is what keeps the I/O threads busy while the
/// coordinator consumes and joins — with a single cluster in flight the
/// pipeline drains at every cluster boundary, serializing reader and
/// coordinator again.
///
/// Staleness: runs for clusters beyond the immediately next one are
/// predicted against residency at stage time; pins and evictions by the
/// intervening clusters can shift the pin-time run boundaries (only where
/// page sets overlap). A stale staged run is simply never consumed — the
/// pin reads those pages synchronously and DropStaged reclaims the run
/// when the join finishes. Correctness and the modeled ledger are
/// unaffected; only the wasted physical read is lost.
class StagingWindow {
 public:
  static constexpr size_t kLookaheadClusters = 16;
  static constexpr size_t kLookaheadPages = 1024;

  StagingWindow(const JoinInput& input, const std::vector<Cluster>& clusters,
                std::span<const uint32_t> order, BufferPool* pool,
                AsyncReader* reader)
      : input_(input),
        clusters_(clusters),
        order_(order),
        pool_(pool),
        reader_(reader) {}

  /// Stages every not-yet-staged cluster in (i, i + kLookaheadClusters]
  /// that fits the page budget (the first of them unconditionally). Call
  /// right after cluster order[i]'s pins land; `i` must be monotone.
  void Advance(size_t i) {
    if (reader_ == nullptr) return;
    while (!window_.empty() && window_.front().first <= i) {
      staged_pages_ -= window_.front().second;
      window_.pop_front();
    }
    if (next_ <= i) next_ = i + 1;
    while (next_ < order_.size() && next_ <= i + kLookaheadClusters) {
      std::vector<PageId> pages;
      // A validation failure is ignored on purpose: the join loop's own
      // iteration for that cluster fails at the same point with the same
      // status.
      if (!ValidateAndPageSet(input_, clusters_, order_[next_],
                              pool_->capacity(), &pages)
               .ok())
        return;
      if (next_ > i + 1 && staged_pages_ + pages.size() > kLookaheadPages)
        return;
      StageCluster(pool_, reader_, pages, order_[next_]);
      window_.emplace_back(next_, pages.size());
      staged_pages_ += pages.size();
      ++next_;
    }
  }

 private:
  const JoinInput& input_;
  const std::vector<Cluster>& clusters_;
  const std::span<const uint32_t> order_;
  BufferPool* const pool_;
  AsyncReader* const reader_;
  /// (order position, page count) of clusters staged and not yet passed
  /// by the cursor; `staged_pages_` is the sum of the page counts.
  std::deque<std::pair<size_t, size_t>> window_;
  size_t staged_pages_ = 0;
  size_t next_ = 0;
};

/// Joins a cluster's entries on a worker pool in contiguous chunks, chunk
/// c into private shard c, then drains the shards in shard order, which
/// reproduces the inline emission sequence, not just the set. Workers
/// touch neither pool nor disk: they compute on pinned dataset memory and
/// write only to their own shards.
class ChunkedJoin {
 public:
  /// Runs on `shared` when non-null, else on a private pool of
  /// `num_threads` workers.
  ChunkedJoin(ThreadPool* shared, uint32_t num_threads)
      : workers_(shared != nullptr ? shared : &owned_.emplace(num_threads)),
        pair_shards_(workers_->size()),
        op_shards_(workers_->size()) {}
  ChunkedJoin(const ChunkedJoin&) = delete;
  ChunkedJoin& operator=(const ChunkedJoin&) = delete;

  /// Hands `entries` to the workers and returns at once. Finish must
  /// follow before `input` or `entries` go away.
  void Start(const JoinInput& input, std::span<const MatrixEntry> entries) {
    const size_t n = entries.size();
    const uint32_t chunks =
        static_cast<uint32_t>(std::min<size_t>(workers_->size(), n));
    done_.Add(chunks);
    for (uint32_t c = 0; c < chunks; ++c) {
      const size_t lo = n * c / chunks;
      const size_t hi = n * (c + 1) / chunks;
      const std::span<const MatrixEntry> chunk = entries.subspan(lo, hi - lo);
      PairSink* chunk_sink = pair_shards_.shard(c);
      OpCounters* chunk_ops = op_shards_.shard(c);
      workers_->Submit([this, &input, chunk, chunk_sink, chunk_ops] {
        {
          // Scoped so the span's final read of *chunk_ops completes before
          // Done() releases the chunk to the drain.
          PMJOIN_SPAN_OPS("join_entries", chunk_ops);
          JoinEntries(input, chunk, chunk_sink, chunk_ops);
        }
        done_.Done();
      });
    }
  }

  /// Waits for the chunks, drains them into `sink`/`ops`, and returns
  /// their join CPU. The shards were drained after the previous cluster,
  /// so their totals are exactly this cluster's.
  OpCounters Finish(PairSink* sink, OpCounters* ops) {
    done_.Wait();
    const OpCounters joined = op_shards_.Total();
    op_shards_.DrainInto(ops);
    pair_shards_.Drain(sink);
    return joined;
  }

 private:
  std::optional<ThreadPool> owned_;
  ThreadPool* const workers_;
  ShardedPairSink pair_shards_;
  ShardedOpCounters op_shards_;
  WaitGroup done_;
};

}  // namespace

Status ExecuteClusteredJoin(const JoinInput& input,
                            const std::vector<Cluster>& clusters,
                            std::span<const uint32_t> order,
                            BufferPool* pool, PairSink* sink,
                            OpCounters* ops,
                            const ExecutorOptions& options) {
  PMJOIN_SPAN_OPS("execute", ops);
  if (order.size() != clusters.size())
    return Status::InvalidArgument("order size != cluster count");
  if (options.cluster_charges != nullptr &&
      options.cluster_charges->size() < clusters.size())
    return Status::InvalidArgument("cluster_charges smaller than clusters");
  if (order.empty()) return Status::OK();

  // Async read pipeline. `cleanup` is declared before the reader so the
  // unwind order — on every exit path, including errors — is: join the
  // I/O threads first (no further PerformStage can start), then drop
  // whatever was staged but never consumed.
  struct StagedCleanup {
    StorageBackend* disk = nullptr;
    ~StagedCleanup() {
      if (disk != nullptr) disk->DropStaged();
    }
  } cleanup;
  std::optional<AsyncReader> reader;
  if (options.io_threads > 0 && pool->disk()->SupportsStaging()) {
    cleanup.disk = pool->disk();
    reader.emplace(pool->disk(), options.io_threads);
  }
  // More than one worker joins each cluster in chunks; one worker joins
  // inline, straight into `sink`/`ops`.
  std::optional<ChunkedJoin> chunked;
  if (options.num_threads > 1)
    chunked.emplace(options.thread_pool, options.num_threads);

  // One pass per cluster: pin its pages at the serial position, let the
  // staging window read ahead while the entries join, record the
  // cluster's charges, release the pins.
  std::vector<ClusterCharge>* const charges = options.cluster_charges;
  StagingWindow staging(input, clusters, order, pool,
                        reader ? &*reader : nullptr);
  for (size_t i = 0; i < order.size(); ++i) {
    const uint32_t index = order[i];
    PMJOIN_SPAN_OPS_ARG("cluster", ops, index);
    std::vector<PageId> pages;
    PMJOIN_RETURN_IF_ERROR(ValidateAndPageSet(input, clusters, index,
                                              pool->capacity(), &pages));
    const IoStats io_before = pool->disk()->stats();
    PMJOIN_RETURN_IF_ERROR(pool->PinBatch(pages));
    const IoStats pin_io = pool->disk()->stats().Delta(io_before);

    const std::vector<MatrixEntry>& entries = clusters[index].entries;
    if (chunked) chunked->Start(input, entries);
    // Read ahead while the workers join (with one worker, just before the
    // inline join).
    staging.Advance(i);
    OpCounters join_ops;
    if (chunked) {
      join_ops = chunked->Finish(sink, ops);
    } else {
      const OpCounters ops_before = ops != nullptr ? *ops : OpCounters();
      {
        PMJOIN_SPAN_OPS("join_entries", ops);
        JoinEntries(input, entries, sink, ops);
      }
      if (ops != nullptr) join_ops = ops->Delta(ops_before);
    }
    if (charges != nullptr) {
      (*charges)[index].io += pin_io;
      (*charges)[index].ops += join_ops;
    }
    pool->UnpinBatch(pages);
    // Phase boundary: the cluster's pins are released, the pool must be
    // back in a self-consistent state (paranoid builds only).
    PMJOIN_DCHECK_OK(pool->ValidateInvariants());
  }
  return Status::OK();
}

}  // namespace pmjoin
