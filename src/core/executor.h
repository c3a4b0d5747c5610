#ifndef PMJOIN_CORE_EXECUTOR_H_
#define PMJOIN_CORE_EXECUTOR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/op_counters.h"
#include "common/pair_sink.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/cluster.h"
#include "core/shard_planner.h"
#include "io/buffer_pool.h"

namespace pmjoin {

/// Execution knobs for ExecuteClusteredJoin. The defaults reproduce the
/// paper's serial executor exactly; all existing callers and figures are
/// unchanged.
struct ExecutorOptions {
  /// Worker threads joining a cluster's marked entries. 1 (the default)
  /// joins them inline on the calling thread. With n > 1, each cluster's
  /// entry list is split into n contiguous chunks joined concurrently;
  /// results and CPU counters are gathered from per-thread shards in chunk
  /// order, so the emitted pair sequence and the aggregated `OpCounters`
  /// are identical to the inline run's.
  uint32_t num_threads = 1;

  /// Optional externally owned pool of workers to reuse across calls
  /// (must have >= 1 thread). When null and num_threads > 1, the call
  /// creates a transient pool of num_threads workers.
  ThreadPool* thread_pool = nullptr;

  /// Dedicated I/O threads for the async read pipeline (0, the default,
  /// keeps every physical read synchronous). When > 0 and the backend
  /// supports staging (FileBackend), cluster k+1's non-resident pages are
  /// *physically* read in the background — in the same seek-optimal
  /// schedule order — while cluster k is joined, then consumed by the
  /// normal PinBatch at its usual position. Ledger-neutral by
  /// construction: the modeled IoStats are charged at consumption exactly
  /// as in the synchronous run; only the wall-clock timing of the bytes
  /// changes. Independent of num_threads. Staging never pins: every
  /// cluster is pinned at its serial position.
  uint32_t io_threads = 0;

  /// When non-null, the executor records each cluster's exact charges
  /// into `(*cluster_charges)[cluster index]` (+=, so a caller can
  /// accumulate across calls): the modeled IoStats delta of the cluster's
  /// PinBatch and the OpCounters delta of its entry joins. Attribution
  /// changes nothing observable (the execution path is identical with or
  /// without it), and it is exact: every modeled page the executor moves
  /// is pinned on behalf of exactly one cluster, so the summed charges
  /// equal the executor's I/O footprint field by field. Must be sized >=
  /// clusters.size(); the shard coordinator (core/shard_coordinator.h)
  /// folds the charges into per-shard totals by plan ownership.
  std::vector<ClusterCharge>* cluster_charges = nullptr;
};

/// In-memory join of a range of marked entries: calls
/// `input.joiner->JoinPages` for each entry in order. This is the entry-
/// join kernel shared by the executor's inline path, each worker's chunk,
/// and pm-NLJ-style callers that already hold the pages resident.
/// The caller guarantees every referenced page is buffer-resident.
void JoinEntries(const JoinInput& input, std::span<const MatrixEntry> entries,
                 PairSink* sink, OpCounters* ops);

/// Processes clusters in the given order (§8): for each cluster, its page
/// set is read through the buffer pool using the seek-optimal multi-page
/// schedule (step 1), and its marked entries are joined in memory (step 2
/// — Lemma 2 guarantees the pages fit). Pages shared with recently
/// processed clusters are still pool-resident and cost nothing, which is
/// exactly the reuse the schedule maximizes.
///
/// `order` holds indices into `clusters` (e.g. from ScheduleClusters, or a
/// shuffled order for the random-SC baseline).
///
/// With `options.num_threads > 1` the in-memory join of each cluster runs
/// on a worker pool; with `options.io_threads > 0` upcoming clusters'
/// pages are read ahead while it runs. Neither changes the disk-access
/// sequence, so the result-pair sequence, CPU counters, and simulated I/O
/// stats are identical to the one-worker synchronous run (the Lemma 3–4
/// seek accounting stays intact).
Status ExecuteClusteredJoin(const JoinInput& input,
                            const std::vector<Cluster>& clusters,
                            std::span<const uint32_t> order,
                            BufferPool* pool, PairSink* sink,
                            OpCounters* ops,
                            const ExecutorOptions& options = {});

}  // namespace pmjoin

#endif  // PMJOIN_CORE_EXECUTOR_H_
