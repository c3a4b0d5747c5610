// Per-layer accounting for the traced mode: wall time around each call into
// a layer's public function, plus the exclusive (self) time of the
// library's own obs spans inside ExecuteClusteredJoin and the io.* metrics
// it records.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "bench.h"
#include "common/op_counters.h"
#include "common/status.h"
#include "core/join_driver.h"
#include "core/joiners.h"
#include "core/prediction_matrix.h"
#include "io/io_stats.h"
#include "io/storage_backend.h"
#include "obs/span.h"

namespace perfbench {

/// Totals of one traced round, summed over its operations.
struct LayerLedger {
  // Wall time around the layer calls.
  double matrix_build_s = 0.0;
  double clustering_s = 0.0;
  double schedule_s = 0.0;
  double execute_s = 0.0;
  double knn_matrix_build_s = 0.0;
  double knn_expand_s = 0.0;

  // From the library's spans inside the executor.
  double join_cpu_s = 0.0;  ///< join_entries (parallel) or cluster self time.
  double pin_s = 0.0;       ///< pin_batch spans.
  // From the library's io.* histograms (log2 buckets, see HistogramSum).
  double wait_s = 0.0;
  double pread_s = 0.0;

  // Counts.
  uint64_t matrix_mbr_tests = 0;
  uint64_t matrix_entries = 0;
  uint64_t clusters = 0;
  uint64_t cluster_ops = 0;
  uint64_t result_pairs = 0;
  uint64_t knn_pages_read = 0;
  pmjoin::IoStats io;
  pmjoin::OpCounters ops;
  pmjoin::StorageBackend::MeasuredIo measured;

  /// Folds the events and io.* metrics of one finished obs session.
  void FoldSession(const std::vector<pmjoin::obs::TraceEvent>& events);
  /// Writes every per-layer metric this ledger feeds into `out`.
  void Export(MetricSet* out) const;
};

/// Runs `fn` and adds its wall time to `*acc`.
template <typename F>
auto Timed(double* acc, F&& fn) {
  const double t0 = Now();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    *acc += Now() - t0;
  } else {
    auto result = fn();
    *acc += Now() - t0;
    return result;
  }
}

/// Exclusive time per span name: each event's duration minus the
/// durations of its direct children (same thread, one level deeper,
/// inside its interval). Keys are the events' leaf names.
struct SpanTotals {
  double total_s = 0.0;
  double self_s = 0.0;
};
std::vector<std::pair<std::string, SpanTotals>> SpanSelfTimes(
    const std::vector<pmjoin::obs::TraceEvent>& events);

/// Sum estimate of a log2-bucketed obs histogram of nanoseconds, in
/// seconds: bucket b holds values in [2^(b-1), 2^b), counted at 0.75 * 2^b.
double HistogramSeconds(const char* name);

/// A matrix-family ε-join run layer by layer, mirroring what
/// JoinDriver::Run* does for the same options.
struct PipelineSpec {
  const pmjoin::JoinInput* input = nullptr;
  std::function<pmjoin::PredictionMatrix(pmjoin::OpCounters*)> build_matrix;
  /// When non-null, a prebuilt matrix whose build counters `matrix_ops`
  /// are replayed instead of calling build_matrix (the server's cache).
  const pmjoin::PredictionMatrix* matrix = nullptr;
  const pmjoin::OpCounters* matrix_ops = nullptr;
  pmjoin::Algorithm algorithm = pmjoin::Algorithm::kSc;
  uint32_t buffer_pages = 100;
  uint32_t num_threads = 1;
  uint32_t io_threads = 0;
  uint64_t seed = 42;  ///< CC's seed draws.
  pmjoin::StorageBackend* disk = nullptr;
};

/// Runs the pipeline into `sink`, charging `ops` and timing each layer
/// into `ledger` (which may be null for an untimed run).
pmjoin::Status RunPipeline(const PipelineSpec& spec, pmjoin::PairSink* sink,
                           pmjoin::OpCounters* ops, LayerLedger* ledger);

/// Modeled seconds the way JoinReport::TotalSeconds() computes them.
double ModeledSeconds(const pmjoin::IoStats& io, const pmjoin::OpCounters& ops,
                      const pmjoin::StorageBackend& disk);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
