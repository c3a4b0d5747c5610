#include "layers.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <numeric>
#include <optional>

#include "common/cost_model.h"
#include "common/rng.h"
#include "core/cost_clustering.h"
#include "core/executor.h"
#include "core/pm_nlj.h"
#include "core/scheduler.h"
#include "core/square_clustering.h"
#include "io/buffer_pool.h"
#include "obs/metrics.h"

namespace perfbench {

using pmjoin::Algorithm;
using pmjoin::OpCounters;
using pmjoin::Status;
using pmjoin::obs::TraceEvent;

std::vector<std::pair<std::string, SpanTotals>> SpanSelfTimes(
    const std::vector<TraceEvent>& events) {
  // Per thread, by start time (parents before children on ties: deeper
  // spans start no earlier and sort after by depth).
  std::vector<size_t> idx(events.size());
  std::iota(idx.begin(), idx.end(), 0);
  std::sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
    const TraceEvent& x = events[a];
    const TraceEvent& y = events[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.start_ns != y.start_ns) return x.start_ns < y.start_ns;
    return x.depth < y.depth;
  });
  std::vector<int64_t> child_ns(events.size(), 0);
  std::vector<size_t> stack;  // open ancestors on the current thread
  for (size_t k = 0; k < idx.size(); ++k) {
    const TraceEvent& e = events[idx[k]];
    if (k > 0 && events[idx[k - 1]].tid != e.tid) stack.clear();
    // Spans nest per thread, so a span at depth d closes every open span
    // at depth >= d.
    while (!stack.empty() && events[stack.back()].depth >= e.depth)
      stack.pop_back();
    if (!stack.empty() && events[stack.back()].depth + 1 == e.depth)
      child_ns[stack.back()] += e.end_ns - e.start_ns;
    stack.push_back(idx[k]);
  }
  std::map<std::string, SpanTotals> totals;
  for (size_t i = 0; i < events.size(); ++i) {
    SpanTotals& t = totals[events[i].name];
    const int64_t dur = events[i].end_ns - events[i].start_ns;
    t.total_s += dur * 1e-9;
    t.self_s += (dur - child_ns[i]) * 1e-9;
  }
  return {totals.begin(), totals.end()};
}

double HistogramSeconds(const char* name) {
  for (const auto& row : pmjoin::obs::MetricsRegistry::Get().Snapshot()) {
    if (row.name != name || row.type != "histogram") continue;
    double ns = 0.0;
    for (const auto& [bucket, count] : row.buckets) {
      if (bucket == 0) continue;
      ns += double(count) * 0.75 * std::ldexp(1.0, int(bucket));
    }
    return ns * 1e-9;
  }
  return 0.0;
}

void LayerLedger::FoldSession(const std::vector<TraceEvent>& events) {
  double join_entries_s = 0.0;
  double cluster_self_s = 0.0;
  for (const auto& [name, t] : SpanSelfTimes(events)) {
    if (name == "pin_batch") pin_s += t.total_s;
    if (name == "join_entries") join_entries_s += t.total_s;
    if (name == "cluster") cluster_self_s += t.self_s;
  }
  // The parallel executor joins on workers (join_entries spans, summed over
  // workers); the serial one joins inside the cluster span itself, so its
  // join time is the cluster's self time (minus pin_batch/prefetch_async).
  join_cpu_s += join_entries_s > 0.0 ? join_entries_s : cluster_self_s;
  wait_s += HistogramSeconds("io.wait_ns");
  pread_s += HistogramSeconds("io.pread_ns");
}

namespace {
double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }
}  // namespace

void LayerLedger::Export(MetricSet* out) const {
  out->Set("core.matrix_build_s", matrix_build_s, "s");
  out->Set("core.matrix_mbr_tests", double(matrix_mbr_tests), "count");
  out->Set("core.matrix_entries", double(matrix_entries), "count");
  out->Set("core.pairs_per_entry", Ratio(result_pairs, matrix_entries),
           "ratio");
  out->Set("core.clustering_s", clustering_s, "s");
  out->Set("core.clusters", double(clusters), "count");
  out->Set("core.cluster_ops", double(cluster_ops), "count");
  out->Set("core.schedule_s", schedule_s, "s");
  out->Set("core.execute_s", execute_s, "s");
  out->Set("core.join_cpu_s", join_cpu_s, "s");
  out->Set("core.pin_s", pin_s, "s");
  out->Set("io.wait_s", wait_s, "s");
  out->Set("io.pages_read", double(io.pages_read), "pages");
  out->Set("io.seeks", double(io.seeks), "seeks");
  out->Set("io.buffer_hits", double(io.buffer_hits), "pages");
  out->Set("io.buffer_hit_ratio",
           Ratio(io.buffer_hits, double(io.buffer_hits + io.pages_read)),
           "ratio");
  out->Set("io.read_syscalls", double(measured.read_syscalls), "count");
  out->Set("io.read_mib", measured.read_bytes / (1024.0 * 1024.0), "MiB");
  out->Set("io.pread_s", pread_s, "s");
  out->Set("io.checksum_checks", double(measured.checksum_checks), "count");
  out->Set("geom.dist_terms", double(ops.distance_terms), "count");
  out->Set("geom.dist_terms_per_s", Ratio(ops.distance_terms, join_cpu_s),
           "1/s");
  out->Set("seq.edit_cells", double(ops.edit_cells), "count");
  out->Set("seq.edit_cells_per_s", Ratio(ops.edit_cells, join_cpu_s), "1/s");
  out->Set("seq.filter_checks", double(ops.filter_checks), "count");
  out->Set("seq.filter_checks_per_s", Ratio(ops.filter_checks, join_cpu_s),
           "1/s");
  out->Set("core.knn_matrix_build_s", knn_matrix_build_s, "s");
  out->Set("core.knn_expand_s", knn_expand_s, "s");
  out->Set("core.knn_pages_read", double(knn_pages_read), "pages");
}

Status RunPipeline(const PipelineSpec& spec, pmjoin::PairSink* sink,
                   OpCounters* ops, LayerLedger* ledger) {
  LayerLedger scratch;
  LayerLedger& led = ledger != nullptr ? *ledger : scratch;

  std::optional<pmjoin::PredictionMatrix> built;
  const pmjoin::PredictionMatrix* matrix = spec.matrix;
  if (matrix == nullptr) {
    const uint64_t tests_before = ops->mbr_tests;
    built = Timed(&led.matrix_build_s,
                  [&] { return spec.build_matrix(ops); });
    led.matrix_mbr_tests += ops->mbr_tests - tests_before;
    matrix = &*built;
  } else if (spec.matrix_ops != nullptr) {
    *ops += *spec.matrix_ops;
  }
  led.matrix_entries += matrix->MarkedCount();

  pmjoin::BufferPool pool(spec.disk, spec.buffer_pages);
  const uint64_t pairs_before = ops->result_pairs;
  Status st;
  if (spec.algorithm == Algorithm::kPmNlj) {
    st = Timed(&led.execute_s, [&] {
      return pmjoin::PmNlj(*spec.input, *matrix, &pool, sink, ops);
    });
  } else {
    const uint64_t cluster_ops_before = ops->cluster_ops;
    std::vector<pmjoin::Cluster> clusters = Timed(&led.clustering_s, [&] {
      if (spec.algorithm == Algorithm::kCc) {
        pmjoin::Rng rng(spec.seed);
        return pmjoin::CostClustering(*matrix, spec.buffer_pages,
                                      spec.disk->model(),
                                      /*hist_resolution=*/100, &rng, ops);
      }
      return pmjoin::SquareClustering(*matrix, spec.buffer_pages, ops);
    });
    led.clusters += clusters.size();
    std::vector<uint32_t> order = Timed(&led.schedule_s, [&] {
      return pmjoin::ScheduleClusters(clusters, *spec.input, ops);
    });
    led.cluster_ops += ops->cluster_ops - cluster_ops_before;
    pmjoin::ExecutorOptions exec;
    exec.num_threads = spec.num_threads;
    exec.io_threads = spec.io_threads;
    st = Timed(&led.execute_s, [&] {
      return pmjoin::ExecuteClusteredJoin(*spec.input, clusters, order,
                                          &pool, sink, ops, exec);
    });
  }
  led.result_pairs += ops->result_pairs - pairs_before;
  return st;
}

double ModeledSeconds(const pmjoin::IoStats& io, const OpCounters& ops,
                      const pmjoin::StorageBackend& disk) {
  const pmjoin::CpuCostModel cpu;
  return io.ModeledSeconds(disk.model()) + cpu.JoinSeconds(ops) +
         cpu.PreprocessSeconds(ops);
}

}  // namespace perfbench
