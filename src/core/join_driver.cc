#include "core/join_driver.h"

#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <utility>
#include <vector>

#include "baselines/bfrj.h"
#include "baselines/block_nlj.h"
#include "baselines/ego.h"
#include "baselines/pbsm.h"
#include "common/check.h"
#include "common/rng.h"
#include "core/cost_clustering.h"
#include "core/executor.h"
#include "core/invariant_audit.h"
#include "core/joiners.h"
#include "core/knn_join.h"
#include "core/plane_sweep.h"
#include "core/pm_nlj.h"
#include "core/scheduler.h"
#include "core/shard_coordinator.h"
#include "core/square_clustering.h"
#include "io/buffer_pool.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace pmjoin {

std::string AlgorithmName(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kNlj:
      return "NLJ";
    case Algorithm::kPmNlj:
      return "pm-NLJ";
    case Algorithm::kRandomSc:
      return "rand-SC";
    case Algorithm::kSc:
      return "SC";
    case Algorithm::kCc:
      return "CC";
    case Algorithm::kEgo:
      return "EGO";
    case Algorithm::kBfrj:
      return "BFRJ";
    case Algorithm::kPbsm:
      return "PBSM";
    case Algorithm::kKnn:
      return "kNN";
  }
  return "?";
}

JoinDriver::JoinDriver(StorageBackend* disk, CpuCostModel cpu_model)
    : disk_(disk), cpu_model_(cpu_model) {}

obs::ShardSection ShardSectionOf(const JoinReport& report) {
  obs::ShardSection section;
  section.count = report.shards;
  section.cut_weight = report.shard_cut_weight;
  section.sharing_weight = report.shard_sharing_weight;
  section.replicated_pages = report.shard_replicated_pages;
  section.distinct_pages = report.shard_distinct_pages;
  section.balance_ratio = report.shard_balance_ratio;
  section.join_io = report.io;
  section.join_ops = report.ops;
  section.unattributed_io = report.shard_unattributed_io;
  section.unattributed_ops = report.shard_unattributed_ops;
  section.per_shard.reserve(report.shard_stats.size());
  for (size_t i = 0; i < report.shard_stats.size(); ++i) {
    const ShardStats& s = report.shard_stats[i];
    obs::ShardRow row;
    row.shard = static_cast<uint32_t>(i);
    row.clusters = s.clusters;
    row.entries = s.entries;
    row.pages = s.pages;
    row.io = s.io;
    row.ops = s.ops;
    row.modeled_io = s.modeled_io;
    section.per_shard.push_back(std::move(row));
  }
  return section;
}

const RStarTree* JoinDriver::SequencePageTree(
    uint32_t file_id, const std::vector<Mbr>& page_mbrs) {
  auto it = seq_trees_.find(file_id);
  if (it != seq_trees_.end()) return it->second.get();
  std::vector<RStarTree::Entry> leaves;
  leaves.reserve(page_mbrs.size());
  for (uint32_t p = 0; p < page_mbrs.size(); ++p)
    leaves.push_back(RStarTree::Entry{page_mbrs[p], p});
  auto tree = std::make_unique<RStarTree>(
      RStarTree::BulkLoadStr(page_mbrs.empty() ? 1 : page_mbrs[0].dims(),
                             std::move(leaves)));
  tree->AttachFile(disk_, "seq-page-tree");
  const RStarTree* raw = tree.get();
  seq_trees_.emplace(file_id, std::move(tree));
  return raw;
}

namespace {

/// Copies a completed shard plan into the report's shard section. The
/// attributed/modeled per-shard stats ride along in plan.shards.
void FillShardReport(ShardPlan&& plan, JoinReport* report) {
  report->shards = plan.num_shards;
  report->shard_cut_weight = plan.cut_weight;
  report->shard_sharing_weight = plan.sharing_weight;
  report->shard_replicated_pages = plan.replicated_pages;
  report->shard_distinct_pages = plan.distinct_pages;
  report->shard_balance_ratio = plan.balance_ratio;
  report->shard_stats = std::move(plan.shards);
}

/// Closes the shard ledger once report->io/ops hold the run totals:
/// the unattributed remainder is totals minus the summed per-shard
/// charges. Every charge is a delta of the same monotone counters the
/// totals are, so the subtraction is exact and non-negative.
void FinalizeShardLedger(JoinReport* report) {
  if (report->shards <= 1) return;
  IoStats attributed_io;
  OpCounters attributed_ops;
  for (const ShardStats& s : report->shard_stats) {
    attributed_io += s.io;
    attributed_ops += s.ops;
  }
  report->shard_unattributed_io = report->io.Delta(attributed_io);
  report->shard_unattributed_ops = report->ops.Delta(attributed_ops);
}

/// Runs one matrix-based algorithm (NLJ uses the matrix as a result-free
/// oracle only; see BlockNlj). `external_pool`, when non-null, replaces
/// the private per-run pool so callers (the join server) can carry page
/// residency across runs; it must have capacity >= options.buffer_pages.
/// For the clustered engines with options.shards > 1, execution goes
/// through the shard coordinator and `report`'s shard section is filled
/// (num_clusters is set either way).
Status RunMatrixAlgorithm(const JoinInput& input,
                          const PredictionMatrix& matrix,
                          const JoinOptions& options, const DiskModel& model,
                          StorageBackend* disk, PairSink* sink,
                          OpCounters* ops, JoinReport* report,
                          BufferPool* external_pool) {
  std::unique_ptr<BufferPool> owned;
  BufferPool* pool_ptr = external_pool;
  if (pool_ptr == nullptr) {
    owned = std::make_unique<BufferPool>(disk, options.buffer_pages);
    pool_ptr = owned.get();
  }
  BufferPool& pool = *pool_ptr;
  switch (options.algorithm) {
    case Algorithm::kNlj: {
      PMJOIN_SPAN_OPS("block_nlj", ops);
      return BlockNlj(input, &pool, sink, ops, &matrix);
    }
    case Algorithm::kPmNlj:
      return PmNlj(input, matrix, &pool, sink, ops);
    case Algorithm::kRandomSc:
    case Algorithm::kSc:
    case Algorithm::kCc: {
      std::vector<Cluster> clusters;
      if (options.algorithm == Algorithm::kCc) {
        Rng rng(options.seed);
        clusters =
            CostClustering(matrix, options.buffer_pages, model,
                           options.cc_histogram_resolution, &rng, ops);
      } else {
        clusters = SquareClustering(matrix, options.buffer_pages, ops);
        // Phase boundary (paranoid builds): SC output must satisfy the
        // Theorem 2 / Lemma 2 shape guarantees before execution.
        PMJOIN_DCHECK_OK(
            ValidateSquareClusters(matrix, clusters, options.buffer_pages));
      }
      // Phase boundary (paranoid builds): whichever algorithm produced the
      // clustering, every marked entry must be assigned exactly once and
      // every cluster must fit the buffer (Lemma 2).
      PMJOIN_DCHECK_OK(
          ValidateClustering(matrix, clusters, options.buffer_pages));
      report->num_clusters = clusters.size();
      PMJOIN_METRIC_GAUGE_SET("executor.clusters",
                              static_cast<int64_t>(clusters.size()));

      std::vector<uint32_t> order;
      if (options.algorithm == Algorithm::kRandomSc) {
        order.resize(clusters.size());
        std::iota(order.begin(), order.end(), 0u);
        Rng rng(options.seed);
        rng.Shuffle(order);
      } else if (options.schedule_clusters) {
        order = ScheduleClusters(clusters, input, ops);
      } else {
        order.resize(clusters.size());
        std::iota(order.begin(), order.end(), 0u);
      }
      ExecutorOptions exec_options;
      exec_options.num_threads = options.num_threads;
      exec_options.io_threads = options.io_threads;
      if (options.shards <= 1)
        return ExecuteClusteredJoin(input, clusters, order, &pool, sink, ops,
                                    exec_options);
      // Shard-aware path: one worker pool serves both the executor's
      // entry joins and the coordinator's isolated shard replays.
      std::optional<ThreadPool> shard_workers;
      if (options.num_threads > 1) {
        shard_workers.emplace(options.num_threads);
        exec_options.thread_pool = &*shard_workers;
      }
      ShardPlan plan;
      PMJOIN_RETURN_IF_ERROR(ExecuteShardedJoin(
          input, clusters, order, &pool, sink, ops, exec_options,
          options.shards, options.buffer_pages,
          shard_workers ? &*shard_workers : nullptr, &plan));
      FillShardReport(std::move(plan), report);
      return Status::OK();
    }
    case Algorithm::kEgo:
    case Algorithm::kBfrj:
    case Algorithm::kPbsm:
      return Status::Internal("not a matrix algorithm");
    case Algorithm::kKnn:
      return Status::Internal("kNN is served by RunKnnJoin, not an ε-join");
  }
  return Status::Internal("unknown algorithm");
}

/// What the one ε-join path needs from a data type. Everything else —
/// matrix build or memo replay, clustering, scheduling, execution, BFRJ
/// and the report — is type-independent.
struct EpsJoinSource {
  /// Page files, page counts, self-join flag and the type's joiner.
  JoinInput input;
  /// Per-page MBRs the flat matrix build sweeps.
  const std::vector<Mbr>* r_mbrs = nullptr;
  const std::vector<Mbr>* s_mbrs = nullptr;
  /// Each side's page tree, built on first use (hierarchical matrix build
  /// and BFRJ only).
  std::function<const RStarTree*()> r_tree;
  std::function<const RStarTree*()> s_tree;
  /// Page-level predicate: pages may join iff their MBRs lie within
  /// `threshold` under `norm`.
  double threshold = 0.0;
  Norm norm = Norm::kL2;
  /// The type's EGO (or, for vectors, PBSM) join; options.algorithm says
  /// which.
  std::function<Status(BufferPool*, PairSink*, OpCounters*)> grid_join;

  /// The (R, S) page trees; a self join's S tree is its R tree.
  std::pair<const RStarTree*, const RStarTree*> Trees() const {
    const RStarTree* r = r_tree();
    return {r, input.self_join ? r : s_tree()};
  }
};

/// Fills the run totals once `ops` is final: the I/O since `io_before`,
/// the modeled seconds, and the shard ledger's unattributed remainder.
JoinReport FinishReport(JoinReport report, const StorageBackend& disk,
                        const IoStats& io_before, const OpCounters& ops,
                        const CpuCostModel& cpu_model) {
  report.io = disk.stats().Delta(io_before);
  report.ops = ops;
  report.io_seconds = report.io.ModeledSeconds(disk.model());
  report.cpu_join_seconds = cpu_model.JoinSeconds(ops);
  report.preprocess_seconds = cpu_model.PreprocessSeconds(ops);
  report.result_pairs = ops.result_pairs;
  FinalizeShardLedger(&report);
  return report;
}

/// The ε-join of every data type: EGO/PBSM through the source's own call,
/// BFRJ over the page trees, or the paper's pipeline — prediction matrix
/// (built, or replayed from `resources`), then NLJ / pm-NLJ / SC / CC.
Result<JoinReport> RunEpsJoin(const EpsJoinSource& source,
                              const JoinOptions& options,
                              const JoinResources& resources,
                              StorageBackend* disk,
                              const CpuCostModel& cpu_model, PairSink* sink) {
  if (options.algorithm == Algorithm::kKnn)
    return Status::InvalidArgument(
        "ε-join: kNN is a separate query type (RunKnnJoin)");
  const bool grid = options.algorithm == Algorithm::kEgo ||
                    options.algorithm == Algorithm::kPbsm;
  if ((grid || options.algorithm == Algorithm::kBfrj) &&
      (resources.matrix != nullptr || resources.shared_pool != nullptr))
    return Status::InvalidArgument(
        "ε-join: cached resources supplied for a non-matrix algorithm");
  if (resources.shared_pool != nullptr &&
      resources.shared_pool->capacity() < options.buffer_pages)
    return Status::InvalidArgument(
        "ε-join: shared pool smaller than options.buffer_pages");
  const JoinInput& input = source.input;

  const IoStats io_before = disk->stats();
  OpCounters ops;
  JoinReport report;
  report.algorithm = options.algorithm;
  PMJOIN_SPAN_OPS("join", &ops);

  Status st;
  if (grid) {
    PMJOIN_SPAN_OPS(options.algorithm == Algorithm::kEgo ? "ego" : "pbsm",
                    &ops);
    BufferPool pool(disk, options.buffer_pages);
    st = source.grid_join(&pool, sink, &ops);
  } else if (options.algorithm == Algorithm::kBfrj) {
    PMJOIN_SPAN_OPS("bfrj", &ops);
    const auto [r_tree, s_tree] = source.Trees();
    BufferPool pool(disk, options.buffer_pages);
    st = BfrjJoin(*r_tree, *s_tree, input, source.threshold, source.norm,
                  options.page_size_bytes, disk, &pool, sink, &ops);
  } else {
    // Oracle for NLJ is built uncharged; pm algorithms charge the build.
    OpCounters* build_ops =
        options.algorithm == Algorithm::kNlj ? nullptr : &ops;
    std::optional<PredictionMatrix> built;
    const PredictionMatrix* matrix = resources.matrix;
    if (matrix == nullptr) {
      if (options.hierarchical_matrix) {
        const auto [r_tree, s_tree] = source.Trees();
        built = BuildPredictionMatrixHierarchical(
            *r_tree, *s_tree, input.r_pages, input.s_pages, source.threshold,
            source.norm, options.filter_iterations, build_ops);
      } else {
        built = BuildPredictionMatrixFlat(*source.r_mbrs, *source.s_mbrs,
                                          source.threshold, source.norm,
                                          build_ops);
      }
      matrix = &*built;
    } else if (build_ops != nullptr &&
               resources.matrix_build_ops != nullptr) {
      // Replay the memoized build's counters so a cache hit reports the
      // identical modeled CPU cost as a cold run (kNlj replays nothing:
      // its oracle build is uncharged either way).
      *build_ops += *resources.matrix_build_ops;
    }
    report.marked_entries = matrix->MarkedCount();
    report.matrix_rows = matrix->rows();
    report.matrix_cols = matrix->cols();
    report.matrix_selectivity = matrix->Selectivity();
    // Phase boundary (paranoid builds): whether freshly built or memoized,
    // the matrix must be finalized and structurally sound before any
    // operator consumes it.
    PMJOIN_DCHECK_OK(matrix->ValidateInvariants());
    st = RunMatrixAlgorithm(input, *matrix, options, disk->model(), disk,
                            sink, &ops, &report, resources.shared_pool);
  }
  if (!st.ok()) return st;
  return FinishReport(std::move(report), *disk, io_before, ops, cpu_model);
}

/// JoinInput for an R x S join with `joiner` (self join iff r is s).
template <typename Data>
JoinInput InputOf(const Data& r, const Data& s, uint32_t r_pages,
                  uint32_t s_pages, PagePairJoiner* joiner) {
  JoinInput input;
  input.r_file = r.file_id();
  input.s_file = s.file_id();
  input.r_pages = r_pages;
  input.s_pages = s_pages;
  input.self_join = &r == &s;
  input.joiner = joiner;
  return input;
}

/// Source for a subsequence join, whose pages are summarized by MBRs and
/// whose page trees come from the driver's cache through `page_tree`.
template <typename Store, typename PageTree>
EpsJoinSource SequenceSource(const Store& r, const Store& s,
                             PagePairJoiner* joiner, double threshold,
                             Norm norm, PageTree page_tree) {
  EpsJoinSource source;
  source.input = InputOf(r, s, r.layout().NumPages(), s.layout().NumPages(),
                         joiner);
  source.r_mbrs = &r.page_mbrs();
  source.s_mbrs = &s.page_mbrs();
  source.r_tree = [&r, page_tree] {
    return page_tree(r.file_id(), r.page_mbrs());
  };
  source.s_tree = [&s, page_tree] {
    return page_tree(s.file_id(), s.page_mbrs());
  };
  source.threshold = threshold;
  source.norm = norm;
  return source;
}

}  // namespace

Result<JoinReport> JoinDriver::RunVector(const VectorDataset& r,
                                         const VectorDataset& s, double eps,
                                         const JoinOptions& options,
                                         PairSink* sink) {
  return RunVector(r, s, eps, options, sink, JoinResources());
}

Result<JoinReport> JoinDriver::RunVector(const VectorDataset& r,
                                         const VectorDataset& s, double eps,
                                         const JoinOptions& options,
                                         PairSink* sink,
                                         const JoinResources& resources) {
  if (r.dims() != s.dims())
    return Status::InvalidArgument("RunVector: dimension mismatch");
  if (options.algorithm == Algorithm::kBfrj &&
      (!r.tree().file_id().has_value() || !s.tree().file_id().has_value()))
    return Status::InvalidArgument(
        "BFRJ: dataset trees lack node files (rebuild datasets)");
  const bool self = &r == &s;
  VectorPairJoiner joiner(&r, &s, eps, options.norm, self);
  EpsJoinSource source;
  source.input = InputOf(r, s, r.num_pages(), s.num_pages(), &joiner);
  source.r_mbrs = &r.page_mbrs();
  source.s_mbrs = &s.page_mbrs();
  source.r_tree = [&r] { return &r.tree(); };
  source.s_tree = [&s] { return &s.tree(); };
  source.threshold = eps;
  source.norm = options.norm;
  source.grid_join = [&](BufferPool* pool, PairSink* out, OpCounters* ops) {
    return options.algorithm == Algorithm::kEgo
               ? EgoJoinVectors(r, s, self, eps, options.norm, disk_, pool,
                                out, ops)
               : PbsmJoinVectors(r, s, self, eps, options.norm, disk_, pool,
                                 out, ops);
  };
  return RunEpsJoin(source, options, resources, disk_, cpu_model_, sink);
}

Result<JoinReport> JoinDriver::RunKnnJoin(const VectorDataset& r,
                                          const VectorDataset& s, uint32_t k,
                                          const JoinOptions& options,
                                          PairSink* sink) {
  return RunKnnJoin(r, s, k, options, sink, JoinResources());
}

Result<JoinReport> JoinDriver::RunKnnJoin(const VectorDataset& r,
                                          const VectorDataset& s, uint32_t k,
                                          const JoinOptions& options,
                                          PairSink* sink,
                                          const JoinResources& resources) {
  if (r.dims() != s.dims())
    return Status::InvalidArgument("RunKnnJoin: dimension mismatch");
  if (k == 0) return Status::InvalidArgument("RunKnnJoin: k must be >= 1");
  if (resources.matrix != nullptr)
    return Status::InvalidArgument(
        "RunKnnJoin: an ε prediction matrix is not a kNN artifact");
  if (resources.shared_pool != nullptr &&
      resources.shared_pool->capacity() < options.buffer_pages)
    return Status::InvalidArgument(
        "RunKnnJoin: shared pool smaller than options.buffer_pages");

  const IoStats io_before = disk_->stats();
  OpCounters ops;
  JoinReport report;
  report.algorithm = Algorithm::kKnn;
  PMJOIN_SPAN_OPS("join", &ops);

  std::optional<KnnCandidateMatrix> built;
  const KnnCandidateMatrix* matrix = resources.knn_matrix;
  if (matrix == nullptr) {
    PMJOIN_SPAN_OPS("knn_matrix", &ops);
    built = KnnCandidateMatrix::Build(r.page_mbrs(), s.page_mbrs(),
                                      options.norm, &ops);
    matrix = &*built;
  } else if (resources.knn_matrix_build_ops != nullptr) {
    // Same warm == cold convention as the ε matrices: replay the memoized
    // build's counters so a cache hit reports identical modeled CPU cost.
    ops += *resources.knn_matrix_build_ops;
  }
  report.matrix_rows = matrix->rows();
  report.matrix_cols = matrix->cols();
  // Phase boundary (paranoid builds): whether freshly built or memoized,
  // every candidate row must be complete and sorted before expansion.
  PMJOIN_DCHECK_OK(matrix->ValidateInvariants());
  PMJOIN_METRIC_GAUGE_SET("knn.k", static_cast<int64_t>(k));

  KnnJoinOptions knn_options;
  knn_options.k = k;
  knn_options.norm = options.norm;
  knn_options.self_join = &r == &s;
  knn_options.num_threads = options.num_threads;

  // Shard-aware path: each R page's expansion is one ownership unit (its
  // page plus the candidate prefix it is most likely to pin), partitioned
  // with the same planner as the clustered engines. The expansion itself
  // stays single-node — the adaptive bounds make the page schedule
  // data-dependent, so there is no precomputable per-shard replay and
  // modeled_io stays zero; the ledger covers the attributed charges.
  ShardPlan plan;
  std::vector<ClusterCharge> page_charges;
  if (options.shards > 1) {
    const std::vector<Cluster> units =
        KnnOwnershipClusters(*matrix, options.buffer_pages);
    {
      PMJOIN_SPAN("shard_plan");
      plan = PlanShards(units,
                        InputOf(r, s, r.num_pages(), s.num_pages(), nullptr),
                        options.shards);
    }
    page_charges.resize(r.num_pages());
    knn_options.page_charges = &page_charges;
  }

  std::unique_ptr<BufferPool> owned;
  BufferPool* pool = resources.shared_pool;
  if (pool == nullptr) {
    owned = std::make_unique<BufferPool>(disk_, options.buffer_pages);
    pool = owned.get();
  }
  std::unique_ptr<ThreadPool> workers;
  if (options.num_threads > 1)
    workers = std::make_unique<ThreadPool>(options.num_threads);

  KnnResultSink results(r.num_records(), k);
  Status st = KnnJoinVectors(r, s, *matrix, knn_options, pool, &results,
                             &ops, workers.get());
  if (!st.ok()) return st;
  results.Emit(sink, &ops);

  if (options.shards > 1) {
    AttributeCharges(page_charges, &plan);
    FillShardReport(std::move(plan), &report);
  }
  return FinishReport(std::move(report), *disk_, io_before, ops, cpu_model_);
}

Result<JoinReport> JoinDriver::RunTimeSeries(const TimeSeriesStore& r,
                                             const TimeSeriesStore& s,
                                             double eps,
                                             const JoinOptions& options,
                                             PairSink* sink) {
  if (r.layout().window_len != s.layout().window_len)
    return Status::InvalidArgument("RunTimeSeries: window length mismatch");
  if (options.algorithm == Algorithm::kPbsm)
    return Status::Unimplemented(
        "PBSM requires in-place partitioning; sequence data cannot be "
        "reordered (paper 3)");
  const bool self = &r == &s;
  TimeSeriesPairJoiner joiner(&r, &s, eps, self);
  EpsJoinSource source = SequenceSource(
      r, s, &joiner, joiner.MatrixThreshold(), Norm::kL2,
      [this](uint32_t file, const std::vector<Mbr>& mbrs) {
        return SequencePageTree(file, mbrs);
      });
  source.grid_join = [&](BufferPool* pool, PairSink* out, OpCounters* ops) {
    return EgoJoinTimeSeries(r, s, self, eps, disk_, pool, out, ops);
  };
  return RunEpsJoin(source, options, JoinResources(), disk_, cpu_model_,
                    sink);
}

Result<JoinReport> JoinDriver::RunString(const StringSequenceStore& r,
                                         const StringSequenceStore& s,
                                         uint32_t max_edits,
                                         const JoinOptions& options,
                                         PairSink* sink) {
  if (r.layout().window_len != s.layout().window_len)
    return Status::InvalidArgument("RunString: window length mismatch");
  if (options.algorithm == Algorithm::kPbsm)
    return Status::Unimplemented(
        "PBSM requires in-place partitioning; sequence data cannot be "
        "reordered (paper 3)");
  const bool self = &r == &s;
  StringPairJoiner joiner(&r, &s, max_edits, self);
  EpsJoinSource source = SequenceSource(
      r, s, &joiner, joiner.MatrixThreshold(), Norm::kL1,
      [this](uint32_t file, const std::vector<Mbr>& mbrs) {
        return SequencePageTree(file, mbrs);
      });
  source.grid_join = [&](BufferPool* pool, PairSink* out, OpCounters* ops) {
    return EgoJoinStrings(r, s, self, max_edits, disk_, pool, out, ops);
  };
  return RunEpsJoin(source, options, JoinResources(), disk_, cpu_model_,
                    sink);
}

}  // namespace pmjoin
