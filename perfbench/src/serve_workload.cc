// serve_mixed: an in-process JoinServer on the simulated backend, driven by
// one closed-loop client (the next query is submitted once the previous
// result has arrived). A round is one fresh server serving a fixed stream of
// queries: every distinct query of the menu below, each kRepeats times, in
// a seeded order. Within a round the artifact cache turns repeats and other
// engines at the same ε into matrix hits, and every kNN query after the
// first on a pair into a kNN-matrix hit.
#include <algorithm>
#include <map>
#include <memory>
#include <string>

#include "bench.h"
#include "checks.h"
#include "core/knn_join.h"
#include "core/plane_sweep.h"
#include "data/vector_dataset.h"
#include "io/buffer_pool.h"
#include "io/simulated_disk.h"
#include "layers.h"
#include "obs/span.h"
#include "server/job.h"
#include "server/server.h"

namespace perfbench {
namespace {

using pmjoin::Algorithm;
using pmjoin::OpCounters;
using pmjoin::Status;
using pmjoin::server::JobSpec;
using pmjoin::server::JoinServer;

constexpr size_t kRepeats = 2;
constexpr uint64_t kSampleSalt = 0x5E7E5A3F1E;

/// One distinct query of the stream.
struct MenuItem {
  size_t pair = 0;  ///< Even: a road R x S pair; odd: a clusters self-pair.
  Algorithm engine = Algorithm::kSc;
  double eps = 0.0;  ///< ε-join when k == 0.
  uint32_t k = 0;    ///< kNN join when > 0.
};

struct ServeParams {
  size_t pairs;  ///< Dataset pairs, alternately road R x S and clusters self.
  size_t road_n;
  size_t clusters_n;
  uint32_t clusters_dims;
  double road_eps[3];
  double clusters_eps[3];
  uint32_t ks[3];
  size_t sample;
};

ServeParams ServeFor(Scale scale) {
  if (scale == Scale::kSmoke)
    return {2, 800, 600, 16, {0.004, 0.008, 0.012}, {0.10, 0.14, 0.18},
            {2, 4, 8}, 20};
  return {8, 2000, 1500, 16, {0.004, 0.008, 0.012}, {0.10, 0.14, 0.18},
          {2, 4, 8}, 30};
}

/// 1 KiB pages and a shared pool smaller than the datasets, so queries read
/// pages and the pool's residency between queries matters.
JoinServer::Options ServerOptions() {
  JoinServer::Options options;
  options.page_size_bytes = 1024;
  options.pool_pages = 64;
  options.default_buffer_pages = 32;
  return options;
}

/// The server's options for a kNN job, for a direct JoinDriver run.
pmjoin::JoinOptions KnnOptions() {
  pmjoin::JoinOptions options;
  options.buffer_pages = ServerOptions().default_buffer_pages;
  options.page_size_bytes = ServerOptions().page_size_bytes;
  return options;
}

/// Latency and server row of one query of the last round.
struct QueryRecord {
  double latency_s = 0.0;
  double exec_s = 0.0;
  bool knn = false;
  bool matrix_hit = false;
  pmjoin::IoStats io;
  pmjoin::IoStats join_io;
};

class ServeMixed : public Workload {
 public:
  ServeMixed(uint64_t seed, Scale scale) : seed_(seed), p_(ServeFor(scale)) {}

  Status Setup(MetricSet* layers) override {
    // Dataset specs the server materializes itself; the benchmark generates
    // the same records for its checks and for the layer replay.
    for (size_t pair = 0; pair < p_.pairs; ++pair) {
      const uint64_t base = 2 * (seed_ * p_.pairs + pair);
      if (pair % 2 == 0) {
        const std::string road = "road/" + std::to_string(p_.road_n) + "/";
        pairs_.emplace_back(road + std::to_string(base + 1),
                            road + std::to_string(base + 2));
      } else {
        const std::string clusters =
            "clusters/" + std::to_string(p_.clusters_n) + "/" +
            std::to_string(base + 1) + "/" + std::to_string(p_.clusters_dims);
        pairs_.emplace_back(clusters, clusters);
      }
    }

    double t = Now();
    for (size_t i = 0; i < pairs_.size(); ++i) {
      for (const std::string* text : {&pairs_[i].first, &pairs_[i].second}) {
        if (data_.count(*text)) continue;
        PMJOIN_ASSIGN_OR_RETURN(pmjoin::server::DatasetSpec spec,
                                pmjoin::server::DatasetSpec::Parse(*text));
        data_[*text] = spec.Generate();
      }
    }
    layers->Set("data.generate_s", Now() - t, "s");
    t = Now();
    for (const auto& [text, values] : data_) {
      PMJOIN_ASSIGN_OR_RETURN(
          pmjoin::VectorDataset ds,
          pmjoin::VectorDataset::Build(&replay_disk_, text, values,
                                       {ServerOptions().page_size_bytes}));
      datasets_.emplace(text, std::move(ds));
    }
    layers->Set("data.build_s", Now() - t, "s");

    for (size_t pair = 0; pair < pairs_.size(); ++pair) {
      const double* eps = pair % 2 == 0 ? p_.road_eps : p_.clusters_eps;
      for (size_t e = 0; e < 3; ++e) {
        for (Algorithm engine :
             {Algorithm::kSc, Algorithm::kCc, Algorithm::kPmNlj})
          menu_.push_back({pair, engine, eps[e], 0});
      }
      for (uint32_t k : p_.ks) menu_.push_back({pair, Algorithm::kKnn, 0, k});
    }
    for (size_t r = 0; r < kRepeats; ++r)
      for (size_t m = 0; m < menu_.size(); ++m) stream_.push_back(m);
    SplitMix rng(seed_ ^ 0x57AEA11);
    for (size_t i = stream_.size(); i > 1; --i)
      std::swap(stream_[i - 1], stream_[rng.Below(i)]);
    first_.assign(menu_.size(), SIZE_MAX);
    for (size_t i = 0; i < stream_.size(); ++i)
      if (first_[stream_[i]] == SIZE_MAX) first_[stream_[i]] = i;
    return Status::OK();
  }

  size_t RoundSize() const override { return stream_.size(); }

  Status BeginRound() override {
    disk_ = std::make_unique<pmjoin::SimulatedDisk>();
    server_ = std::make_unique<JoinServer>(disk_.get(), ServerOptions());
    records_.assign(stream_.size(), QueryRecord());
    outcomes_.assign(stream_.size(), OpOutcome());
    return server_->Start();
  }

  Status RunOp(size_t i, OpOutcome* out, PairList* pairs,
               double* latency_s) override {
    const MenuItem& item = menu_[stream_[i]];
    JobSpec job;
    job.id = "q" + std::to_string(i);
    job.r = pairs_[item.pair].first;
    job.s = pairs_[item.pair].second;
    job.eps = item.eps;
    job.k = item.k;
    if (item.k == 0) job.engine = item.engine;
    const double t0 = Now();
    pmjoin::Result<uint64_t> index = server_->SubmitBlocking(job);
    if (!index.ok()) return index.status();
    const JoinServer::QueryResult& result = server_->Wait(*index);
    *latency_s = Now() - t0;
    if (result.row.status != "ok")
      return Status::Internal("query " + job.id + " " + result.row.status +
                              ": " + result.row.error);
    // The server sorts and deduplicates the pairs it returns, so duplicate
    // emissions show only in the engine's own count.
    if (result.row.result_pairs != result.pairs.size())
      return Status::Internal(
          "query " + job.id + ": the engine emitted " +
          std::to_string(result.row.result_pairs) + " pairs, " +
          std::to_string(result.pairs.size()) + " of them distinct");
    Digest digest;
    for (const Pair& p : result.pairs) digest.Add(p.first, p.second);
    out->digest = digest;
    out->io = result.row.io;
    out->ops = result.row.ops;
    out->modeled_s = result.report.TotalSeconds();
    if (pairs != nullptr) *pairs = result.pairs;
    QueryRecord& rec = records_[i];
    rec.latency_s = *latency_s;
    rec.exec_s = result.row.exec_ns * 1e-9;
    rec.knn = item.k > 0;
    rec.matrix_hit = result.row.matrix_cache_hit;
    rec.io = result.row.io;
    rec.join_io = result.row.join_io;
    outcomes_[i] = *out;
    return Status::OK();
  }

  Status EndRound() override {
    server_->Shutdown();
    cache_stats_ = server_->cache_stats();
    server_.reset();
    disk_.reset();
    // A repeated query returns the pairs and OpCounters of its first, cold
    // run (its I/O may differ: the shared pool keeps pages resident).
    for (size_t i = 0; i < stream_.size(); ++i) {
      const OpOutcome& first = outcomes_[first_[stream_[i]]];
      if (!(outcomes_[i].digest == first.digest) ||
          !(outcomes_[i].ops == first.ops))
        return Status::Internal("serve_mixed: repeat q" + std::to_string(i) +
                                " differs from its first run q" +
                                std::to_string(first_[stream_[i]]));
    }
    return Status::OK();
  }

  Status AppendVerifyLists(std::vector<PairList>* lists) override {
    // Ordered kNN rows of a direct JoinDriver run, one list per kNN menu
    // item (the server returns rows sorted by id, not by distance).
    pmjoin::JoinDriver driver(&replay_disk_);
    for (const MenuItem& item : menu_) {
      if (item.k == 0) continue;
      RecordingSink sink;
      const auto& [r, s] = Datasets(item.pair);
      pmjoin::Result<pmjoin::JoinReport> report =
          driver.RunKnnJoin(r, s, item.k, KnnOptions(), &sink);
      if (!report.ok()) return report.status();
      lists->push_back(sink.TakePairs());
    }
    return Status::OK();
  }

  Status Verify(const std::vector<PairList>& lists) override {
    if (lists.size() != stream_.size() + KnnItems())
      return Status::Internal("serve_mixed: wrong number of result lists");
    // Repeats return exactly the first run's pairs.
    for (size_t i = 0; i < stream_.size(); ++i) {
      if (lists[i] != lists[first_[stream_[i]]])
        return Status::Internal("serve_mixed: repeat q" + std::to_string(i) +
                                " returned other pairs than its first run");
    }
    size_t ordered = stream_.size();
    std::map<std::pair<size_t, uint32_t>, const PairList*> knn_ordered;
    for (size_t m = 0; m < menu_.size(); ++m) {
      const MenuItem& item = menu_[m];
      const PairList& got = lists[first_[m]];
      if (item.k == 0) {
        PMJOIN_RETURN_IF_ERROR(CheckEpsJoin(EpsCheck(item), got));
        continue;
      }
      const KnnCheck check = KnnCheckFor(item);
      PMJOIN_RETURN_IF_ERROR(CheckKnnRows(check, got));
      const PairList& rows = lists[ordered++];
      PMJOIN_RETURN_IF_ERROR(CheckKnnOrder(check, rows));
      if (SortedPairs(rows) != got)
        return Status::Internal(check.label +
                                ": direct join disagrees with the server");
      knn_ordered[{item.pair, item.k}] = &rows;
    }
    // Engines agree at one ε, and a larger ε only adds pairs.
    for (size_t a = 0; a < menu_.size(); ++a) {
      for (size_t b = 0; b < menu_.size(); ++b) {
        const MenuItem& x = menu_[a];
        const MenuItem& y = menu_[b];
        if (x.k != 0 || y.k != 0 || x.pair != y.pair) continue;
        const PairList& px = lists[first_[a]];
        const PairList& py = lists[first_[b]];
        if (x.eps == y.eps && px != py)
          return Status::Internal("serve_mixed: engines disagree at eps " +
                                  std::to_string(x.eps));
        if (x.eps < y.eps &&
            !std::includes(py.begin(), py.end(), px.begin(), px.end()))
          return Status::Internal(
              "serve_mixed: pairs at eps " + std::to_string(x.eps) +
              " are not a subset of the pairs at eps " +
              std::to_string(y.eps));
      }
    }
    // The k nearest are a prefix of the k' nearest for k < k'.
    for (const auto& [key, small] : knn_ordered) {
      for (const auto& [key2, large] : knn_ordered) {
        if (key.first != key2.first || key.second >= key2.second) continue;
        const size_t k = key.second, k2 = key2.second;
        const size_t rows = small->size() / k;
        for (size_t r = 0; r < rows; ++r) {
          if (!std::equal(small->begin() + r * k, small->begin() + r * k + k,
                          large->begin() + r * k2))
            return Status::Internal(
                "serve_mixed: k=" + std::to_string(k) +
                " neighbours are not a prefix of the k=" +
                std::to_string(k2) + " neighbours in row " +
                std::to_string(r));
        }
      }
    }
    return Status::OK();
  }

  std::vector<Planted> PlantFaults(
      const std::vector<PairList>& lists) override {
    std::vector<Planted> out;
    size_t ordered = stream_.size();
    bool wrong = false, dropped = false, knn_dropped = false,
         misordered = false;
    for (size_t m = 0; m < menu_.size(); ++m) {
      const MenuItem& item = menu_[m];
      // Faults go into every occurrence of the query, so only the
      // independent checks (not the repeat comparison) can catch them.
      const auto plant_all = [&](const std::string& what, auto&& mutate) {
        std::vector<PairList> copy = lists;
        PairList changed = copy[first_[m]];
        if (!mutate(&changed)) return false;
        for (size_t i = 0; i < stream_.size(); ++i)
          if (stream_[i] == m) copy[i] = changed;
        out.push_back({what, std::move(copy)});
        return true;
      };
      if (item.k == 0) {
        const EpsJoinCheck check = EpsCheck(item);
        if (!wrong)
          wrong = plant_all("wrong pair", [&](PairList* p) {
            return PlantWrongPair(check, p);
          });
        if (!dropped)
          dropped = plant_all("dropped pair", [&](PairList* p) {
            return PlantDroppedPair(check, p);
          });
      } else {
        if (!knn_dropped)
          knn_dropped = plant_all("dropped kNN neighbour", [&](PairList* p) {
            if (p->empty()) return false;
            p->erase(p->begin());
            return true;
          });
        if (!misordered) {
          const KnnCheck check = KnnCheckFor(item);
          std::vector<PairList> copy = lists;
          PairList& rows = copy[ordered];
          for (size_t i = 1; i < rows.size() && !misordered; ++i) {
            if (rows[i].first != rows[i - 1].first) continue;
            const double da = check.distance(rows[i - 1].first,
                                             rows[i - 1].second);
            const double db = check.distance(rows[i].first, rows[i].second);
            if (db <= da * (1 + 10 * kBorderBand) + 1e-9) continue;
            std::swap(rows[i - 1], rows[i]);
            out.push_back({"mis-ordered kNN row", std::move(copy)});
            misordered = true;
          }
        }
        ++ordered;
      }
    }
    return out;
  }

  Status LayerRound(bool traced, std::vector<OpOutcome>* outcomes,
                    MetricSet* layers, double* round_s) override {
    // The served round. The server opens an obs session for every query,
    // so it has no untraced form; it must reproduce the API round.
    PMJOIN_RETURN_IF_ERROR(BeginRound());
    for (size_t i = 0; i < stream_.size(); ++i) {
      OpOutcome out;
      double latency = 0.0;
      PMJOIN_RETURN_IF_ERROR(RunOp(i, &out, nullptr, &latency));
      outcomes->push_back(out);
    }
    PMJOIN_RETURN_IF_ERROR(EndRound());
    // The layer replay runs traced or untraced, and the two must return
    // the same pairs, IoStats and OpCounters; *round_s is its time.
    LayerLedger ledger;
    std::vector<OpOutcome> replayed;
    PMJOIN_RETURN_IF_ERROR(Replay(traced, &ledger, &replayed, round_s));
    if (replay_reference_.empty()) {
      replay_reference_ = replayed;
    } else if (replayed != replay_reference_) {
      return Status::Internal(std::string("serve_mixed: the ") +
                              (traced ? "traced" : "untraced") +
                              " layer replay differs from the first one");
    }
    if (traced) ExportServerLayers(ledger, layers);
    return Status::OK();
  }

 private:
  size_t KnnItems() const {
    return std::count_if(menu_.begin(), menu_.end(),
                         [](const MenuItem& m) { return m.k > 0; });
  }

  std::pair<const pmjoin::VectorDataset&, const pmjoin::VectorDataset&>
  Datasets(size_t pair) const {
    return {datasets_.at(pairs_[pair].first),
            datasets_.at(pairs_[pair].second)};
  }

  const pmjoin::VectorData& Data(const std::string& text) const {
    return data_.at(text);
  }

  EpsJoinCheck EpsCheck(const MenuItem& item) const {
    const pmjoin::VectorData& r = Data(pairs_[item.pair].first);
    const pmjoin::VectorData& s = Data(pairs_[item.pair].second);
    return VectorEpsCheck("serve_mixed " + pairs_[item.pair].first + " eps " +
                              std::to_string(item.eps),
                          r.values.data(), r.count(), s.values.data(),
                          s.count(), r.dims, item.eps,
                          /*self_join=*/item.pair % 2 == 1, p_.sample,
                          seed_ ^ kSampleSalt);
  }

  KnnCheck KnnCheckFor(const MenuItem& item) const {
    const pmjoin::VectorData& r = Data(pairs_[item.pair].first);
    const pmjoin::VectorData& s = Data(pairs_[item.pair].second);
    KnnCheck check;
    check.label = "serve_mixed " + pairs_[item.pair].first + " k " +
                  std::to_string(item.k);
    check.r_count = r.count();
    check.s_count = s.count();
    check.k = item.k;
    check.self_join = item.pair % 2 == 1;
    const float* rv = r.values.data();
    const float* sv = s.values.data();
    const size_t dims = r.dims;
    check.distance = [=](uint64_t i, uint64_t j) {
      return L2(rv + i * dims, sv + j * dims, dims);
    };
    check.sample = SampleIds(r.count(), p_.sample, seed_ ^ kSampleSalt);
    return check;
  }

  /// Every distinct query of the stream once, layer by layer, on the
  /// replay disk (under an obs session when `traced`): ε matrices built
  /// once per (pair, ε) as the artifact cache does, kNN candidate matrices
  /// once per pair. Each replayed query must reproduce the server's pairs
  /// and OpCounters; `replayed` receives each query's outcome, and
  /// `replay_s` the time up to the end of the session.
  Status Replay(bool traced, LayerLedger* ledger,
                std::vector<OpOutcome>* replayed, double* replay_s) {
    const double t0 = Now();
    if (traced) pmjoin::obs::Tracer::Get().StartSession(&replay_disk_);
    const Status st = ReplayQueries(ledger, replayed);
    if (traced) pmjoin::obs::Tracer::Get().StopSession();
    *replay_s = Now() - t0;
    if (traced) ledger->FoldSession(pmjoin::obs::Tracer::Get().TakeEvents());
    return st;
  }

  Status ReplayQueries(LayerLedger* ledger,
                       std::vector<OpOutcome>* replayed) {
    std::map<std::pair<size_t, double>,
             std::pair<pmjoin::PredictionMatrix, OpCounters>>
        matrices;
    std::map<size_t, std::pair<pmjoin::KnnCandidateMatrix, OpCounters>>
        knn_matrices;
    OpCounters total;
    for (size_t m = 0; m < menu_.size(); ++m) {
      const MenuItem& item = menu_[m];
      const auto& [r, s] = Datasets(item.pair);
      const bool self = item.pair % 2 == 1;
      const pmjoin::IoStats io_before = replay_disk_.stats();
      OpCounters ops;
      DigestSink sink;
      if (item.k == 0) {
        auto key = std::make_pair(item.pair, item.eps);
        auto it = matrices.find(key);
        if (it == matrices.end()) {
          OpCounters build_ops;
          pmjoin::PredictionMatrix matrix =
              Timed(&ledger->matrix_build_s, [&] {
                return pmjoin::BuildPredictionMatrixHierarchical(
                    r.tree(), s.tree(), r.num_pages(), s.num_pages(),
                    item.eps, pmjoin::Norm::kL2,
                    pmjoin::JoinOptions().filter_iterations, &build_ops);
              });
          ledger->matrix_mbr_tests += build_ops.mbr_tests;
          it = matrices
                   .emplace(key, std::make_pair(std::move(matrix), build_ops))
                   .first;
        }
        pmjoin::VectorPairJoiner joiner(&r, &s, item.eps, pmjoin::Norm::kL2,
                                        self);
        pmjoin::JoinInput input;
        input.r_file = r.file_id();
        input.s_file = s.file_id();
        input.r_pages = r.num_pages();
        input.s_pages = s.num_pages();
        input.self_join = self;
        input.joiner = &joiner;
        PipelineSpec spec;
        spec.input = &input;
        spec.matrix = &it->second.first;
        spec.matrix_ops = &it->second.second;
        spec.algorithm = item.engine;
        spec.buffer_pages = ServerOptions().default_buffer_pages;
        spec.seed = ServerOptions().seed;
        spec.disk = &replay_disk_;
        PMJOIN_RETURN_IF_ERROR(RunPipeline(spec, &sink, &ops, ledger));
      } else {
        auto it = knn_matrices.find(item.pair);
        if (it == knn_matrices.end()) {
          OpCounters build_ops;
          pmjoin::KnnCandidateMatrix matrix =
              Timed(&ledger->knn_matrix_build_s, [&] {
                return pmjoin::KnnCandidateMatrix::Build(
                    r.page_mbrs(), s.page_mbrs(), pmjoin::Norm::kL2,
                    &build_ops);
              });
          it = knn_matrices
                   .emplace(item.pair,
                            std::make_pair(std::move(matrix), build_ops))
                   .first;
        }
        ops += it->second.second;
        pmjoin::KnnJoinOptions options;
        options.k = item.k;
        options.self_join = self;
        pmjoin::BufferPool pool(&replay_disk_,
                                ServerOptions().default_buffer_pages);
        pmjoin::KnnResultSink results(r.num_records(), item.k);
        PMJOIN_RETURN_IF_ERROR(Timed(&ledger->knn_expand_s, [&] {
          return pmjoin::KnnJoinVectors(r, s, it->second.first, options,
                                        &pool, &results, &ops);
        }));
        results.Emit(&sink, &ops);
      }
      const OpOutcome& served = outcomes_[first_[m]];
      if (!(sink.digest() == served.digest) || !(ops == served.ops))
        return Status::Internal(
            "serve_mixed: layer replay of q" + std::to_string(first_[m]) +
            " differs from the server's answer");
      OpOutcome outcome;
      outcome.digest = sink.digest();
      outcome.io = replay_disk_.stats().Delta(io_before);
      outcome.ops = ops;
      replayed->push_back(outcome);
      total += ops;
    }
    ledger->ops = total;
    return Status::OK();
  }

  /// Per-layer metrics: io.* and server.* of the last served round (rows
  /// and cache statistics); core.*, geom.* and seq.* of the replay, which
  /// runs each distinct query once.
  void ExportServerLayers(const LayerLedger& replay, MetricSet* out) const {
    LayerLedger ledger = replay;
    std::vector<double> all, eps_lat, knn_lat, overhead;
    double eps_hits = 0, eps_n = 0, knn_hits = 0, knn_n = 0;
    for (const QueryRecord& q : records_) {
      all.push_back(q.latency_s * 1e3);
      (q.knn ? knn_lat : eps_lat).push_back(q.latency_s * 1e3);
      overhead.push_back((q.latency_s - q.exec_s) * 1e3);
      (q.knn ? knn_hits : eps_hits) += q.matrix_hit ? 1 : 0;
      (q.knn ? knn_n : eps_n) += 1;
      ledger.io += q.io;
      if (q.knn) ledger.knn_pages_read += q.join_io.pages_read;
    }
    ledger.Export(out);
    out->Set("server.query_p90_ms", Percentile(all, 90), "ms");
    out->Set("server.eps_query_p50_ms", Median(eps_lat), "ms");
    out->Set("server.knn_query_p50_ms", Median(knn_lat), "ms");
    out->Set("server.overhead_ms_p50", Median(overhead), "ms");
    out->Set("server.matrix_hit_ratio", eps_n > 0 ? eps_hits / eps_n : 0.0,
             "ratio");
    out->Set("server.knn_matrix_hit_ratio",
             knn_n > 0 ? knn_hits / knn_n : 0.0, "ratio");
    out->Set("server.dataset_builds", double(cache_stats_.dataset_builds),
             "count");
  }

  uint64_t seed_;
  ServeParams p_;
  std::vector<std::pair<std::string, std::string>> pairs_;
  std::map<std::string, pmjoin::VectorData> data_;
  pmjoin::SimulatedDisk replay_disk_;
  std::map<std::string, pmjoin::VectorDataset> datasets_;
  std::vector<MenuItem> menu_;
  std::vector<size_t> stream_;  ///< Menu index of each query.
  std::vector<size_t> first_;   ///< Stream position of each item's first run.

  std::unique_ptr<pmjoin::SimulatedDisk> disk_;
  std::unique_ptr<JoinServer> server_;
  std::vector<QueryRecord> records_;
  std::vector<OpOutcome> outcomes_;
  std::vector<OpOutcome> replay_reference_;  ///< The first layer replay.
  pmjoin::server::ArtifactCache::Stats cache_stats_;
};

}  // namespace

std::unique_ptr<Workload> MakeServeMixed(uint64_t seed, Scale scale) {
  return std::make_unique<ServeMixed>(seed, scale);
}

}  // namespace perfbench
