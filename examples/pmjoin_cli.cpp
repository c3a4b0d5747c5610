// pmjoin_cli — run any join in the library from the command line against
// the built-in synthetic dataset generators, printing the full cost
// report. Useful for exploring the algorithm/buffer/selectivity space
// without writing code.
//
// Usage:
//   pmjoin_cli [--data=road|clusters|uniform|dna|walk]
//              [--algo=nlj|pm-nlj|rand-sc|sc|cc|ego|bfrj|pbsm]
//              [--n=20000] [--dims=2] [--eps=0.01] [--k=0] [--edits=5]
//              [--buffer=64] [--page=1024] [--window=500] [--self]
//              [--seed=1] [--norm=l1|l2|linf] [--shards=N]
//              [--backend=sim|file] [--data-dir=DIR] [--io-threads=N]
//              [--trace=FILE] [--report=FILE]
//
// --k=N switches the vector-data join from an ε-join to a kNN join: each
// record of R is paired with its N nearest records of S under --norm
// (JoinDriver::RunKnnJoin). --algo is ignored with --k; combining --k
// with an explicit --eps is a flag error (the two select different query
// types); the sequence datasets (dna, walk) have no kNN path.
//
// --shards=N partitions the cluster sharing graph across N modeled
// shards (clustered engines and kNN only; see core/shard_coordinator.h).
// Pairs and total counters are byte-identical to --shards=1; the report
// gains a per-shard section (attributed I/O/CPU, isolated modeled I/O,
// cut weight, replication, balance).
//
// --backend selects the storage backend: `sim` (default) models I/O cost
// only; `file` runs the identical pipeline against real page files under
// --data-dir (default pmjoin-data), with per-page checksums, and reports
// measured I/O (syscalls, bytes, pread latency) next to the modeled cost.
// Result pairs and modeled I/O are byte-identical across backends.
//
// --io-threads enables the async read pipeline on the file backend: N
// dedicated I/O threads physically read the next cluster's pages while
// the current cluster joins. Results and modeled I/O are unchanged; only
// wall-clock time improves. 0 (default) reads synchronously; ignored on
// --backend=sim, which has no physical reads to overlap.
//
// --trace writes the run's phase spans as Chrome trace-event JSON (open in
// chrome://tracing or Perfetto); --report writes the
// pmjoin.run_report.v1 JSON object (per-phase I/O attribution, metrics,
// IoStats totals; see tools/run_report_schema.json). Neither changes the
// join's results or its modeled I/O accounting.
//
// Examples:
//   pmjoin_cli --data=road --algo=sc --n=30000 --eps=0.004 --buffer=32
//   pmjoin_cli --data=dna --algo=sc --n=150000 --edits=5 --self
//   pmjoin_cli --data=walk --algo=pm-nlj --n=50000 --eps=1.5 --window=20
//   pmjoin_cli --data=road --algo=cc --trace=trace.json --report=run.json

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "core/join_driver.h"
#include "data/generators.h"
#include "data/vector_dataset.h"
#include "io/file_backend.h"
#include "io/simulated_disk.h"
#include "io/storage_backend.h"
#include "obs/run_report.h"
#include "obs/span.h"
#include "obs/trace_exporter.h"
#include "seq/sequence_store.h"

namespace {

using namespace pmjoin;

struct CliArgs {
  std::string data = "road";
  std::string algo = "sc";
  size_t n = 20000;
  size_t dims = 2;
  double eps = 0.01;
  bool eps_explicit = false;  // --eps was typed (vs. the default above).
  uint32_t k = 0;  // 0 = ε-join; >= 1 = kNN join (vector data only).
  uint32_t shards = 1;  // modeled shards; 1 = single-node.
  uint32_t edits = 5;
  uint32_t buffer = 64;
  uint32_t page = 1024;
  uint32_t window = 500;
  bool self = false;
  uint64_t seed = 1;
  std::string norm = "l2";
  std::string backend = "sim";
  std::string data_dir = "pmjoin-data";
  uint32_t io_threads = 0;
  std::string trace;   // Chrome trace-event JSON output path.
  std::string report;  // pmjoin.run_report.v1 JSON output path.

  bool observed() const { return !trace.empty() || !report.empty(); }
};

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *out = arg + len + 1;
    return true;
  }
  return false;
}

std::optional<CliArgs> Parse(int argc, char** argv) {
  CliArgs args;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseFlag(argv[i], "--data", &value)) {
      args.data = value;
    } else if (ParseFlag(argv[i], "--algo", &value)) {
      args.algo = value;
    } else if (ParseFlag(argv[i], "--n", &value)) {
      args.n = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--dims", &value)) {
      args.dims = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--eps", &value)) {
      args.eps = std::atof(value.c_str());
      args.eps_explicit = true;
    } else if (ParseFlag(argv[i], "--shards", &value)) {
      args.shards = static_cast<uint32_t>(std::atoi(value.c_str()));
    } else if (ParseFlag(argv[i], "--k", &value)) {
      args.k = static_cast<uint32_t>(std::atoi(value.c_str()));
    } else if (ParseFlag(argv[i], "--edits", &value)) {
      args.edits = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "--buffer", &value)) {
      args.buffer = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "--page", &value)) {
      args.page = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "--window", &value)) {
      args.window = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "--seed", &value)) {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--norm", &value)) {
      args.norm = value;
    } else if (ParseFlag(argv[i], "--backend", &value)) {
      args.backend = value;
    } else if (ParseFlag(argv[i], "--data-dir", &value)) {
      args.data_dir = value;
    } else if (ParseFlag(argv[i], "--io-threads", &value)) {
      args.io_threads = static_cast<uint32_t>(std::atoi(value.c_str()));
    } else if (ParseFlag(argv[i], "--trace", &value)) {
      args.trace = value;
    } else if (ParseFlag(argv[i], "--report", &value)) {
      args.report = value;
    } else if (std::strcmp(argv[i], "--self") == 0) {
      args.self = true;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      return std::nullopt;
    } else {
      std::fprintf(stderr, "unknown flag: %s (try --help)\n", argv[i]);
      return std::nullopt;
    }
  }
  if (args.k > 0 && args.eps_explicit) {
    std::fprintf(stderr,
                 "--k and --eps are mutually exclusive: --k=N runs a kNN "
                 "join (no ε threshold), --eps=E runs an ε-join (no k). "
                 "Pick one.\n");
    return std::nullopt;
  }
  return args;
}

std::optional<Algorithm> AlgoOf(const std::string& name) {
  if (name == "nlj") return Algorithm::kNlj;
  if (name == "pm-nlj") return Algorithm::kPmNlj;
  if (name == "rand-sc") return Algorithm::kRandomSc;
  if (name == "sc") return Algorithm::kSc;
  if (name == "cc") return Algorithm::kCc;
  if (name == "ego") return Algorithm::kEgo;
  if (name == "bfrj") return Algorithm::kBfrj;
  if (name == "pbsm") return Algorithm::kPbsm;
  return std::nullopt;
}

std::optional<Norm> NormOf(const std::string& name) {
  if (name == "l1") return Norm::kL1;
  if (name == "l2") return Norm::kL2;
  if (name == "linf") return Norm::kLInf;
  return std::nullopt;
}

/// Prints the backend's real-I/O counters (nonzero only for --backend=file)
/// so modeled and measured cost sit side by side in the output.
void PrintMeasuredIo(const StorageBackend& disk) {
  const StorageBackend::MeasuredIo& m = disk.measured();
  if (m.read_syscalls + m.write_syscalls == 0) return;
  std::printf("measured io:      %llu preads / %llu bytes, %llu pwrites / "
              "%llu bytes, %llu checksum checks\n",
              (unsigned long long)m.read_syscalls,
              (unsigned long long)m.read_bytes,
              (unsigned long long)m.write_syscalls,
              (unsigned long long)m.write_bytes,
              (unsigned long long)m.checksum_checks);
}

void PrintReport(const JoinReport& report, uint64_t result_pairs) {
  std::printf("algorithm:        %s\n",
              AlgorithmName(report.algorithm).c_str());
  std::printf("result pairs:     %llu\n",
              (unsigned long long)result_pairs);
  if (report.matrix_rows != 0) {
    std::printf("matrix:           %llux%llu, %llu marked (%.2f%%)\n",
                (unsigned long long)report.matrix_rows,
                (unsigned long long)report.matrix_cols,
                (unsigned long long)report.marked_entries,
                100.0 * report.matrix_selectivity);
  }
  if (report.num_clusters != 0) {
    std::printf("clusters:         %llu\n",
                (unsigned long long)report.num_clusters);
  }
  std::printf("io:               %llu pages read, %llu written, %llu "
              "seeks, %llu buffer hits\n",
              (unsigned long long)report.io.pages_read,
              (unsigned long long)report.io.pages_written,
              (unsigned long long)report.io.seeks,
              (unsigned long long)report.io.buffer_hits);
  std::printf("cpu counters:     %s\n", report.ops.ToString().c_str());
  std::printf("modeled seconds:  io %.3f + cpu %.3f + preprocess %.3f = "
              "%.3f\n",
              report.io_seconds, report.cpu_join_seconds,
              report.preprocess_seconds, report.TotalSeconds());
  if (report.shards > 1) {
    std::printf("shards:           %u, cut %llu/%llu, replicated %llu/%llu "
                "pages, balance %.3f\n",
                report.shards,
                (unsigned long long)report.shard_cut_weight,
                (unsigned long long)report.shard_sharing_weight,
                (unsigned long long)report.shard_replicated_pages,
                (unsigned long long)report.shard_distinct_pages,
                report.shard_balance_ratio);
    for (size_t i = 0; i < report.shard_stats.size(); ++i) {
      const ShardStats& s = report.shard_stats[i];
      std::printf("  shard %zu:        %llu clusters, %llu entries, "
                  "%llu pages, io %llu read / %llu hits, modeled %llu read\n",
                  i, (unsigned long long)s.clusters,
                  (unsigned long long)s.entries, (unsigned long long)s.pages,
                  (unsigned long long)s.io.pages_read,
                  (unsigned long long)s.io.buffer_hits,
                  (unsigned long long)s.modeled_io.pages_read);
    }
  }
}

/// Ends the observability session and writes the --trace / --report
/// artifacts. Called after the join has printed its report;
/// `join_report` feeds the run report's shard section when sharded.
int FinishObservability(const CliArgs& args, const JoinReport& join_report) {
  if (!args.observed()) return 0;
  obs::Tracer::Get().StopSession();
  const std::vector<obs::TraceEvent> events = obs::Tracer::Get().TakeEvents();
  if (!args.trace.empty()) {
    const Status st = obs::WriteChromeTrace(events, args.trace);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("trace:            %s (%zu spans)\n", args.trace.c_str(),
                events.size());
  }
  if (!args.report.empty()) {
    obs::RunReport report;
    report.SetContext("binary", "pmjoin_cli");
    report.SetContext("backend", args.backend);
    report.SetContext("data", args.data);
    report.SetContext("algo", args.algo);
    report.SetContext("n", static_cast<uint64_t>(args.n));
    report.SetContext("buffer", static_cast<uint64_t>(args.buffer));
    report.SetContext("page", static_cast<uint64_t>(args.page));
    report.SetContext("seed", args.seed);
    report.SetContext("shards", static_cast<uint64_t>(args.shards));
    if (join_report.shards > 1)
      report.SetShardSection(ShardSectionOf(join_report));
    report.CaptureSession(events);
    const Status st = report.WriteFile(args.report);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("report:           %s (%zu phases)\n", args.report.c_str(),
                report.phases().size());
  }
  return 0;
}

int Run(const CliArgs& args) {
  const auto algorithm = AlgoOf(args.algo);
  const auto norm = NormOf(args.norm);
  if (!algorithm || !norm) {
    std::fprintf(stderr, "bad --algo or --norm value\n");
    return 2;
  }
  std::unique_ptr<StorageBackend> backend;
  if (args.backend == "sim") {
    backend = std::make_unique<SimulatedDisk>();
  } else if (args.backend == "file") {
    FileBackend::Options fb;
    fb.page_size_bytes = args.page;
    auto opened = FileBackend::Open(args.data_dir, fb);
    if (!opened.ok()) {
      std::fprintf(stderr, "%s\n", opened.status().ToString().c_str());
      return 1;
    }
    backend = std::move(opened).value();
  } else {
    std::fprintf(stderr, "bad --backend value: %s\n", args.backend.c_str());
    return 2;
  }
  StorageBackend& disk = *backend;
  // The session brackets dataset build + join: disk traffic outside the
  // instrumented join phases surfaces as the report's unattributed_io.
  if (args.observed()) obs::Tracer::Get().StartSession(&disk);
  JoinDriver driver(&disk);
  JoinOptions options;
  options.algorithm = *algorithm;
  options.buffer_pages = args.buffer;
  options.page_size_bytes = args.page;
  options.norm = *norm;
  options.seed = args.seed;
  options.io_threads = args.io_threads;
  options.shards = args.shards;
  CountingSink sink;

  if (args.data == "road" || args.data == "clusters" ||
      args.data == "uniform") {
    VectorData r_data, s_data;
    if (args.data == "road") {
      r_data = GenRoadNetwork(args.n, args.seed);
      s_data = GenRoadNetwork(args.n, args.seed + 1);
    } else if (args.data == "clusters") {
      // One draw split in halves, so R and S share one cluster mixture
      // (draws with different seeds come from disjoint mixtures and their
      // join is empty). R is the same n records a single draw would give.
      const VectorData all =
          GenCorrelatedClusters(2 * args.n, args.dims, args.seed);
      const auto mid = all.values.begin() + args.n * args.dims;
      r_data.dims = s_data.dims = args.dims;
      r_data.values.assign(all.values.begin(), mid);
      s_data.values.assign(mid, all.values.end());
    } else {
      r_data = GenUniform(args.n, args.dims, args.seed);
      s_data = GenUniform(args.n, args.dims, args.seed + 1);
    }
    VectorDataset::Options layout;
    layout.page_size_bytes = args.page;
    auto r = VectorDataset::Build(&disk, "R", r_data, layout);
    if (!r.ok()) {
      std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
      return 1;
    }
    std::optional<VectorDataset> s;
    if (!args.self) {
      auto built = VectorDataset::Build(&disk, "S", s_data, layout);
      if (!built.ok()) {
        std::fprintf(stderr, "%s\n", built.status().ToString().c_str());
        return 1;
      }
      s.emplace(std::move(built).value());
    }
    auto report =
        args.k > 0
            ? driver.RunKnnJoin(*r, args.self ? *r : *s, args.k, options,
                                &sink)
            : driver.RunVector(*r, args.self ? *r : *s, args.eps, options,
                               &sink);
    if (!report.ok()) {
      std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
      return 1;
    }
    PrintReport(*report, sink.count());
    PrintMeasuredIo(disk);
    return FinishObservability(args, *report);
  }

  if (args.k > 0) {
    std::fprintf(stderr,
                 "--k is for vector data only (road|clusters|uniform)\n");
    return 2;
  }

  if (args.data == "dna") {
    std::vector<uint8_t> a, b;
    GenDnaPair(args.n, args.n, args.seed, &a, &b, 0.3, 0.004,
               /*regime_scale=*/std::min(1.0, args.n / 4225477.0 + 0.15));
    auto r = StringSequenceStore::Build(&disk, "R", std::move(a), 4,
                                        args.window, args.page);
    if (!r.ok()) {
      std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
      return 1;
    }
    std::optional<StringSequenceStore> s;
    if (!args.self) {
      auto built = StringSequenceStore::Build(&disk, "S", std::move(b), 4,
                                              args.window, args.page);
      if (!built.ok()) {
        std::fprintf(stderr, "%s\n", built.status().ToString().c_str());
        return 1;
      }
      s.emplace(std::move(built).value());
    }
    auto report = driver.RunString(*r, args.self ? *r : *s, args.edits,
                                   options, &sink);
    if (!report.ok()) {
      std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
      return 1;
    }
    PrintReport(*report, sink.count());
    PrintMeasuredIo(disk);
    return FinishObservability(args, *report);
  }

  if (args.data == "walk") {
    const uint32_t window = args.window > 64 ? 20 : args.window;
    const uint32_t paa = window % 5 == 0 ? 5 : (window % 4 == 0 ? 4 : 1);
    auto r = TimeSeriesStore::Build(&disk, "R",
                                    GenRandomWalk(args.n, args.seed),
                                    window, paa, args.page);
    if (!r.ok()) {
      std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
      return 1;
    }
    std::optional<TimeSeriesStore> s;
    if (!args.self) {
      auto built = TimeSeriesStore::Build(
          &disk, "S", GenRandomWalk(args.n, args.seed + 1), window, paa,
          args.page);
      if (!built.ok()) {
        std::fprintf(stderr, "%s\n", built.status().ToString().c_str());
        return 1;
      }
      s.emplace(std::move(built).value());
    }
    auto report = driver.RunTimeSeries(*r, args.self ? *r : *s, args.eps,
                                       options, &sink);
    if (!report.ok()) {
      std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
      return 1;
    }
    PrintReport(*report, sink.count());
    PrintMeasuredIo(disk);
    return FinishObservability(args, *report);
  }

  std::fprintf(stderr, "bad --data value: %s\n", args.data.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = Parse(argc, argv);
  if (!args) {
    std::printf(
        "usage: pmjoin_cli [--data=road|clusters|uniform|dna|walk]\n"
        "                  [--algo=nlj|pm-nlj|rand-sc|sc|cc|ego|bfrj|pbsm]\n"
        "                  [--n=N] [--dims=D] [--eps=E] [--k=N] [--edits=K]\n"
        "                  [--buffer=B] [--page=BYTES] [--window=L]\n"
        "                  [--self] [--seed=S] [--norm=l1|l2|linf]\n"
        "                  [--shards=N] [--trace=FILE] [--report=FILE]\n"
        "                  [--backend=sim|file] [--data-dir=DIR]\n"
        "                  [--io-threads=N]\n"
        "--trace writes Chrome trace-event JSON (chrome://tracing);\n"
        "--report writes the pmjoin.run_report.v1 JSON object.\n"
        "--backend=file stores pages in DIR (default pmjoin-data) with\n"
        "real pread/pwrite and per-page checksums; modeled I/O counters\n"
        "are identical to --backend=sim.\n"
        "--io-threads=N overlaps the file backend's physical reads with\n"
        "the joins (async prefetch); results and modeled I/O unchanged.\n"
        "--k=N runs a kNN join on vector data (ignores --algo; cannot be\n"
        "combined with an explicit --eps).\n"
        "--shards=N partitions the cluster sharing graph across N modeled\n"
        "shards; results are byte-identical to --shards=1 and the report\n"
        "gains per-shard I/O, cut-weight, and replication stats.\n");
    return 2;
  }
  return Run(*args);
}
