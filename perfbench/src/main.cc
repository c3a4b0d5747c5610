// End-to-end join benchmark driver.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--smoke] [--self-test]
//
// Untraced (--trace 0): set-up, one warm-up round, whole rounds of timed
// operations through the public API for S seconds, then one verified round
// whose pairs go through the independent checks. Every timed operation must
// return the warm-up round's pairs digest, IoStats and OpCounters. Every
// round repeats the same deterministic work, so an operation's fastest
// timed run is the reading least disturbed by other load on the host:
// op_p50_ms is the median over a round's operations of each one's fastest
// run, and ops_per_s is the round size over the sum of those fastest runs
// (one client issues the operations one after another, so its throughput is
// the inverse of their mean latency).
//
// Traced (--trace 1): untraced and traced rounds of the same operations run
// as individual layer calls alternate for S seconds; each must reproduce the
// API round's pairs and counters (observed = unobserved), and the per-layer
// metrics are the medians over the traced rounds.
//
// --smoke runs the small inputs; --self-test plants wrong, missing,
// duplicated and mis-ordered results into a verified round and exits 0 only
// if the checks reject every one.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "checks.h"

namespace perfbench {

void Digest::Add(uint64_t r, uint64_t s) {
  uint64_t z = r * 0x9E3779B97F4A7C15ull ^ (s + 0x632BE59BD9B4E019ull);
  z = (z ^ (z >> 31)) * 0xBF58476D1CE4E5B9ull;
  z ^= z >> 29;
  ++count;
  sum += z;
  xored ^= z * 0x94D049BB133111EBull;
}

void MetricSet::Set(const std::string& name, double value,
                    const std::string& unit) {
  for (auto& entry : entries_) {
    if (entry.first == name) {
      entry.second = {value, unit};
      return;
    }
  }
  entries_.push_back({name, {value, unit}});
}

double MetricSet::Get(const std::string& name) const {
  for (const auto& entry : entries_)
    if (entry.first == name) return entry.second.first;
  return 0.0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  rank = std::max<size_t>(rank, 1);
  return v[std::min(rank, v.size()) - 1];
}

namespace {

using pmjoin::Status;

/// Per-layer metrics every traced run prints (0 where a workload does not
/// run the layer), with their units. BENCHMARK.json lists the same names.
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"data.generate_s", "s"},
    {"data.build_s", "s"},
    {"io.persist_s", "s"},
    {"io.open_s", "s"},
    {"core.matrix_build_s", "s"},
    {"core.matrix_mbr_tests", "count"},
    {"core.matrix_entries", "count"},
    {"core.pairs_per_entry", "ratio"},
    {"core.clustering_s", "s"},
    {"core.clusters", "count"},
    {"core.cluster_ops", "count"},
    {"core.schedule_s", "s"},
    {"core.execute_s", "s"},
    {"core.join_cpu_s", "s"},
    {"core.pin_s", "s"},
    {"io.wait_s", "s"},
    {"io.pages_read", "pages"},
    {"io.seeks", "seeks"},
    {"io.buffer_hits", "pages"},
    {"io.buffer_hit_ratio", "ratio"},
    {"io.read_syscalls", "count"},
    {"io.read_mib", "MiB"},
    {"io.pread_s", "s"},
    {"io.checksum_checks", "count"},
    {"geom.dist_terms", "count"},
    {"geom.dist_terms_per_s", "1/s"},
    {"seq.edit_cells", "count"},
    {"seq.edit_cells_per_s", "1/s"},
    {"seq.filter_checks", "count"},
    {"seq.filter_checks_per_s", "1/s"},
    {"core.knn_matrix_build_s", "s"},
    {"core.knn_expand_s", "s"},
    {"core.knn_pages_read", "pages"},
    {"server.query_p90_ms", "ms"},
    {"server.eps_query_p50_ms", "ms"},
    {"server.knn_query_p50_ms", "ms"},
    {"server.overhead_ms_p50", "ms"},
    {"server.matrix_hit_ratio", "ratio"},
    {"server.knn_matrix_hit_ratio", "ratio"},
    {"server.dataset_builds", "count"},
    {"obs.trace_overhead_s", "s"},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool smoke = false;
  bool self_test = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (flag == "--self-test") {
      args->self_test = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value);
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

std::unique_ptr<Workload> MakeWorkload(const Args& args) {
  const Scale scale = args.smoke ? Scale::kSmoke : Scale::kFull;
  if (args.workload == "landsat_file")
    return MakeLandsatFile(args.seed, scale,
                           ".bench_pages/landsat-" + std::to_string(getpid()));
  if (args.workload == "dna_strings") return MakeDnaStrings(args.seed, scale);
  if (args.workload == "walk_series") return MakeWalkSeries(args.seed, scale);
  if (args.workload == "serve_mixed") return MakeServeMixed(args.seed, scale);
  return nullptr;
}

/// Tallies of a run, and the first reason it is not correct.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string wrong;  ///< Empty while every answer checked out.

  void Wrong(const std::string& why) {
    if (wrong.empty()) wrong = why;
  }
};

/// Runs one whole round through the API. `reference`, when non-empty, is
/// what each operation must reproduce; otherwise it is filled. `best`, when
/// non-null, holds each operation's fastest latency so far.
void ApiRound(Workload* w, std::vector<OpOutcome>* reference,
              std::vector<PairList>* pairs, std::vector<double>* best,
              Tally* tally) {
  const bool fill = reference->empty();
  if (fill) reference->resize(w->RoundSize());
  const Status begin = w->BeginRound();
  if (!begin.ok()) {
    tally->Wrong("round set-up failed: " + begin.ToString());
    return;
  }
  if (pairs != nullptr) pairs->assign(w->RoundSize(), PairList());
  for (size_t i = 0; i < w->RoundSize(); ++i) {
    ++tally->attempted;
    OpOutcome out;
    double latency = 0.0;
    const Status st =
        w->RunOp(i, &out, pairs != nullptr ? &(*pairs)[i] : nullptr, &latency);
    if (!st.ok()) {
      ++tally->failed;
      std::fprintf(stderr, "operation %zu failed: %s\n", i,
                   st.ToString().c_str());
      continue;
    }
    if (best != nullptr) (*best)[i] = std::min((*best)[i], latency);
    if (fill) {
      (*reference)[i] = out;
    } else if (!(out == (*reference)[i])) {
      tally->Wrong("operation " + std::to_string(i) +
                   " returned other pairs or counters than the warm-up run");
    }
  }
  const Status end = w->EndRound();
  if (!end.ok()) tally->Wrong(end.ToString());
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::string Number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

void PrintResult(const Tally& tally, const MetricSet& metrics) {
  std::string out = "{\"correct\": ";
  out += tally.wrong.empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally.attempted);
  out += ", \"failed\": " + std::to_string(tally.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics.entries()) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + Number(value.first) +
           ", \"unit\": \"" + value.second + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

/// The verified round: its pairs go through the independent checks.
void VerifiedRound(Workload* w, std::vector<OpOutcome>* reference,
                   Tally* tally, std::vector<PairList>* lists) {
  ApiRound(w, reference, lists, nullptr, tally);
  const Status extra = w->AppendVerifyLists(lists);
  if (!extra.ok()) {
    tally->Wrong(extra.ToString());
    return;
  }
  const Status verdict = w->Verify(*lists);
  if (!verdict.ok()) tally->Wrong(verdict.ToString());
}

int SelfTest(Workload* w) {
  std::vector<OpOutcome> reference;
  std::vector<PairList> lists;
  Tally tally;
  VerifiedRound(w, &reference, &tally, &lists);
  if (!tally.wrong.empty() || tally.failed > 0) {
    std::fprintf(stderr, "self-test: the unplanted round fails: %s\n",
                 tally.wrong.c_str());
    return 1;
  }
  int missed = 0;
  const std::vector<Workload::Planted> planted = w->PlantFaults(lists);
  for (const Workload::Planted& p : planted) {
    const Status st = w->Verify(p.lists);
    std::fprintf(stderr, "self-test: %-22s %s%s\n", p.what.c_str(),
                 st.ok() ? "NOT REJECTED" : "rejected: ",
                 st.ok() ? "" : st.message().c_str());
    if (st.ok()) ++missed;
  }
  // Each workload must be able to plant at least a wrong and a dropped
  // pair, or the check that should catch them was never exercised.
  bool wrong = false, dropped = false;
  for (const Workload::Planted& p : planted) {
    wrong |= p.what == "wrong pair";
    dropped |= p.what == "dropped pair";
  }
  if (!wrong || !dropped) {
    std::fprintf(stderr, "self-test: could not plant every fault kind\n");
    return 1;
  }
  return missed == 0 ? 0 : 1;
}

int Run(const Args& args, double process_start) {
  std::unique_ptr<Workload> w = MakeWorkload(args);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  MetricSet layers;
  const Status setup = w->Setup(&layers);
  const double setup_s = Now() - process_start;
  if (!setup.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", setup.ToString().c_str());
    return 1;
  }
  if (args.self_test) return SelfTest(w.get());

  Tally tally;
  std::vector<OpOutcome> reference;
  ApiRound(w.get(), &reference, nullptr, nullptr, &tally);  // warm-up

  MetricSet metrics;
  if (args.trace == 0) {
    constexpr double kNever = std::numeric_limits<double>::infinity();
    std::vector<double> best(w->RoundSize(), kNever);
    const double t0 = Now();
    do {
      ApiRound(w.get(), &reference, nullptr, &best, &tally);
    } while (Now() - t0 < args.seconds);
    // An operation that failed in every round has no latency.
    std::erase(best, kNever);
    double best_sum_s = 0.0;
    for (double b : best) best_sum_s += b;
    const double rss = PeakRssMib();
    double pages = 0, seeks = 0, modeled = 0;
    for (const OpOutcome& o : reference) {
      pages += o.io.pages_read;
      seeks += o.io.seeks;
      modeled += o.modeled_s;
    }
    metrics.Set("setup_s", setup_s, "s");
    metrics.Set("op_p50_ms", Median(best) * 1e3, "ms");
    metrics.Set("ops_per_s", best.size() / best_sum_s, "ops/s");
    metrics.Set("peak_rss_mib", rss, "MiB");
    metrics.Set("pages_read", pages, "pages");
    metrics.Set("seeks", seeks, "seeks");
    metrics.Set("modeled_s", modeled, "s");
  } else {
    std::vector<double> plain_s, traced_s;
    std::map<std::string, std::vector<double>> samples;
    const double t0 = Now();
    do {
      for (bool traced : {false, true}) {
        std::vector<OpOutcome> outcomes;
        MetricSet round_layers;
        double round_s = 0.0;
        tally.attempted += w->RoundSize();
        const Status st =
            w->LayerRound(traced, &outcomes, &round_layers, &round_s);
        if (!st.ok()) {
          tally.Wrong(st.ToString());
          continue;
        }
        (traced ? traced_s : plain_s).push_back(round_s);
        if (outcomes != reference)
          tally.Wrong(std::string(traced ? "traced" : "untraced") +
                      " layer round differs from the API round");
        for (const auto& [name, value] : round_layers.entries())
          samples[name].push_back(value.first);
      }
    } while (Now() - t0 < args.seconds && tally.wrong.empty());
    for (const auto& [name, values] : samples)
      layers.Set(name, Median(values), "");
    layers.Set("obs.trace_overhead_s", Median(traced_s) - Median(plain_s),
               "");
    for (const auto& [name, unit] : kLayerMetrics)
      metrics.Set(name, layers.Get(name), unit);
  }

  std::vector<PairList> lists;
  VerifiedRound(w.get(), &reference, &tally, &lists);
  if (!tally.wrong.empty())
    std::fprintf(stderr, "INCORRECT: %s\n", tally.wrong.c_str());
  PrintResult(tally, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const double process_start = perfbench::Now();
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--smoke] [--self-test]\n");
    return 2;
  }
  return perfbench::Run(args, process_start);
}
