// End-to-end contract of the observability subsystem (src/obs):
//
//  1. Exactness — the run report's per-phase exclusive I/O deltas plus its
//     unattributed remainder reproduce the session IoStats totals field by
//     field, and the session totals equal the JoinReport's own delta.
//  2. Harmlessness — enabling a tracing session changes neither the emitted
//     pairs nor the op counters nor the simulated I/O, at any thread count.
#include <gtest/gtest.h>

#include <optional>
#include <utility>
#include <vector>

#include "core/join_driver.h"
#include "data/generators.h"
#include "io/io_stats.h"
#include "io/simulated_disk.h"
#include "obs/run_report.h"
#include "obs/span.h"

namespace pmjoin {
namespace {

struct RunResult {
  std::vector<std::pair<uint64_t, uint64_t>> pairs;
  OpCounters ops;
  IoStats io;
  obs::RunReport report;  // captured only when observed
};

/// One fully fresh SC/CC join (own disk + datasets, deterministic seeds),
/// optionally bracketed by a tracer session around the join itself.
RunResult RunOnce(Algorithm algorithm, uint32_t num_threads, bool observed) {
  SimulatedDisk disk;
  const VectorData r_raw = GenRoadNetwork(600, 31);
  const VectorData s_raw = GenRoadNetwork(500, 32);
  VectorDataset::Options layout;
  layout.page_size_bytes = 64;
  VectorDataset r = VectorDataset::Build(&disk, "r", r_raw, layout).value();
  VectorDataset s = VectorDataset::Build(&disk, "s", s_raw, layout).value();

  JoinOptions options;
  options.algorithm = algorithm;
  options.buffer_pages = 10;
  options.page_size_bytes = 64;
  options.num_threads = num_threads;

  JoinDriver driver(&disk);
  CollectingSink sink;
  if (observed) obs::Tracer::Get().StartSession(&disk);
  auto report = driver.RunVector(r, s, 0.05, options, &sink);
  if (observed) obs::Tracer::Get().StopSession();

  RunResult result;
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  if (report.ok()) {
    result.pairs = sink.Sorted();
    result.ops = report->ops;
    result.io = report->io;
  }
  if (observed) {
    result.report.CaptureSession();
  } else {
    // A stray session would invalidate the harmlessness comparison.
    EXPECT_FALSE(obs::Tracer::Get().active());
  }
  return result;
}

IoStats LedgerSum(const obs::RunReport& report) {
  IoStats sum = report.unattributed_io();
  for (const obs::PhaseRow& row : report.phases()) sum += row.io_self;
  return sum;
}

TEST(ObsAttributionTest, PhaseLedgerSumsToSessionTotalsExactly) {
  for (Algorithm algorithm : {Algorithm::kSc, Algorithm::kCc}) {
    for (uint32_t threads : {1u, 4u}) {
      const RunResult run = RunOnce(algorithm, threads, /*observed=*/true);
      // Session == join bracket, so totals must equal the JoinReport delta.
      EXPECT_EQ(run.report.io_totals(), run.io)
          << AlgorithmName(algorithm) << " threads=" << threads;
      // The ledger invariant: exclusive phase deltas + unattributed ==
      // totals, every field.
      EXPECT_EQ(LedgerSum(run.report), run.report.io_totals())
          << AlgorithmName(algorithm) << " threads=" << threads;
    }
  }
}

#ifdef PMJOIN_OBS_ENABLED
TEST(ObsAttributionTest, ExpectedPhasesArePresent) {
  const RunResult run = RunOnce(Algorithm::kSc, 1, /*observed=*/true);
  bool saw_join = false;
  bool saw_matrix = false;
  bool saw_execute = false;
  bool saw_cluster = false;
  for (const obs::PhaseRow& row : run.report.phases()) {
    if (row.path == "join") saw_join = true;
    if (row.path == "join/matrix_build") saw_matrix = true;
    if (row.path == "join/execute") saw_execute = true;
    if (row.path == "join/execute/cluster") saw_cluster = true;
  }
  EXPECT_TRUE(saw_join);
  EXPECT_TRUE(saw_matrix);
  EXPECT_TRUE(saw_execute);
  EXPECT_TRUE(saw_cluster);
  // The root phase carries the whole join's op counters.
  for (const obs::PhaseRow& row : run.report.phases()) {
    if (row.path != "join") continue;
    ASSERT_TRUE(row.has_ops);
    EXPECT_EQ(row.ops, run.ops);
  }
}

TEST(ObsAttributionTest, WorkerSpansAppearAtHigherThreadCounts) {
  for (uint32_t threads : {1u, 4u}) {
    const RunResult run = RunOnce(Algorithm::kSc, threads, /*observed=*/true);
    bool saw_join_entries = false;
    for (const obs::PhaseRow& row : run.report.phases()) {
      if (row.name != "join_entries") continue;
      saw_join_entries = true;
      if (threads == 1) {
        // Inline on the session thread: the span is tracked but moves no
        // pages, so the pin and join-CPU phases stay separable.
        EXPECT_TRUE(row.has_io);
        EXPECT_EQ(row.io, IoStats());
      } else {
        // Worker-track spans never carry I/O — all disk traffic is on the
        // coordinator, which is what makes the ledger race-free.
        EXPECT_FALSE(row.has_io) << "threads=" << threads;
      }
    }
    EXPECT_TRUE(saw_join_entries) << "threads=" << threads;
    EXPECT_EQ(LedgerSum(run.report), run.report.io_totals())
        << "threads=" << threads;
  }
}
#endif  // PMJOIN_OBS_ENABLED

TEST(ObsAttributionTest, ObservationDoesNotChangeResults) {
  for (Algorithm algorithm : {Algorithm::kSc, Algorithm::kCc}) {
    const RunResult base = RunOnce(algorithm, 1, /*observed=*/false);
    ASSERT_FALSE(base.pairs.empty());
    for (bool observed : {false, true}) {
      for (uint32_t threads : {1u, 8u}) {
        const RunResult run = RunOnce(algorithm, threads, observed);
        EXPECT_EQ(run.pairs, base.pairs)
            << AlgorithmName(algorithm) << " observed=" << observed
            << " threads=" << threads;
        EXPECT_EQ(run.ops, base.ops)
            << AlgorithmName(algorithm) << " observed=" << observed
            << " threads=" << threads;
        EXPECT_EQ(run.io, base.io)
            << AlgorithmName(algorithm) << " observed=" << observed
            << " threads=" << threads;
      }
    }
  }
}

}  // namespace
}  // namespace pmjoin
