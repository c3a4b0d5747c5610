// Shared types of the end-to-end join benchmark driver.
//
// A workload owns its inputs and runs rounds of operations through the
// library's public API. The driver (main.cc) times those operations, checks
// that every timed operation returned the answer of the independently
// verified round, and prints one JSON result line.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/op_counters.h"
#include "common/pair_sink.h"
#include "common/status.h"
#include "io/io_stats.h"

namespace perfbench {

using Pair = std::pair<uint64_t, uint64_t>;
using PairList = std::vector<Pair>;

/// Seconds on the steady clock since an arbitrary epoch.
inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Order-independent digest of a pair stream: count, wrapping sum and xor
/// of a 64-bit mix of each pair. Two runs of one operation must produce
/// equal digests; the verified round anchors what the digest must be.
struct Digest {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t xored = 0;

  void Add(uint64_t r, uint64_t s);
  bool operator==(const Digest& other) const = default;
};

/// Sink of the timed operations: digests pairs without storing them.
class DigestSink : public pmjoin::PairSink {
 public:
  void OnPair(uint64_t r, uint64_t s) override { digest_.Add(r, s); }
  const Digest& digest() const { return digest_; }

 private:
  Digest digest_;
};

/// Sink of the verified round: keeps every pair in emission order.
class RecordingSink : public pmjoin::PairSink {
 public:
  void OnPair(uint64_t r, uint64_t s) override {
    digest_.Add(r, s);
    pairs_.emplace_back(r, s);
  }
  const Digest& digest() const { return digest_; }
  PairList TakePairs() { return std::move(pairs_); }

 private:
  Digest digest_;
  PairList pairs_;
};

/// What one operation returned that every repetition of it must match.
struct OpOutcome {
  Digest digest;
  pmjoin::IoStats io;
  pmjoin::OpCounters ops;
  double modeled_s = 0.0;  ///< JoinReport::TotalSeconds().

  bool operator==(const OpOutcome& other) const {
    return digest == other.digest && io == other.io && ops == other.ops;
  }
};

/// Named metrics in print order.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  double Get(const std::string& name) const;
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  entries() const {
    return entries_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      entries_;
};

/// Workload sizes: the measured run, or the small smoke-test inputs.
enum class Scale { kFull, kSmoke };

/// One benchmark workload. Rounds are whole: every round runs the same
/// operations (RoundSize of them) in the same order on the same inputs.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the inputs from the seed and builds the datasets. Records
  /// data.generate_s / data.build_s (and io.persist_s / io.open_s where the
  /// backend persists) into `layers`.
  virtual pmjoin::Status Setup(MetricSet* layers) = 0;

  virtual size_t RoundSize() const = 0;

  /// Called before the first operation of every round.
  virtual pmjoin::Status BeginRound() { return pmjoin::Status::OK(); }

  /// Runs operation `i` of the current round through the public API.
  /// `pairs`, when non-null, receives the emitted pairs in order.
  /// `latency_s` is the client-observed time from call to result.
  virtual pmjoin::Status RunOp(size_t i, OpOutcome* out, PairList* pairs,
                               double* latency_s) = 0;

  /// Called after the last operation of every round.
  virtual pmjoin::Status EndRound() { return pmjoin::Status::OK(); }

  /// Independent checks over the pairs of one verified round
  /// (round_pairs[i] belongs to operation i; extra trailing lists are
  /// workload-specific). Shares no code with the library's join path.
  virtual pmjoin::Status Verify(const std::vector<PairList>& round_pairs) = 0;

  /// Extra lists appended to a verified round's pairs (serve_mixed adds
  /// the ordered kNN rows of a direct join); default none.
  virtual pmjoin::Status AppendVerifyLists(std::vector<PairList>* lists) {
    (void)lists;
    return pmjoin::Status::OK();
  }

  /// One round through the individual layer calls, traced when `traced`.
  /// Outcomes must equal the untraced API round's; `layers` receives the
  /// per-layer metrics when traced; `round_s` the wall time of the part
  /// that runs traced or untraced, up to the end of its obs session.
  virtual pmjoin::Status LayerRound(bool traced,
                                    std::vector<OpOutcome>* outcomes,
                                    MetricSet* layers, double* round_s) = 0;

  /// Planted faults for the self-test: mutated copies of a verified
  /// round's lists, each of which Verify must reject.
  struct Planted {
    std::string what;
    std::vector<PairList> lists;
  };
  virtual std::vector<Planted> PlantFaults(
      const std::vector<PairList>& round_pairs) = 0;
};

std::unique_ptr<Workload> MakeLandsatFile(uint64_t seed, Scale scale,
                                          const std::string& pages_dir);
std::unique_ptr<Workload> MakeDnaStrings(uint64_t seed, Scale scale);
std::unique_ptr<Workload> MakeWalkSeries(uint64_t seed, Scale scale);
std::unique_ptr<Workload> MakeServeMixed(uint64_t seed, Scale scale);

/// Median of `v` (copied); 0 for an empty list.
double Median(std::vector<double> v);
/// Nearest-rank percentile p in [0, 100]; 0 for an empty list.
double Percentile(std::vector<double> v, double p);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
