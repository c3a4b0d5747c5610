// Independent answer checks. Everything here is written from the join
// definitions alone (double-precision distances, a banded edit-distance DP,
// brute-force scans) and calls nothing of the library's join path, so a
// fault there cannot hide behind the same fault here.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench.h"
#include "common/status.h"

namespace perfbench {

/// Relative width of the band around a threshold inside which a pair may be
/// reported either way: the library decides in its own arithmetic (float
/// kernels, incremental window updates), and a pair this close to ε is not
/// a wrong answer in either direction.
inline constexpr double kBorderBand = 1e-5;

/// splitmix64: the checks' own deterministic generator.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  uint64_t Below(uint64_t bound) { return Next() % bound; }

 private:
  uint64_t state_;
};

/// `count` distinct ids below `n`, ascending (all of them when count >= n).
std::vector<uint64_t> SampleIds(uint64_t n, size_t count, uint64_t seed);

/// Euclidean distance of two float records, accumulated in double.
double L2(const float* a, const float* b, size_t dims);

/// Squared Euclidean distance of two float windows in double; stops early
/// and returns a value > `limit_sq` once the partial sum exceeds it.
double WindowL2Squared(const float* x, const float* y, uint32_t len,
                       double limit_sq);

/// Edit distance of two length-`len` strings when it is <= k, else k + 1.
/// Banded DP (|i - j| <= k) with an early cutoff once a whole band row
/// exceeds k.
uint32_t EditDistanceAtMost(const uint8_t* a, const uint8_t* b, uint32_t len,
                            uint32_t k);

/// Where a pair stands against the join predicate.
enum class Verdict { kIn, kBorder, kOut };

/// Verdict of a distance against ε with the kBorderBand margin.
Verdict DistanceVerdict(double distance, double eps);

/// An ε-join answer to check: ids are record ids or window start positions.
struct EpsJoinCheck {
  std::string label;
  uint64_t r_count = 0;
  uint64_t s_count = 0;
  /// Self-join: pairs must satisfy r + self_gap <= s when self_gap > 0 (the
  /// windows do not overlap), or r < s when self_gap == 0.
  bool self_join = false;
  uint64_t self_gap = 0;
  /// The predicate for one pair.
  std::function<Verdict(uint64_t r, uint64_t s)> verdict;
  /// Brute force over every s for one r: ids certainly in the answer go to
  /// `in`, borderline ids to `border`. For a self-join the scan covers
  /// partners on both sides of r.
  std::function<void(uint64_t r, std::vector<uint64_t>* in,
                     std::vector<uint64_t>* border)>
      scan;
  /// R ids whose partner lists are compared against the scan. The check
  /// adds as many rows drawn from those the answer reports (see
  /// CompletenessRows), so rows with results are always among them.
  std::vector<uint64_t> sample;
  uint64_t sample_seed = 0;
};

/// The ε-join check of two float record sets (`dims` floats per record,
/// row-major) under L2. A self-join skips only the identity in its scan.
/// The sample is `sample` rows drawn with `sample_seed`; the reported rows
/// are drawn with sample_seed + 1. The records must outlive the check.
EpsJoinCheck VectorEpsCheck(std::string label, const float* r,
                            uint64_t r_count, const float* s,
                            uint64_t s_count, size_t dims, double eps,
                            bool self_join, size_t sample,
                            uint64_t sample_seed);

/// The rows completeness is checked on: `check.sample` plus up to as many
/// distinct R ids of `pairs`, drawn with `check.sample_seed`. Ascending.
std::vector<uint64_t> CompletenessRows(const EpsJoinCheck& check,
                                       const PairList& pairs);

/// Ids in range, self-join convention, no duplicates, every pair passes
/// the predicate (soundness), and every completeness row matches the scan
/// (completeness). Returns the first violation.
pmjoin::Status CheckEpsJoin(const EpsJoinCheck& check, const PairList& pairs);

/// A kNN answer to check.
struct KnnCheck {
  std::string label;
  uint64_t r_count = 0;
  uint64_t s_count = 0;
  uint32_t k = 0;
  bool self_join = false;  ///< Skips only the identity pair.
  std::function<double(uint64_t r, uint64_t s)> distance;
  std::vector<uint64_t> sample;
};

/// Every row has exactly k distinct neighbours (none the row itself in a
/// self-join), and each sampled row holds the k nearest by a brute-force
/// scan (ties at the k-th distance may go either way). `pairs` may be in
/// any order.
pmjoin::Status CheckKnnRows(const KnnCheck& check, const PairList& pairs);

/// Rows appear r-ascending, each ordered by (distance, id).
pmjoin::Status CheckKnnOrder(const KnnCheck& check, const PairList& ordered);

/// Sorted copy of `pairs`.
PairList SortedPairs(const PairList& pairs);

/// Planted-fault helpers for the self-test. Each returns false when the
/// fault cannot be planted in `pairs`.
/// Replaces one pair with a pair of the same row that the predicate
/// rejects and that keeps the self-join convention (a sorted list stays
/// sorted).
bool PlantWrongPair(const EpsJoinCheck& check, PairList* pairs);
/// Removes one pair of a completeness row that stays one without it.
bool PlantDroppedPair(const EpsJoinCheck& check, PairList* pairs);
/// Appends a copy of one pair.
bool PlantDuplicatePair(PairList* pairs);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
