#include "checks.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

namespace perfbench {

using pmjoin::Status;

uint64_t SplitMix::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::vector<uint64_t> SampleIds(uint64_t n, size_t count, uint64_t seed) {
  std::vector<uint64_t> ids;
  if (count >= n) {
    for (uint64_t i = 0; i < n; ++i) ids.push_back(i);
    return ids;
  }
  SplitMix rng(seed);
  while (ids.size() < count) {
    ids.push_back(rng.Below(n));
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  }
  return ids;
}

double L2(const float* a, const float* b, size_t dims) {
  double sum = 0.0;
  for (size_t d = 0; d < dims; ++d) {
    const double diff = double(a[d]) - double(b[d]);
    sum += diff * diff;
  }
  return std::sqrt(sum);
}

double WindowL2Squared(const float* x, const float* y, uint32_t len,
                       double limit_sq) {
  double sum = 0.0;
  for (uint32_t i = 0; i < len; ++i) {
    const double diff = double(x[i]) - double(y[i]);
    sum += diff * diff;
    if (sum > limit_sq) return sum;
  }
  return sum;
}

uint32_t EditDistanceAtMost(const uint8_t* a, const uint8_t* b, uint32_t len,
                            uint32_t k) {
  // Row i holds D[i][j] for j in [i - k, i + k], stored at offset j - i + k.
  const uint32_t width = 2 * k + 1;
  const uint32_t inf = k + 1;
  std::vector<uint32_t> prev(width, inf), cur(width, inf);
  for (uint32_t j = 0; j <= std::min(k, len); ++j) prev[j + k] = j;
  for (uint32_t i = 1; i <= len; ++i) {
    uint32_t row_min = inf;
    for (uint32_t off = 0; off < width; ++off) {
      const int64_t j = int64_t(i) + off - k;
      if (j < 0 || j > int64_t(len)) {
        cur[off] = inf;
        continue;
      }
      uint32_t best = inf;
      if (j == 0) {
        best = i;
      } else {
        // Diagonal: D[i-1][j-1] sits at the same offset of the previous row.
        best = prev[off] + (a[i - 1] == b[j - 1] ? 0 : 1);
        // Left: D[i][j-1].
        if (off > 0) best = std::min(best, cur[off - 1] + 1);
        // Up: D[i-1][j] sits one offset to the right in the previous row.
        if (off + 1 < width) best = std::min(best, prev[off + 1] + 1);
      }
      cur[off] = std::min(best, inf);
      row_min = std::min(row_min, cur[off]);
    }
    if (row_min > k) return inf;
    std::swap(prev, cur);
  }
  return std::min(prev[k], inf);
}

Verdict DistanceVerdict(double distance, double eps) {
  if (distance <= eps * (1.0 - kBorderBand)) return Verdict::kIn;
  if (distance <= eps * (1.0 + kBorderBand)) return Verdict::kBorder;
  return Verdict::kOut;
}

PairList SortedPairs(const PairList& pairs) {
  PairList sorted = pairs;
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

namespace {

std::string PairText(const Pair& p) {
  return "(" + std::to_string(p.first) + ", " + std::to_string(p.second) +
         ")";
}

Status Fail(const std::string& label, const std::string& what) {
  return Status::Internal(label + ": " + what);
}

}  // namespace

EpsJoinCheck VectorEpsCheck(std::string label, const float* r,
                            uint64_t r_count, const float* s,
                            uint64_t s_count, size_t dims, double eps,
                            bool self_join, size_t sample,
                            uint64_t sample_seed) {
  EpsJoinCheck check;
  check.label = std::move(label);
  check.r_count = r_count;
  check.s_count = s_count;
  check.self_join = self_join;
  check.verdict = [=](uint64_t x, uint64_t y) {
    return DistanceVerdict(L2(r + x * dims, s + y * dims, dims), eps);
  };
  check.scan = [=](uint64_t x, std::vector<uint64_t>* in,
                   std::vector<uint64_t>* border) {
    for (uint64_t y = 0; y < s_count; ++y) {
      if (self_join && y == x) continue;
      const Verdict v =
          DistanceVerdict(L2(r + x * dims, s + y * dims, dims), eps);
      if (v == Verdict::kIn) in->push_back(y);
      if (v == Verdict::kBorder) border->push_back(y);
    }
  };
  check.sample = SampleIds(r_count, sample, sample_seed);
  check.sample_seed = sample_seed + 1;
  return check;
}

std::vector<uint64_t> CompletenessRows(const EpsJoinCheck& check,
                                       const PairList& pairs) {
  std::vector<uint64_t> reported;
  for (const Pair& p : pairs) reported.push_back(p.first);
  std::sort(reported.begin(), reported.end());
  reported.erase(std::unique(reported.begin(), reported.end()),
                 reported.end());
  std::vector<uint64_t> rows = check.sample;
  for (uint64_t i : SampleIds(reported.size(), check.sample.size(),
                              check.sample_seed))
    rows.push_back(reported[i]);
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  return rows;
}

Status CheckEpsJoin(const EpsJoinCheck& check, const PairList& pairs) {
  for (const Pair& p : pairs) {
    if (p.first >= check.r_count || p.second >= check.s_count)
      return Fail(check.label, "id out of range in pair " + PairText(p));
    if (check.self_join) {
      const bool ok = check.self_gap > 0 ? p.first + check.self_gap <= p.second
                                         : p.first < p.second;
      if (!ok)
        return Fail(check.label,
                    "self-join convention violated by " + PairText(p));
    }
  }
  const PairList sorted = SortedPairs(pairs);
  for (size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i] == sorted[i - 1])
      return Fail(check.label, "duplicate pair " + PairText(sorted[i]));
  }
  for (const Pair& p : pairs) {
    if (check.verdict(p.first, p.second) == Verdict::kOut)
      return Fail(check.label, "pair " + PairText(p) +
                                   " does not satisfy the join predicate");
  }

  // Completeness on the sampled rows: partners reported by the program
  // (both sides for a self-join) against the brute-force scan.
  const std::vector<uint64_t> rows = CompletenessRows(check, pairs);
  std::unordered_map<uint64_t, std::vector<uint64_t>> reported;
  for (uint64_t r : rows) reported[r];
  for (const Pair& p : pairs) {
    auto it = reported.find(p.first);
    if (it != reported.end()) it->second.push_back(p.second);
    if (check.self_join) {
      auto back = reported.find(p.second);
      if (back != reported.end()) back->second.push_back(p.first);
    }
  }
  for (uint64_t r : rows) {
    std::vector<uint64_t> in, border;
    check.scan(r, &in, &border);
    std::vector<uint64_t> got = reported[r];
    std::sort(got.begin(), got.end());
    std::sort(in.begin(), in.end());
    std::sort(border.begin(), border.end());
    for (uint64_t s : in) {
      if (!std::binary_search(got.begin(), got.end(), s))
        return Fail(check.label, "missing pair for sampled row " +
                                     std::to_string(r) + ": partner " +
                                     std::to_string(s));
    }
    for (uint64_t s : got) {
      if (!std::binary_search(in.begin(), in.end(), s) &&
          !std::binary_search(border.begin(), border.end(), s))
        return Fail(check.label, "sampled row " + std::to_string(r) +
                                     " reports non-partner " +
                                     std::to_string(s));
    }
  }
  return Status::OK();
}

Status CheckKnnRows(const KnnCheck& check, const PairList& pairs) {
  const uint64_t available =
      check.self_join ? check.s_count - 1 : check.s_count;
  const uint64_t want = std::min<uint64_t>(check.k, available);
  const PairList sorted = SortedPairs(pairs);
  if (sorted.size() != check.r_count * want)
    return Fail(check.label, "expected " + std::to_string(check.r_count) +
                                 " rows of " + std::to_string(want) +
                                 " neighbours, got " +
                                 std::to_string(sorted.size()) + " pairs");
  for (size_t i = 0; i < sorted.size(); ++i) {
    const Pair& p = sorted[i];
    if (p.first >= check.r_count || p.second >= check.s_count)
      return Fail(check.label, "id out of range in pair " + PairText(p));
    if (check.self_join && p.first == p.second)
      return Fail(check.label, "identity pair " + PairText(p));
    if (i > 0 && sorted[i - 1] == p)
      return Fail(check.label, "duplicate neighbour " + PairText(p));
    // Exactly `want` per row, for every row: in sorted order, pair i
    // belongs to row i / want.
    if (p.first != i / want)
      return Fail(check.label, "row " + std::to_string(p.first) +
                                   " does not hold exactly " +
                                   std::to_string(want) + " neighbours");
  }

  for (uint64_t r : check.sample) {
    std::vector<std::pair<double, uint64_t>> all;
    all.reserve(check.s_count);
    for (uint64_t s = 0; s < check.s_count; ++s) {
      if (check.self_join && s == r) continue;
      all.emplace_back(check.distance(r, s), s);
    }
    std::nth_element(all.begin(), all.begin() + (want - 1), all.end());
    const double kth = all[want - 1].first;
    const double slack = kth * kBorderBand + 1e-12;
    auto lo = std::lower_bound(sorted.begin(), sorted.end(), Pair{r, 0});
    std::vector<uint64_t> got;
    for (auto it = lo; it != sorted.end() && it->first == r; ++it)
      got.push_back(it->second);
    for (uint64_t s : got) {
      if (check.distance(r, s) > kth + slack)
        return Fail(check.label, "row " + std::to_string(r) +
                                     " holds " + std::to_string(s) +
                                     ", farther than its k-th neighbour");
    }
    for (const auto& [d, s] : all) {
      if (d < kth - slack && !std::binary_search(got.begin(), got.end(), s))
        return Fail(check.label, "row " + std::to_string(r) +
                                     " misses neighbour " +
                                     std::to_string(s));
    }
  }
  return Status::OK();
}

Status CheckKnnOrder(const KnnCheck& check, const PairList& ordered) {
  for (size_t i = 1; i < ordered.size(); ++i) {
    const Pair& a = ordered[i - 1];
    const Pair& b = ordered[i];
    if (b.first < a.first)
      return Fail(check.label, "rows out of order at " + PairText(b));
    if (b.first != a.first) continue;
    const double da = check.distance(a.first, a.second);
    const double db = check.distance(b.first, b.second);
    const double slack = std::max(da, db) * kBorderBand + 1e-12;
    if (da > db + slack || (da == db && a.second > b.second))
      return Fail(check.label, "row " + std::to_string(a.first) +
                                   " not ordered by (distance, id) at " +
                                   PairText(b));
  }
  return Status::OK();
}

bool PlantWrongPair(const EpsJoinCheck& check, PairList* pairs) {
  if (pairs->empty()) return false;
  const size_t mid = pairs->size() / 2;
  const uint64_t r = (*pairs)[mid].first;
  const uint64_t gap = std::max<uint64_t>(check.self_gap, 1);
  for (uint64_t far = 0; far < check.s_count; ++far) {
    Pair bad{r, far};
    if (check.self_join) {
      if (far + gap <= r) {
        bad = {far, r};
      } else if (r + gap > far) {
        continue;
      }
    }
    if (check.verdict(bad.first, bad.second) != Verdict::kOut) continue;
    const bool sorted = std::is_sorted(pairs->begin(), pairs->end());
    (*pairs)[mid] = bad;
    if (sorted) std::sort(pairs->begin(), pairs->end());
    return true;
  }
  return false;
}

bool PlantDroppedPair(const EpsJoinCheck& check, PairList* pairs) {
  // A row stays a completeness row after the drop if it is in the random
  // sample or still reports another pair (the drawn rows are unchanged).
  const std::vector<uint64_t> rows = CompletenessRows(check, *pairs);
  std::unordered_map<uint64_t, size_t> per_row;
  for (const Pair& p : *pairs) ++per_row[p.first];
  for (size_t i = 0; i < pairs->size(); ++i) {
    const uint64_t r = (*pairs)[i].first;
    if (!std::binary_search(rows.begin(), rows.end(), r)) continue;
    if (per_row[r] < 2 && !std::binary_search(check.sample.begin(),
                                              check.sample.end(), r))
      continue;
    pairs->erase(pairs->begin() + static_cast<ptrdiff_t>(i));
    return true;
  }
  return false;
}

bool PlantDuplicatePair(PairList* pairs) {
  if (pairs->empty()) return false;
  pairs->push_back(pairs->front());
  return true;
}

}  // namespace perfbench
