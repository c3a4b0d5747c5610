// The three batch workloads. A round is a batch of independent joins, each
// on its own seeded inputs; one operation is one full join through
// JoinDriver. Summing a round over several independent inputs is what keeps
// the round's work steady from one seed to the next.
//
//   landsat_file  60-d clusters R x S, L2 ε-join, SC, file backend,
//                 2 executor threads + 1 I/O thread
//   dna_strings   DNA subsequence self-join, edit distance <= 5, SC, sim
//   walk_series   random-walk R x S subsequence ε-join, PAA pages, SC, sim
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>

#include "bench.h"
#include "checks.h"
#include "core/plane_sweep.h"
#include "data/generators.h"
#include "data/vector_dataset.h"
#include "index/rstar_tree.h"
#include "io/file_backend.h"
#include "io/simulated_disk.h"
#include "layers.h"
#include "obs/span.h"
#include "seq/sequence_store.h"

namespace perfbench {
namespace {

using pmjoin::Algorithm;
using pmjoin::JoinDriver;
using pmjoin::JoinOptions;
using pmjoin::JoinReport;
using pmjoin::OpCounters;
using pmjoin::PairSink;
using pmjoin::Result;
using pmjoin::Status;
using pmjoin::StorageBackend;

/// Salt for the checks' row sample, so it is not the input seed itself.
constexpr uint64_t kSampleSalt = 0x5EED5A3F1E;

/// Seed of unit `i` of a workload run with `seed`.
uint64_t UnitSeed(uint64_t seed, size_t i) { return seed * 1000003 + i; }

StorageBackend::MeasuredIo MeasuredDelta(const StorageBackend::MeasuredIo& a,
                                         const StorageBackend::MeasuredIo& b) {
  StorageBackend::MeasuredIo d;
  d.read_syscalls = a.read_syscalls - b.read_syscalls;
  d.write_syscalls = a.write_syscalls - b.write_syscalls;
  d.read_bytes = a.read_bytes - b.read_bytes;
  d.write_bytes = a.write_bytes - b.write_bytes;
  d.sync_calls = a.sync_calls - b.sync_calls;
  d.checksum_checks = a.checksum_checks - b.checksum_checks;
  d.fadvise_calls = a.fadvise_calls - b.fadvise_calls;
  return d;
}

/// Page tree over a sequence store's page MBRs, as the driver builds it.
pmjoin::RStarTree PageTree(const std::vector<pmjoin::Mbr>& mbrs) {
  std::vector<pmjoin::RStarTree::Entry> leaves;
  leaves.reserve(mbrs.size());
  for (uint32_t p = 0; p < mbrs.size(); ++p) leaves.push_back({mbrs[p], p});
  return pmjoin::RStarTree::BulkLoadStr(mbrs.empty() ? 1 : mbrs[0].dims(),
                                        std::move(leaves));
}

/// The shared skeleton: operation i joins unit i through JoinDriver; the
/// layer round runs every unit's join as individual layer calls.
class BatchWorkload : public Workload {
 public:
  size_t RoundSize() const override { return units(); }

  Status RunOp(size_t i, OpOutcome* out, PairList* pairs,
               double* latency_s) override {
    RecordingSink recording;
    DigestSink digesting;
    PairSink* sink = pairs != nullptr ? static_cast<PairSink*>(&recording)
                                      : &digesting;
    const double t0 = Now();
    Result<JoinReport> report = RunJoin(i, sink);
    *latency_s = Now() - t0;
    if (!report.ok()) return report.status();
    out->digest = pairs != nullptr ? recording.digest() : digesting.digest();
    if (pairs != nullptr) *pairs = recording.TakePairs();
    out->io = report->io;
    out->ops = report->ops;
    out->modeled_s = report->TotalSeconds();
    return Status::OK();
  }

  Status LayerRound(bool traced, std::vector<OpOutcome>* outcomes,
                    MetricSet* layers, double* round_s) override {
    const double t0 = Now();
    StorageBackend* d = disk();
    LayerLedger ledger;
    const StorageBackend::MeasuredIo measured_before = d->measured();
    if (traced) pmjoin::obs::Tracer::Get().StartSession(d);
    Status st;
    for (size_t i = 0; i < units() && st.ok(); ++i) {
      const pmjoin::IoStats io_before = d->stats();
      OpCounters ops;
      DigestSink sink;
      st = RunPipeline(Pipeline(i), &sink, &ops, traced ? &ledger : nullptr);
      OpOutcome outcome;
      outcome.digest = sink.digest();
      outcome.io = d->stats().Delta(io_before);
      outcome.ops = ops;
      outcome.modeled_s = ModeledSeconds(outcome.io, ops, *d);
      outcomes->push_back(outcome);
      ledger.io += outcome.io;
      ledger.ops += ops;
    }
    if (traced) pmjoin::obs::Tracer::Get().StopSession();
    // The benchmark's own analysis of the session is not tracing overhead.
    *round_s = Now() - t0;
    PMJOIN_RETURN_IF_ERROR(st);
    if (traced) {
      ledger.FoldSession(pmjoin::obs::Tracer::Get().TakeEvents());
      ledger.measured = MeasuredDelta(d->measured(), measured_before);
      ledger.Export(layers);
    }
    return Status::OK();
  }

  Status Verify(const std::vector<PairList>& lists) override {
    if (lists.size() != units())
      return Status::Internal("wrong number of result lists");
    for (size_t i = 0; i < units(); ++i)
      PMJOIN_RETURN_IF_ERROR(CheckEpsJoin(Check(i), lists[i]));
    return Status::OK();
  }

  /// Faults planted into unit 0's pairs.
  std::vector<Planted> PlantFaults(
      const std::vector<PairList>& lists) override {
    std::vector<Planted> out;
    const EpsJoinCheck check = Check(0);
    const auto plant = [&](const char* what, auto&& mutate) {
      std::vector<PairList> copy = lists;
      if (mutate(&copy[0])) out.push_back({what, std::move(copy)});
    };
    plant("wrong pair",
          [&](PairList* pairs) { return PlantWrongPair(check, pairs); });
    plant("dropped pair", [&](PairList* pairs) {
      return PlantDroppedPair(check, pairs);
    });
    plant("duplicate pair",
          [&](PairList* pairs) { return PlantDuplicatePair(pairs); });
    if (check.self_join) {
      plant("self-join convention", [&](PairList* pairs) {
        if (pairs->empty()) return false;
        std::swap(pairs->front().first, pairs->front().second);
        return true;
      });
    }
    return out;
  }

 protected:
  virtual size_t units() const = 0;
  virtual Result<JoinReport> RunJoin(size_t i, PairSink* sink) = 0;
  /// The layer-by-layer form of RunJoin(i)'s join.
  virtual PipelineSpec Pipeline(size_t i) = 0;
  virtual EpsJoinCheck Check(size_t i) const = 0;
  virtual StorageBackend* disk() = 0;
};

// ---------------------------------------------------------------- landsat

struct LandsatParams {
  size_t units;     ///< Independent R x S pairs per round.
  size_t per_side;  ///< Records in R and in S (one draw of 2 * per_side).
  size_t clusters;  ///< Mixture components of each draw.
  double eps;
  uint32_t buffer_pages;
  size_t sample;  ///< R rows per unit checked by brute force.
};

LandsatParams LandsatFor(Scale scale) {
  if (scale == Scale::kSmoke) return {2, 1500, 32, 0.30, 32, 30};
  return {8, 4500, 32, 0.30, 64, 30};
}

class LandsatFile : public BatchWorkload {
 public:
  static constexpr size_t kDims = 60;

  LandsatFile(uint64_t seed, Scale scale, std::string pages_dir)
      : seed_(seed), p_(LandsatFor(scale)), dir_(std::move(pages_dir)) {}

  ~LandsatFile() override {
    units_.clear();
    disk_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  Status Setup(MetricSet* layers) override {
    // Each unit is one draw split in halves: R and S share one cluster
    // mixture, as the paper's Landsat splits do (two draws with different
    // seeds come from disjoint mixtures and join to nothing).
    double t = Now();
    for (size_t i = 0; i < p_.units; ++i) {
      auto unit = std::make_unique<Unit>();
      pmjoin::VectorData all = pmjoin::GenCorrelatedClusters(
          2 * p_.per_side, kDims, UnitSeed(seed_, i), p_.clusters);
      unit->r_data.dims = unit->s_data.dims = kDims;
      const auto mid = all.values.begin() + p_.per_side * kDims;
      unit->r_data.values.assign(all.values.begin(), mid);
      unit->s_data.values.assign(mid, all.values.end());
      units_.push_back(std::move(unit));
    }
    layers->Set("data.generate_s", Now() - t, "s");

    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    std::filesystem::create_directories(dir_, ec);
    if (ec) return Status::IoError("cannot create " + dir_);
    {
      t = Now();
      PMJOIN_ASSIGN_OR_RETURN(std::unique_ptr<pmjoin::FileBackend> disk,
                              pmjoin::FileBackend::Open(dir_));
      std::vector<pmjoin::VectorDataset> built;
      for (size_t i = 0; i < units_.size(); ++i) {
        for (const pmjoin::VectorData* data :
             {&units_[i]->r_data, &units_[i]->s_data}) {
          PMJOIN_ASSIGN_OR_RETURN(
              pmjoin::VectorDataset ds,
              pmjoin::VectorDataset::Build(disk.get(), Name(built.size()),
                                           *data, {}));
          built.push_back(std::move(ds));
        }
      }
      layers->Set("data.build_s", Now() - t, "s");
      // Persist fsyncs here, in set-up, and never in a timed section.
      t = Now();
      for (const pmjoin::VectorDataset& ds : built)
        PMJOIN_RETURN_IF_ERROR(ds.Persist(disk.get()));
      PMJOIN_RETURN_IF_ERROR(disk->Sync());
      layers->Set("io.persist_s", Now() - t, "s");
    }
    t = Now();
    PMJOIN_ASSIGN_OR_RETURN(disk_, pmjoin::FileBackend::Open(dir_));
    for (size_t i = 0; i < units_.size(); ++i) {
      Unit& u = *units_[i];
      PMJOIN_ASSIGN_OR_RETURN(pmjoin::VectorDataset r,
                              pmjoin::VectorDataset::Open(disk_.get(),
                                                          Name(2 * i)));
      PMJOIN_ASSIGN_OR_RETURN(pmjoin::VectorDataset s,
                              pmjoin::VectorDataset::Open(disk_.get(),
                                                          Name(2 * i + 1)));
      u.r.emplace(std::move(r));
      u.s.emplace(std::move(s));
      u.joiner.emplace(&*u.r, &*u.s, p_.eps, pmjoin::Norm::kL2, false);
      u.input.r_file = u.r->file_id();
      u.input.s_file = u.s->file_id();
      u.input.r_pages = u.r->num_pages();
      u.input.s_pages = u.s->num_pages();
      u.input.joiner = &*u.joiner;
    }
    layers->Set("io.open_s", Now() - t, "s");
    driver_.emplace(disk_.get());
    return Status::OK();
  }

 protected:
  size_t units() const override { return units_.size(); }

  Result<JoinReport> RunJoin(size_t i, PairSink* sink) override {
    return driver_->RunVector(*units_[i]->r, *units_[i]->s, p_.eps, Options(),
                              sink);
  }

  PipelineSpec Pipeline(size_t i) override {
    const Unit& u = *units_[i];
    PipelineSpec spec;
    spec.input = &u.input;
    spec.build_matrix = [this, &u](OpCounters* ops) {
      return pmjoin::BuildPredictionMatrixHierarchical(
          u.r->tree(), u.s->tree(), u.r->num_pages(), u.s->num_pages(),
          p_.eps, pmjoin::Norm::kL2, JoinOptions().filter_iterations, ops);
    };
    const JoinOptions options = Options();
    spec.algorithm = options.algorithm;
    spec.buffer_pages = options.buffer_pages;
    spec.num_threads = options.num_threads;
    spec.io_threads = options.io_threads;
    spec.disk = disk_.get();
    return spec;
  }

  EpsJoinCheck Check(size_t i) const override {
    const Unit& u = *units_[i];
    return VectorEpsCheck("landsat_file unit " + std::to_string(i),
                          u.r_data.values.data(), p_.per_side,
                          u.s_data.values.data(), p_.per_side, kDims, p_.eps,
                          /*self_join=*/false, p_.sample,
                          UnitSeed(seed_, i) ^ kSampleSalt);
  }

  StorageBackend* disk() override { return disk_.get(); }

 private:
  struct Unit {
    pmjoin::VectorData r_data, s_data;
    std::optional<pmjoin::VectorDataset> r, s;
    std::optional<pmjoin::VectorPairJoiner> joiner;
    pmjoin::JoinInput input;
  };

  /// Dataset name of R (even index) or S (odd index) of unit index / 2.
  static std::string Name(size_t index) {
    return "landsat-" + std::to_string(index / 2) +
           (index % 2 == 0 ? "-r" : "-s");
  }

  JoinOptions Options() const {
    JoinOptions options;
    options.algorithm = Algorithm::kSc;
    options.buffer_pages = p_.buffer_pages;
    options.num_threads = 2;
    options.io_threads = 1;
    return options;
  }

  uint64_t seed_;
  LandsatParams p_;
  std::string dir_;
  std::vector<std::unique_ptr<Unit>> units_;
  std::unique_ptr<pmjoin::FileBackend> disk_;
  std::optional<JoinDriver> driver_;
};

// -------------------------------------------------------------------- dna

struct DnaParams {
  size_t units;       ///< Independent sequences per round.
  size_t symbols;     ///< Length of each sequence.
  size_t copies;      ///< Copies of the repeat planted in each sequence.
  size_t repeat_len;  ///< Length of the repeat.
  double mutation_rate;
  uint32_t window;
  uint32_t max_edits;
  uint32_t page_bytes;
  uint32_t buffer_pages;
  size_t sample;  ///< Windows per unit checked by brute force.
};

DnaParams DnaFor(Scale scale) {
  if (scale == Scale::kSmoke)
    return {2, 1200, 2, 550, 0.001, 500, 5, 1024, 64, 8};
  return {16, 1200, 2, 550, 0.001, 500, 5, 1024, 64, 8};
}

/// Uniform random bases with `copies` mutated copies of one random repeat,
/// each centred in its own equal slot of the sequence (so the copies are a
/// fixed distance apart and every seed verifies alike many windows). The
/// library's GenDnaSequence draws one composition regime and a few repeat
/// families per few thousand bases, so at sizes one run can join in seconds,
/// its per-sequence join work varies by an order of magnitude from seed to
/// seed; here the filter work is fixed by the length and the verification
/// work by the planted copies.
std::vector<uint8_t> PlantedDna(const DnaParams& p, uint64_t seed) {
  SplitMix rng(seed);
  std::vector<uint8_t> seq(p.symbols);
  for (uint8_t& s : seq) s = static_cast<uint8_t>(rng.Below(4));
  std::vector<uint8_t> repeat(p.repeat_len);
  for (uint8_t& s : repeat) s = static_cast<uint8_t>(rng.Below(4));
  const size_t slot = p.symbols / p.copies;
  for (size_t c = 0; c < p.copies; ++c) {
    const size_t at = c * slot + (slot - p.repeat_len) / 2;
    for (size_t j = 0; j < p.repeat_len; ++j) {
      const bool mutate = rng.Below(1000000) < p.mutation_rate * 1000000;
      seq[at + j] = mutate ? static_cast<uint8_t>(rng.Below(4)) : repeat[j];
    }
  }
  return seq;
}

class DnaStrings : public BatchWorkload {
 public:
  DnaStrings(uint64_t seed, Scale scale) : seed_(seed), p_(DnaFor(scale)) {}

  Status Setup(MetricSet* layers) override {
    double t = Now();
    for (size_t i = 0; i < p_.units; ++i) {
      auto unit = std::make_unique<Unit>();
      unit->symbols = PlantedDna(p_, UnitSeed(seed_, i));
      units_.push_back(std::move(unit));
    }
    layers->Set("data.generate_s", Now() - t, "s");
    t = Now();
    for (size_t i = 0; i < units_.size(); ++i) {
      Unit& u = *units_[i];
      PMJOIN_ASSIGN_OR_RETURN(
          pmjoin::StringSequenceStore store,
          pmjoin::StringSequenceStore::Build(
              &disk_, "dna-" + std::to_string(i), u.symbols,
              /*alphabet_size=*/4, p_.window, p_.page_bytes));
      u.store.emplace(std::move(store));
      u.tree.emplace(PageTree(u.store->page_mbrs()));
      u.joiner.emplace(&*u.store, &*u.store, p_.max_edits, true);
      u.input.r_file = u.input.s_file = u.store->file_id();
      u.input.r_pages = u.input.s_pages = u.store->layout().NumPages();
      u.input.self_join = true;
      u.input.joiner = &*u.joiner;
    }
    layers->Set("data.build_s", Now() - t, "s");
    return Status::OK();
  }

 protected:
  size_t units() const override { return units_.size(); }

  Result<JoinReport> RunJoin(size_t i, PairSink* sink) override {
    const pmjoin::StringSequenceStore& store = *units_[i]->store;
    return driver_.RunString(store, store, p_.max_edits, Options(), sink);
  }

  PipelineSpec Pipeline(size_t i) override {
    const Unit& u = *units_[i];
    PipelineSpec spec;
    spec.input = &u.input;
    spec.build_matrix = [&u](OpCounters* ops) {
      return pmjoin::BuildPredictionMatrixHierarchical(
          *u.tree, *u.tree, u.input.r_pages, u.input.s_pages,
          u.joiner->MatrixThreshold(), pmjoin::Norm::kL1,
          JoinOptions().filter_iterations, ops);
    };
    const JoinOptions options = Options();
    spec.algorithm = options.algorithm;
    spec.buffer_pages = options.buffer_pages;
    spec.disk = &disk_;
    return spec;
  }

  EpsJoinCheck Check(size_t i) const override {
    EpsJoinCheck check;
    check.label = "dna_strings unit " + std::to_string(i);
    const uint32_t len = p_.window;
    const uint32_t k = p_.max_edits;
    const std::vector<uint8_t>& symbols = units_[i]->symbols;
    const uint64_t windows = symbols.size() - len + 1;
    check.r_count = check.s_count = windows;
    check.self_join = true;
    check.self_gap = len;
    const uint8_t* seq = symbols.data();
    check.verdict = [=](uint64_t x, uint64_t y) {
      return EditDistanceAtMost(seq + x, seq + y, len, k) <= k
                 ? Verdict::kIn
                 : Verdict::kOut;
    };
    // Brute force with a sliding symbol-count filter: ED >= L1(counts) / 2,
    // so only windows within 2k in count distance run the DP.
    check.scan = [=](uint64_t x, std::vector<uint64_t>* in,
                     std::vector<uint64_t>*) {
      int64_t want[256] = {}, have[256] = {};
      for (uint32_t j = 0; j < len; ++j) {
        ++want[seq[x + j]];
        ++have[seq[j]];
      }
      int64_t l1 = 0;
      for (int c = 0; c < 256; ++c) l1 += std::abs(want[c] - have[c]);
      const auto shift = [&](uint8_t c, int64_t delta) {
        l1 -= std::abs(want[c] - have[c]);
        have[c] += delta;
        l1 += std::abs(want[c] - have[c]);
      };
      for (uint64_t y = 0; y < windows; ++y) {
        if (y > 0) {
          shift(seq[y - 1], -1);
          shift(seq[y + len - 1], +1);
        }
        if ((y > x ? y - x : x - y) < len || l1 > int64_t(2 * k)) continue;
        if (EditDistanceAtMost(seq + x, seq + y, len, k) <= k)
          in->push_back(y);
      }
    };
    check.sample =
        SampleIds(windows, p_.sample, UnitSeed(seed_, i) ^ kSampleSalt);
    check.sample_seed = (UnitSeed(seed_, i) ^ kSampleSalt) + 1;
    return check;
  }

  StorageBackend* disk() override { return &disk_; }

 private:
  struct Unit {
    std::vector<uint8_t> symbols;
    std::optional<pmjoin::StringSequenceStore> store;
    std::optional<pmjoin::RStarTree> tree;
    std::optional<pmjoin::StringPairJoiner> joiner;
    pmjoin::JoinInput input;
  };

  JoinOptions Options() const {
    JoinOptions options;
    options.algorithm = Algorithm::kSc;
    options.buffer_pages = p_.buffer_pages;
    options.page_size_bytes = p_.page_bytes;
    return options;
  }

  uint64_t seed_;
  DnaParams p_;
  pmjoin::SimulatedDisk disk_;
  JoinDriver driver_{&disk_};
  std::vector<std::unique_ptr<Unit>> units_;
};

// ------------------------------------------------------------------- walk

struct WalkParams {
  size_t units;     ///< Independent R x S pairs per round.
  size_t segments;  ///< Walks concatenated into each of R and S.
  size_t points;    ///< Length of each walk.
  uint32_t window;
  uint32_t paa_dims;
  double eps;
  uint32_t page_bytes;
  uint32_t buffer_pages;
  size_t sample;
};

WalkParams WalkFor(Scale scale) {
  if (scale == Scale::kSmoke) return {2, 4, 500, 32, 8, 0.1, 1024, 64, 20};
  return {32, 16, 500, 32, 8, 0.1, 1024, 64, 20};
}

class WalkSeries : public BatchWorkload {
 public:
  WalkSeries(uint64_t seed, Scale scale) : seed_(seed), p_(WalkFor(scale)) {}

  Status Setup(MetricSet* layers) override {
    // R and S each concatenate short walks that all start at the same
    // level, so every unit's R and S overlap in level the same way; one
    // long walk each would overlap anywhere from fully to not at all.
    double t = Now();
    for (size_t i = 0; i < p_.units; ++i) {
      auto unit = std::make_unique<Unit>();
      for (size_t w = 0; w < p_.segments; ++w) {
        const uint64_t seed = 2 * (UnitSeed(seed_, i) * 1000 + w);
        for (auto [values, salt] : {std::pair{&unit->r_values, 0},
                                    std::pair{&unit->s_values, 1}}) {
          const std::vector<float> walk =
              pmjoin::GenRandomWalk(p_.points, seed + salt);
          values->insert(values->end(), walk.begin(), walk.end());
        }
      }
      units_.push_back(std::move(unit));
    }
    layers->Set("data.generate_s", Now() - t, "s");
    t = Now();
    for (size_t i = 0; i < units_.size(); ++i) {
      Unit& u = *units_[i];
      PMJOIN_ASSIGN_OR_RETURN(
          pmjoin::TimeSeriesStore r,
          pmjoin::TimeSeriesStore::Build(&disk_, "walk-r-" + std::to_string(i),
                                         u.r_values, p_.window, p_.paa_dims,
                                         p_.page_bytes));
      PMJOIN_ASSIGN_OR_RETURN(
          pmjoin::TimeSeriesStore s,
          pmjoin::TimeSeriesStore::Build(&disk_, "walk-s-" + std::to_string(i),
                                         u.s_values, p_.window, p_.paa_dims,
                                         p_.page_bytes));
      u.r.emplace(std::move(r));
      u.s.emplace(std::move(s));
      u.r_tree.emplace(PageTree(u.r->page_mbrs()));
      u.s_tree.emplace(PageTree(u.s->page_mbrs()));
      u.joiner.emplace(&*u.r, &*u.s, p_.eps, false);
      u.input.r_file = u.r->file_id();
      u.input.s_file = u.s->file_id();
      u.input.r_pages = u.r->layout().NumPages();
      u.input.s_pages = u.s->layout().NumPages();
      u.input.joiner = &*u.joiner;
    }
    layers->Set("data.build_s", Now() - t, "s");
    return Status::OK();
  }

 protected:
  size_t units() const override { return units_.size(); }

  Result<JoinReport> RunJoin(size_t i, PairSink* sink) override {
    return driver_.RunTimeSeries(*units_[i]->r, *units_[i]->s, p_.eps,
                                 Options(), sink);
  }

  PipelineSpec Pipeline(size_t i) override {
    const Unit& u = *units_[i];
    PipelineSpec spec;
    spec.input = &u.input;
    spec.build_matrix = [&u](OpCounters* ops) {
      return pmjoin::BuildPredictionMatrixHierarchical(
          *u.r_tree, *u.s_tree, u.input.r_pages, u.input.s_pages,
          u.joiner->MatrixThreshold(), pmjoin::Norm::kL2,
          JoinOptions().filter_iterations, ops);
    };
    const JoinOptions options = Options();
    spec.algorithm = options.algorithm;
    spec.buffer_pages = options.buffer_pages;
    spec.disk = &disk_;
    return spec;
  }

  EpsJoinCheck Check(size_t i) const override {
    EpsJoinCheck check;
    check.label = "walk_series unit " + std::to_string(i);
    const uint32_t len = p_.window;
    const Unit& u = *units_[i];
    check.r_count = u.r_values.size() - len + 1;
    check.s_count = u.s_values.size() - len + 1;
    const float* r = u.r_values.data();
    const float* s = u.s_values.data();
    const double eps = p_.eps;
    const double limit_sq =
        eps * eps * (1.0 + kBorderBand) * (1.0 + kBorderBand);
    const auto verdict = [=](uint64_t x, uint64_t y) {
      const double d2 = WindowL2Squared(r + x, s + y, len, limit_sq);
      return d2 > limit_sq ? Verdict::kOut
                           : DistanceVerdict(std::sqrt(d2), eps);
    };
    check.verdict = verdict;
    const uint64_t s_count = check.s_count;
    check.scan = [=](uint64_t x, std::vector<uint64_t>* in,
                     std::vector<uint64_t>* border) {
      for (uint64_t y = 0; y < s_count; ++y) {
        const Verdict v = verdict(x, y);
        if (v == Verdict::kIn) in->push_back(y);
        if (v == Verdict::kBorder) border->push_back(y);
      }
    };
    check.sample = SampleIds(check.r_count, p_.sample,
                             UnitSeed(seed_, i) ^ kSampleSalt);
    check.sample_seed = (UnitSeed(seed_, i) ^ kSampleSalt) + 1;
    return check;
  }

  StorageBackend* disk() override { return &disk_; }

 private:
  struct Unit {
    std::vector<float> r_values, s_values;
    std::optional<pmjoin::TimeSeriesStore> r, s;
    std::optional<pmjoin::RStarTree> r_tree, s_tree;
    std::optional<pmjoin::TimeSeriesPairJoiner> joiner;
    pmjoin::JoinInput input;
  };

  JoinOptions Options() const {
    JoinOptions options;
    options.algorithm = Algorithm::kSc;
    options.buffer_pages = p_.buffer_pages;
    options.page_size_bytes = p_.page_bytes;
    return options;
  }

  uint64_t seed_;
  WalkParams p_;
  pmjoin::SimulatedDisk disk_;
  JoinDriver driver_{&disk_};
  std::vector<std::unique_ptr<Unit>> units_;
};

}  // namespace

std::unique_ptr<Workload> MakeLandsatFile(uint64_t seed, Scale scale,
                                          const std::string& pages_dir) {
  return std::make_unique<LandsatFile>(seed, scale, pages_dir);
}

std::unique_ptr<Workload> MakeDnaStrings(uint64_t seed, Scale scale) {
  return std::make_unique<DnaStrings>(seed, scale);
}

std::unique_ptr<Workload> MakeWalkSeries(uint64_t seed, Scale scale) {
  return std::make_unique<WalkSeries>(seed, scale);
}

}  // namespace perfbench
