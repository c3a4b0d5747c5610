#include "core/join_driver.h"

#include <memory>
#include <optional>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/reference_join.h"
#include "data/generators.h"
#include "data/sequence_dataset.h"
#include "io/simulated_disk.h"
#include "test_util.h"

namespace pmjoin {
namespace {

const Algorithm kSequenceAlgorithms[] = {
    Algorithm::kNlj, Algorithm::kPmNlj, Algorithm::kRandomSc,
    Algorithm::kSc,  Algorithm::kCc,    Algorithm::kEgo,
    Algorithm::kBfrj,
};

const Algorithm kVectorAlgorithms[] = {
    Algorithm::kNlj, Algorithm::kPmNlj, Algorithm::kRandomSc,
    Algorithm::kSc,  Algorithm::kCc,    Algorithm::kEgo,
    Algorithm::kBfrj, Algorithm::kPbsm,
};

JoinOptions BaseOptions(Algorithm algorithm, uint32_t buffer) {
  JoinOptions options;
  options.algorithm = algorithm;
  options.buffer_pages = buffer;
  options.page_size_bytes = 64;
  // CI's sharded job (PMJOIN_TEST_SHARDS=4) re-runs every reference
  // comparison with the shard coordinator in the loop; results must not
  // change. Engines without clusters ignore the knob.
  options.shards = testing_util::TestShardCount();
  return options;
}

class VectorDriverTest : public ::testing::TestWithParam<Algorithm> {
 protected:
  VectorDriverTest() {
    r_raw_ = GenRoadNetwork(300, 3);
    s_raw_ = GenRoadNetwork(250, 4);
    VectorDataset::Options ds_options;
    ds_options.page_size_bytes = 64;
    r_.emplace(VectorDataset::Build(&disk_, "r", r_raw_, ds_options).value());
    s_.emplace(VectorDataset::Build(&disk_, "s", s_raw_, ds_options).value());
  }

  std::unique_ptr<StorageBackend> disk_holder_ =
      testing_util::MakeTestBackend();
  StorageBackend& disk_ = *disk_holder_;
  VectorData r_raw_, s_raw_;
  std::optional<VectorDataset> r_, s_;
};

TEST_P(VectorDriverTest, CrossJoinMatchesReference) {
  JoinDriver driver(&disk_);
  CollectingSink sink;
  const double eps = 0.05;
  auto report =
      driver.RunVector(*r_, *s_, eps, BaseOptions(GetParam(), 12), &sink);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  CollectingSink ref;
  ReferenceVectorJoin(r_raw_, s_raw_, eps, Norm::kL2, false, &ref);
  EXPECT_EQ(sink.Sorted(), ref.Sorted());
  EXPECT_GT(sink.pairs().size(), 0u);
  EXPECT_EQ(report->result_pairs, sink.pairs().size());
  EXPECT_GT(report->io.pages_read, 0u);
  EXPECT_GT(report->TotalSeconds(), 0.0);
}

TEST_P(VectorDriverTest, SelfJoinMatchesReference) {
  JoinDriver driver(&disk_);
  CollectingSink sink;
  const double eps = 0.04;
  auto report =
      driver.RunVector(*r_, *r_, eps, BaseOptions(GetParam(), 12), &sink);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  CollectingSink ref;
  ReferenceVectorJoin(r_raw_, r_raw_, eps, Norm::kL2, true, &ref);
  EXPECT_EQ(sink.Sorted(), ref.Sorted());
  EXPECT_GT(sink.pairs().size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, VectorDriverTest,
                         ::testing::ValuesIn(kVectorAlgorithms),
                         [](const ::testing::TestParamInfo<Algorithm>& i) {
                           std::string name = AlgorithmName(i.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

class TimeSeriesDriverTest : public ::testing::TestWithParam<Algorithm> {
 protected:
  TimeSeriesDriverTest() {
    x_ = GenRandomWalk(400, 17);
    y_ = GenRandomWalk(300, 18);
    xs_.emplace(TimeSeriesStore::Build(&disk_, "x", x_, 16, 4,
                                       60 * sizeof(float))
                    .value());
    ys_.emplace(TimeSeriesStore::Build(&disk_, "y", y_, 16, 4,
                                       60 * sizeof(float))
                    .value());
  }

  std::unique_ptr<StorageBackend> disk_holder_ =
      testing_util::MakeTestBackend();
  StorageBackend& disk_ = *disk_holder_;
  std::vector<float> x_, y_;
  std::optional<TimeSeriesStore> xs_, ys_;
};

TEST_P(TimeSeriesDriverTest, CrossJoinMatchesReference) {
  JoinDriver driver(&disk_);
  CollectingSink sink;
  const double eps = 2.0;
  auto report = driver.RunTimeSeries(*xs_, *ys_, eps,
                                     BaseOptions(GetParam(), 12), &sink);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  CollectingSink ref;
  ReferenceTimeSeriesJoin(x_, y_, 16, eps, false, &ref);
  EXPECT_EQ(sink.Sorted(), ref.Sorted());
  EXPECT_GT(sink.pairs().size(), 0u);
}

TEST_P(TimeSeriesDriverTest, SelfJoinMatchesReference) {
  JoinDriver driver(&disk_);
  CollectingSink sink;
  const double eps = 1.0;
  auto report = driver.RunTimeSeries(*xs_, *xs_, eps,
                                     BaseOptions(GetParam(), 12), &sink);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  CollectingSink ref;
  ReferenceTimeSeriesJoin(x_, x_, 16, eps, true, &ref);
  EXPECT_EQ(sink.Sorted(), ref.Sorted());
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, TimeSeriesDriverTest,
                         ::testing::ValuesIn(kSequenceAlgorithms),
                         [](const ::testing::TestParamInfo<Algorithm>& i) {
                           std::string name = AlgorithmName(i.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

class StringDriverTest : public ::testing::TestWithParam<Algorithm> {
 protected:
  StringDriverTest() {
    GenDnaPair(500, 400, 23, &a_, &b_, 0.5, 0.01);
    // Tiny test sequences land in single (different) composition regimes,
    // so plant explicit homologous segments to make the cross join
    // non-empty: copy two chunks of a into b with one mutation each.
    Rng rng(99);
    for (size_t chunk = 0; chunk < 2; ++chunk) {
      const size_t src = 50 + chunk * 180;
      const size_t dst = 80 + chunk * 150;
      for (size_t i = 0; i < 60; ++i) b_[dst + i] = a_[src + i];
      b_[dst + rng.Uniform(60)] = static_cast<uint8_t>(rng.Uniform(4));
    }
    as_.emplace(
        StringSequenceStore::Build(&disk_, "a", a_, 4, 12, 64).value());
    bs_.emplace(
        StringSequenceStore::Build(&disk_, "b", b_, 4, 12, 64).value());
  }

  std::unique_ptr<StorageBackend> disk_holder_ =
      testing_util::MakeTestBackend();
  StorageBackend& disk_ = *disk_holder_;
  std::vector<uint8_t> a_, b_;
  std::optional<StringSequenceStore> as_, bs_;
};

TEST_P(StringDriverTest, CrossJoinMatchesReference) {
  JoinDriver driver(&disk_);
  CollectingSink sink;
  const uint32_t k = 2;
  auto report =
      driver.RunString(*as_, *bs_, k, BaseOptions(GetParam(), 12), &sink);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  CollectingSink ref;
  ReferenceStringJoin(a_, b_, 12, k, false, &ref);
  EXPECT_EQ(sink.Sorted(), ref.Sorted());
  EXPECT_GT(sink.pairs().size(), 0u);
}

TEST_P(StringDriverTest, SelfJoinMatchesReference) {
  JoinDriver driver(&disk_);
  CollectingSink sink;
  const uint32_t k = 1;
  auto report =
      driver.RunString(*as_, *as_, k, BaseOptions(GetParam(), 12), &sink);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  CollectingSink ref;
  ReferenceStringJoin(a_, a_, 12, k, true, &ref);
  EXPECT_EQ(sink.Sorted(), ref.Sorted());
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, StringDriverTest,
                         ::testing::ValuesIn(kSequenceAlgorithms),
                         [](const ::testing::TestParamInfo<Algorithm>& i) {
                           std::string name = AlgorithmName(i.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });


TEST(JoinDriverTest, SequenceHierarchicalAndFlatMatricesAgree) {
  SimulatedDisk disk;
  std::vector<uint8_t> a = GenDnaSequence(2500, 91, 0.5, 0.01, 0.05);
  auto store = StringSequenceStore::Build(&disk, "a", a, 4, 12, 64);
  ASSERT_TRUE(store.ok());
  JoinDriver driver(&disk);
  JoinOptions hier = BaseOptions(Algorithm::kSc, 12);
  JoinOptions flat = hier;
  flat.hierarchical_matrix = false;
  CollectingSink hier_sink, flat_sink;
  auto x = driver.RunString(*store, *store, 1, hier, &hier_sink);
  auto y = driver.RunString(*store, *store, 1, flat, &flat_sink);
  ASSERT_TRUE(x.ok());
  ASSERT_TRUE(y.ok());
  EXPECT_EQ(x->marked_entries, y->marked_entries);
  EXPECT_EQ(hier_sink.Sorted(), flat_sink.Sorted());
}

TEST(JoinDriverTest, TimeSeriesHierarchicalAndFlatMatricesAgree) {
  SimulatedDisk disk;
  const std::vector<float> x_vals = GenRandomWalk(600, 93);
  auto store = TimeSeriesStore::Build(&disk, "x", x_vals, 16, 4,
                                      60 * sizeof(float));
  ASSERT_TRUE(store.ok());
  JoinDriver driver(&disk);
  JoinOptions hier = BaseOptions(Algorithm::kSc, 12);
  JoinOptions flat = hier;
  flat.hierarchical_matrix = false;
  CollectingSink hier_sink, flat_sink;
  auto a = driver.RunTimeSeries(*store, *store, 1.0, hier, &hier_sink);
  auto b = driver.RunTimeSeries(*store, *store, 1.0, flat, &flat_sink);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->marked_entries, b->marked_entries);
  EXPECT_EQ(hier_sink.Sorted(), flat_sink.Sorted());
}

TEST(JoinDriverTest, ReusedDriverSeesStoreRebuiltAtSameAddress) {
  // The driver caches each sequence store's page tree. A store destroyed
  // and rebuilt in place has the old store's address but new pages, so a
  // cache keyed by address would build the matrix from the old tree.
  std::unique_ptr<StorageBackend> disk = testing_util::MakeTestBackend();
  JoinOptions options = BaseOptions(Algorithm::kSc, 8);
  options.page_size_bytes = 1024;
  const double eps = 0.2;
  std::optional<TimeSeriesStore> store;
  store.emplace(TimeSeriesStore::Build(disk.get(), "first",
                                       GenRandomWalk(4000, 1), 64, 8, 1024)
                    .value());
  JoinDriver reused(disk.get());
  CountingSink first_sink;
  ASSERT_TRUE(
      reused.RunTimeSeries(*store, *store, eps, options, &first_sink).ok());

  std::vector<float> shifted = GenRandomWalk(4000, 2);
  for (float& v : shifted) v += 50.0f;
  store.reset();
  store.emplace(TimeSeriesStore::Build(disk.get(), "second", shifted, 64, 8,
                                       1024)
                    .value());
  CollectingSink reused_sink;
  auto reused_report =
      reused.RunTimeSeries(*store, *store, eps, options, &reused_sink);
  ASSERT_TRUE(reused_report.ok()) << reused_report.status().ToString();

  JoinDriver fresh(disk.get());
  CollectingSink fresh_sink;
  auto fresh_report =
      fresh.RunTimeSeries(*store, *store, eps, options, &fresh_sink);
  ASSERT_TRUE(fresh_report.ok()) << fresh_report.status().ToString();
  EXPECT_GT(fresh_sink.pairs().size(), 0u);
  EXPECT_EQ(reused_sink.Sorted(), fresh_sink.Sorted());
  EXPECT_EQ(reused_report->marked_entries, fresh_report->marked_entries);
}

TEST(JoinDriverTest, PbsmRejectedForSequenceData) {
  SimulatedDisk disk;
  const std::vector<uint8_t> a = GenDnaSequence(300, 81);
  auto store = StringSequenceStore::Build(&disk, "a", a, 4, 12, 64);
  ASSERT_TRUE(store.ok());
  JoinDriver driver(&disk);
  CountingSink sink;
  auto report = driver.RunString(*store, *store, 1,
                                 BaseOptions(Algorithm::kPbsm, 8), &sink);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsUnimplemented());
}

TEST(JoinDriverTest, AlgorithmNames) {
  EXPECT_EQ(AlgorithmName(Algorithm::kNlj), "NLJ");
  EXPECT_EQ(AlgorithmName(Algorithm::kPmNlj), "pm-NLJ");
  EXPECT_EQ(AlgorithmName(Algorithm::kRandomSc), "rand-SC");
  EXPECT_EQ(AlgorithmName(Algorithm::kSc), "SC");
  EXPECT_EQ(AlgorithmName(Algorithm::kCc), "CC");
  EXPECT_EQ(AlgorithmName(Algorithm::kEgo), "EGO");
  EXPECT_EQ(AlgorithmName(Algorithm::kBfrj), "BFRJ");
  EXPECT_EQ(AlgorithmName(Algorithm::kPbsm), "PBSM");
}

TEST(JoinDriverTest, ScBeatsNljOnModeledCost) {
  // The headline claim at test scale: SC's modeled total is below NLJ's
  // when the data is much larger than the buffer.
  SimulatedDisk disk;
  const VectorData r_raw = GenRoadNetwork(2000, 31);
  const VectorData s_raw = GenRoadNetwork(1500, 32);
  VectorDataset::Options ds_options;
  ds_options.page_size_bytes = 64;
  auto r = VectorDataset::Build(&disk, "r", r_raw, ds_options);
  auto s = VectorDataset::Build(&disk, "s", s_raw, ds_options);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(s.ok());

  JoinDriver driver(&disk);
  CountingSink nlj_sink, sc_sink;
  auto nlj = driver.RunVector(*r, *s, 0.01,
                              BaseOptions(Algorithm::kNlj, 16), &nlj_sink);
  auto sc = driver.RunVector(*r, *s, 0.01,
                             BaseOptions(Algorithm::kSc, 16), &sc_sink);
  ASSERT_TRUE(nlj.ok());
  ASSERT_TRUE(sc.ok());
  EXPECT_EQ(nlj_sink.count(), sc_sink.count());
  EXPECT_LT(sc->TotalSeconds(), nlj->TotalSeconds());
  EXPECT_LT(sc->io.pages_read, nlj->io.pages_read);
}

TEST(JoinDriverTest, HierarchicalAndFlatMatricesAgree) {
  SimulatedDisk disk;
  const VectorData r_raw = GenRoadNetwork(500, 41);
  const VectorData s_raw = GenRoadNetwork(400, 42);
  VectorDataset::Options ds_options;
  ds_options.page_size_bytes = 64;
  auto r = VectorDataset::Build(&disk, "r", r_raw, ds_options);
  auto s = VectorDataset::Build(&disk, "s", s_raw, ds_options);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(s.ok());

  JoinDriver driver(&disk);
  JoinOptions hier = BaseOptions(Algorithm::kSc, 12);
  JoinOptions flat = hier;
  flat.hierarchical_matrix = false;
  CollectingSink hier_sink, flat_sink;
  auto a = driver.RunVector(*r, *s, 0.05, hier, &hier_sink);
  auto b = driver.RunVector(*r, *s, 0.05, flat, &flat_sink);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->marked_entries, b->marked_entries);
  EXPECT_EQ(hier_sink.Sorted(), flat_sink.Sorted());
}

TEST(JoinDriverTest, ReportBreakdownConsistent) {
  SimulatedDisk disk;
  const VectorData raw = GenRoadNetwork(300, 51);
  VectorDataset::Options ds_options;
  ds_options.page_size_bytes = 64;
  auto ds = VectorDataset::Build(&disk, "r", raw, ds_options);
  ASSERT_TRUE(ds.ok());

  JoinDriver driver(&disk);
  CountingSink sink;
  auto report = driver.RunVector(*ds, *ds, 0.05,
                                 BaseOptions(Algorithm::kSc, 10), &sink);
  ASSERT_TRUE(report.ok());
  EXPECT_NEAR(report->TotalSeconds(),
              report->io_seconds + report->cpu_join_seconds +
                  report->preprocess_seconds,
              1e-12);
  EXPECT_GT(report->preprocess_seconds, 0.0);  // SC clustering happened.
  EXPECT_GT(report->marked_entries, 0u);
  EXPECT_GT(report->num_clusters, 0u);
  EXPECT_GT(report->matrix_selectivity, 0.0);
}

TEST(JoinDriverTest, NljHasNoPreprocessCost) {
  SimulatedDisk disk;
  const VectorData raw = GenRoadNetwork(200, 61);
  VectorDataset::Options ds_options;
  ds_options.page_size_bytes = 64;
  auto ds = VectorDataset::Build(&disk, "r", raw, ds_options);
  ASSERT_TRUE(ds.ok());
  JoinDriver driver(&disk);
  CountingSink sink;
  auto report = driver.RunVector(*ds, *ds, 0.05,
                                 BaseOptions(Algorithm::kNlj, 10), &sink);
  ASSERT_TRUE(report.ok());
  EXPECT_DOUBLE_EQ(report->preprocess_seconds, 0.0);
  EXPECT_EQ(report->ops.mbr_tests, 0u);  // Oracle build is uncharged.
}

TEST(JoinDriverTest, CcIoAtMostScIoOnSequenceData) {
  // Table 2's qualitative claim: CC (the cost-based lower bound) is no
  // worse than SC on I/O for sequence self joins.
  SimulatedDisk disk;
  DnaStoreParams params;
  params.length = 4000;
  params.seed = 71;
  params.window_len = 12;
  params.page_size_bytes = 64;
  auto store = BuildDnaStore(&disk, "dna", params);
  ASSERT_TRUE(store.ok());

  JoinDriver driver(&disk);
  CountingSink sc_sink, cc_sink;
  auto sc = driver.RunString(*store, *store, 1,
                             BaseOptions(Algorithm::kSc, 16), &sc_sink);
  auto cc = driver.RunString(*store, *store, 1,
                             BaseOptions(Algorithm::kCc, 16), &cc_sink);
  ASSERT_TRUE(sc.ok());
  ASSERT_TRUE(cc.ok());
  EXPECT_EQ(sc_sink.count(), cc_sink.count());
  // Allow slack: CC is a heuristic lower bound, not a guarantee, and at
  // this tiny scale its rectangle growth can lose to SC's column sweep.
  EXPECT_LE(cc->io_seconds, sc->io_seconds * 2.5);
}

}  // namespace
}  // namespace pmjoin
