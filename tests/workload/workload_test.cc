// Tests of the YCSB-style workload substrate: item table determinism,
// key choosers, the closed-loop runner and its pacing.

#include <gtest/gtest.h>

#include <map>

#include "workload/generators.h"
#include "workload/item_table.h"
#include "workload/runner.h"

namespace diffindex {
namespace {

class WorkloadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterOptions options;
    options.num_servers = 2;
    options.regions_per_table = 4;
    ASSERT_TRUE(Cluster::Create(options, &cluster_).ok());
  }
  std::unique_ptr<Cluster> cluster_;
};

TEST_F(WorkloadTest, RowKeysAreDeterministicAndSpread) {
  ItemTableOptions options;
  options.num_items = 1000;
  ItemTable items(cluster_.get(), options);
  EXPECT_EQ(items.RowKey(42), items.RowKey(42));
  EXPECT_NE(items.RowKey(1), items.RowKey(2));
  // Keys spread over the hex keyspace: every first hex digit appears.
  std::map<char, int> first_digit;
  for (uint64_t id = 0; id < 1000; id++) {
    first_digit[items.RowKey(id)[0]]++;
  }
  EXPECT_EQ(first_digit.size(), 16u);
}

TEST_F(WorkloadTest, TitleAndPriceAreVersioned) {
  ItemTableOptions options;
  ItemTable items(cluster_.get(), options);
  EXPECT_NE(items.TitleValue(1, 0), items.TitleValue(1, 1));
  EXPECT_NE(items.TitleValue(1, 0), items.TitleValue(2, 0));
  EXPECT_LT(items.PriceNumeric(1, 0), options.price_domain);
}

TEST_F(WorkloadTest, MakeRowHasTenColumns) {
  ItemTableOptions options;
  ItemTable items(cluster_.get(), options);
  Random rng(1);
  auto cells = items.MakeRow(7, 0, &rng);
  EXPECT_EQ(cells.size(), 10u);  // title + price + 8 filler columns
  EXPECT_EQ(cells[0].column, ItemTable::kTitleColumn);
  EXPECT_EQ(cells[1].column, ItemTable::kPriceColumn);
  EXPECT_EQ(cells[2].value.size(), 100u);
}

TEST_F(WorkloadTest, CreateAndLoadMakesRowsQueryable) {
  ItemTableOptions options;
  options.num_items = 50;
  ItemTable items(cluster_.get(), options);
  ASSERT_TRUE(items.Create().ok());
  auto client = cluster_->NewClient();
  ASSERT_TRUE(items.Load(client.get()).ok());
  RowResult row;
  ASSERT_TRUE(
      client->GetRow("item", items.RowKey(7), kMaxTimestamp, &row).ok());
  EXPECT_TRUE(row.found);
  EXPECT_EQ(row.cells.size(), 10u);
}

TEST_F(WorkloadTest, RunnerExecutesRequestedOperations) {
  ItemTableOptions item_options;
  item_options.num_items = 200;
  ItemTable items(cluster_.get(), item_options);
  ASSERT_TRUE(items.Create().ok());

  RunnerOptions options;
  options.op = WorkloadOp::kUpdateTitle;
  options.threads = 4;
  options.total_operations = 300;
  WorkloadRunner runner(cluster_.get(), &items, options);
  ASSERT_TRUE(runner.LoadItems(4).ok());

  RunnerResult result;
  ASSERT_TRUE(runner.Run(&result).ok());
  EXPECT_GE(result.operations, 300u);
  EXPECT_EQ(result.errors, 0u);
  EXPECT_GT(result.tps, 0.0);
  EXPECT_EQ(result.latency->Count(), result.operations);
}

TEST_F(WorkloadTest, ReadAfterUpdateHitsCurrentVersion) {
  ItemTableOptions item_options;
  item_options.num_items = 100;
  item_options.title_scheme = IndexScheme::kSyncFull;
  ItemTable items(cluster_.get(), item_options);
  ASSERT_TRUE(items.Create().ok());

  RunnerOptions update_options;
  update_options.op = WorkloadOp::kUpdateTitle;
  update_options.threads = 2;
  update_options.total_operations = 200;
  WorkloadRunner runner(cluster_.get(), &items, update_options);
  ASSERT_TRUE(runner.LoadItems(4).ok());
  RunnerResult update_result;
  ASSERT_TRUE(runner.Run(&update_result).ok());

  RunnerOptions read_options = update_options;
  read_options.op = WorkloadOp::kReadIndexExact;
  read_options.total_operations = 100;
  RunnerResult read_result;
  ASSERT_TRUE(runner.RunWith(read_options, &read_result).ok());
  EXPECT_EQ(read_result.errors, 0u);
}

TEST_F(WorkloadTest, PacingApproximatesTargetTps) {
  ItemTableOptions item_options;
  item_options.num_items = 100;
  ItemTable items(cluster_.get(), item_options);
  ASSERT_TRUE(items.Create().ok());

  RunnerOptions options;
  options.op = WorkloadOp::kUpdateTitle;
  options.threads = 2;
  options.total_operations = 0;
  options.max_duration_ms = 500;
  options.target_tps = 400;
  WorkloadRunner runner(cluster_.get(), &items, options);
  ASSERT_TRUE(runner.LoadItems(2).ok());
  RunnerResult result;
  ASSERT_TRUE(runner.Run(&result).ok());
  EXPECT_GT(result.tps, 200.0);
  EXPECT_LT(result.tps, 800.0);
}

TEST_F(WorkloadTest, KeyChooserStaysInRange) {
  for (KeyDistribution dist :
       {KeyDistribution::kUniform, KeyDistribution::kZipfian}) {
    auto chooser = KeyChooser::Create(dist, 500, 9);
    for (int i = 0; i < 5000; i++) {
      EXPECT_LT(chooser->Next(), 500u);
    }
  }
}

TEST_F(WorkloadTest, ZipfianChooserIsSkewed) {
  auto uniform = KeyChooser::Create(KeyDistribution::kUniform, 1000, 5);
  auto zipf = KeyChooser::Create(KeyDistribution::kZipfian, 1000, 5);
  auto max_freq = [](KeyChooser* chooser) {
    std::map<uint64_t, int> counts;
    for (int i = 0; i < 20000; i++) counts[chooser->Next()]++;
    int max_count = 0;
    for (auto& [k, c] : counts) max_count = std::max(max_count, c);
    return max_count;
  };
  EXPECT_GT(max_freq(zipf.get()), 3 * max_freq(uniform.get()));
}

}  // namespace
}  // namespace diffindex
