// Differential read-equivalence suite (DESIGN.md §13): every index read
// path — the engine's uncovered and covered scans, GetByIndex and
// RangeByIndex — must return exactly the state the workload's model
// predicts, under every maintenance scheme, for the same seeded
// workload: the same hits (row, value, ts) and the same materialized
// rows (column/value/ts). For sync-insert, read-repair must also leave
// the raw index table holding exactly the model's entries.
//
// The model tracks row -> current value. Timestamps come from the base
// table: the workload writes the indexed column and the stored extra
// column in one put per op, so by the §4.3 rule every live entry and
// every projected cell carries that put's timestamp. The covered path
// serves every projected cell at the index entry's timestamp, so this is
// also what makes its rows byte-identical (including ts).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "core/index_codec.h"
#include "query/engine.h"
#include "util/random.h"

namespace diffindex {
namespace {

constexpr char kTable[] = "items";
constexpr char kIndex[] = "by_title";
constexpr char kColumn[] = "title";
constexpr char kExtra[] = "note";
constexpr int kNumValues = 8;
constexpr int kKeySpace = 24;
constexpr int kOpsPerRun = 120;

std::string ValueName(int v) { return "v" + std::to_string(v); }

std::string RowName(Random* rng) {
  char buf[24];
  const uint32_t r = rng->Uniform(kKeySpace);
  snprintf(buf, sizeof(buf), "%02x-r%u", (r * 37) % 256, r);
  return buf;
}

std::string NoteFor(const std::string& row, const std::string& value) {
  return "n-" + row + "-" + value;
}

struct TestCluster {
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<DiffIndexClient> client;
  IndexDescriptor index;
  std::map<std::string, std::string> model;  // row -> current value
};

// Builds a cluster and replays the seed's op trace: indexed puts
// (title + note in ONE put), same-value overwrites, deletes, occasional
// flushes. The trace, and so tc->model, depends only on the seed.
void RunWorkload(IndexScheme scheme, uint64_t seed, TestCluster* tc) {
  ClusterOptions options;
  options.num_servers = 3;
  options.regions_per_table = 4;
  ASSERT_TRUE(Cluster::Create(options, &tc->cluster).ok());
  tc->client = tc->cluster->NewDiffIndexClient();
  ASSERT_TRUE(tc->cluster->master()->CreateTable(kTable).ok());
  IndexDescriptor index;
  index.name = kIndex;
  index.column = kColumn;
  index.scheme = scheme;
  index.extra_columns = {kExtra};
  ASSERT_TRUE(tc->cluster->master()->CreateIndex(kTable, index).ok());
  ASSERT_TRUE(tc->client->raw_client()->RefreshLayout().ok());
  ASSERT_TRUE(
      tc->client->FindIndex(kTable, kIndex, &tc->index).ok());

  Random rng(static_cast<uint32_t>(seed));
  std::map<std::string, std::string>& model = tc->model;
  for (int i = 0; i < kOpsPerRun; i++) {
    const std::string row = RowName(&rng);
    const uint32_t dice = rng.Uniform(10);
    if (model.count(row) && dice < 2) {
      ASSERT_TRUE(
          tc->client->DeleteColumns(kTable, row, {kColumn, kExtra}).ok());
      model.erase(row);
    } else {
      // Fresh value or same-value overwrite (dice < 4) — either way both
      // cells land in one put so entry ts == each cell's ts.
      const std::string value = model.count(row) && dice < 4
                                    ? model[row]
                                    : ValueName(rng.Uniform(kNumValues));
      ASSERT_TRUE(tc->client
                      ->Put(kTable, row,
                            {Cell{kColumn, value, false},
                             Cell{kExtra, NoteFor(row, value), false}})
                      .ok());
      model[row] = value;
    }
    if (rng.OneIn(40)) {
      ASSERT_TRUE(tc->client->raw_client()->FlushTable(kTable).ok());
    }
  }

  // Async schemes: wait for the AUQ to deliver everything so the read
  // paths read a settled index.
  for (int i = 0; i < 5000; i++) {
    bool all_empty = true;
    for (NodeId id : tc->cluster->server_ids()) {
      if (tc->cluster->index_manager(id)->QueueDepth() > 0) {
        all_empty = false;
        break;
      }
    }
    if (all_empty) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// What every read path must return, from the model: one hit per live
// row in (encoded value, row) order, and that row's {note, title} cells
// in column order. Every timestamp is the row's last put, read from the
// base table.
void ModelExpectation(TestCluster* tc, std::vector<IndexHit>* hits,
                      std::vector<ScannedRow>* rows) {
  hits->clear();
  rows->clear();
  for (const auto& [row, value] : tc->model) {
    RowResult resp;
    ASSERT_TRUE(tc->client->raw_client()
                    ->GetRow(kTable, row, kMaxTimestamp, &resp)
                    .ok());
    ASSERT_TRUE(resp.found) << row;
    Timestamp ts = 0;
    for (const RowCell& cell : resp.cells) {
      if (cell.column == kColumn) ts = cell.ts;
    }
    ASSERT_NE(ts, 0u) << row;
    IndexHit hit;
    hit.base_row = row;
    hit.value_encoded =
        EncodeCompositeIndexValue({value, NoteFor(row, value)});
    hit.ts = ts;
    hits->push_back(std::move(hit));
  }
  std::sort(hits->begin(), hits->end(),
            [](const IndexHit& a, const IndexHit& b) {
              if (a.value_encoded != b.value_encoded) {
                return a.value_encoded < b.value_encoded;
              }
              return a.base_row < b.base_row;
            });
  for (const IndexHit& hit : *hits) {
    const std::string& value = tc->model[hit.base_row];
    ScannedRow row;
    row.row = hit.base_row;
    row.cells.push_back(
        RowCell{kExtra, NoteFor(hit.base_row, value), hit.ts});
    row.cells.push_back(RowCell{kColumn, value, hit.ts});
    rows->push_back(std::move(row));
  }
}

void ExpectSameHits(const std::vector<IndexHit>& got,
                    const std::vector<IndexHit>& want, const char* label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < want.size(); i++) {
    EXPECT_EQ(got[i].base_row, want[i].base_row) << label << " hit " << i;
    EXPECT_EQ(got[i].value_encoded, want[i].value_encoded)
        << label << " hit " << i;
    EXPECT_EQ(got[i].ts, want[i].ts) << label << " hit " << i;
  }
}

void ExpectSameRows(const std::vector<ScannedRow>& got,
                    const std::vector<ScannedRow>& want,
                    const char* label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < want.size(); i++) {
    EXPECT_EQ(got[i].row, want[i].row) << label << " row " << i;
    ASSERT_EQ(got[i].cells.size(), want[i].cells.size())
        << label << " row " << want[i].row;
    for (size_t c = 0; c < want[i].cells.size(); c++) {
      EXPECT_EQ(got[i].cells[c].column, want[i].cells[c].column)
          << label << " row " << want[i].row;
      EXPECT_EQ(got[i].cells[c].value, want[i].cells[c].value)
          << label << " row " << want[i].row << " col "
          << want[i].cells[c].column;
      EXPECT_EQ(got[i].cells[c].ts, want[i].cells[c].ts)
          << label << " row " << want[i].row << " col "
          << want[i].cells[c].column;
    }
  }
}

std::set<std::pair<std::string, std::string>> RawIndexState(
    TestCluster* tc) {
  std::vector<ScannedRow> raw;
  EXPECT_TRUE(tc->client->raw_client()
                  ->ScanRows(tc->index.index_table, "", "", kMaxTimestamp,
                             0, &raw)
                  .ok());
  std::set<std::pair<std::string, std::string>> state;
  for (const ScannedRow& entry : raw) {
    std::string value, row;
    EXPECT_TRUE(DecodeIndexRow(entry.row, &value, &row)) << entry.row;
    state.emplace(value, row);
  }
  return state;
}

class ReadEquivalenceTest : public ::testing::TestWithParam<int> {};

// Every read path — RangeByIndex, GetByIndex per value, the engine's
// uncovered scan (row batches on the pool and inline) and covered scan —
// returns exactly the model's state on the same settled cluster, under
// every scheme.
TEST_P(ReadEquivalenceTest, EnginePathsMatchSequentialReadPath) {
  const uint64_t seed = 0x5CA11ED0ULL + static_cast<uint64_t>(GetParam());
  for (IndexScheme scheme :
       {IndexScheme::kSyncFull, IndexScheme::kSyncInsert,
        IndexScheme::kAsyncSimple, IndexScheme::kAsyncSession}) {
    SCOPED_TRACE(IndexSchemeName(scheme));
    TestCluster tc;
    RunWorkload(scheme, seed, &tc);

    std::vector<IndexHit> want_hits;
    std::vector<ScannedRow> want_rows;
    ModelExpectation(&tc, &want_hits, &want_rows);
    ASSERT_FALSE(want_hits.empty());

    std::vector<IndexHit> hits;
    ASSERT_TRUE(
        tc.client->RangeByIndex(kTable, kIndex, "", "", 0, &hits).ok());
    ExpectSameHits(hits, want_hits, "RangeByIndex");

    for (const IndexHit& want : want_hits) {
      ASSERT_TRUE(tc.client
                      ->GetByIndex(kTable, kIndex, want.value_encoded, &hits)
                      .ok());
      ExpectSameHits(hits, {want}, "GetByIndex");
    }

    ReadEngine* engine = tc.client->read_engine();
    ScanSpec spec;
    spec.table = kTable;
    spec.index_name = kIndex;
    spec.projection = {kColumn, kExtra};

    ScanOptions uncovered;
    uncovered.allow_covered = false;
    uncovered.page_entries = 5;  // force multiple pages
    std::vector<ScannedRow> rows;
    ASSERT_TRUE(engine->ScanByIndex(spec, uncovered, &rows, &hits).ok());
    ExpectSameHits(hits, want_hits, "uncovered");
    ExpectSameRows(rows, want_rows, "uncovered");

    // The same uncovered scan with its row batches run inline (the model
    // checker's and DiffIndexClient's mode) instead of on the pool.
    ScanOptions uncovered_inline = uncovered;
    uncovered_inline.max_parallel = 1;
    ASSERT_TRUE(
        engine->ScanByIndex(spec, uncovered_inline, &rows, &hits).ok());
    ExpectSameHits(hits, want_hits, "uncovered inline");
    ExpectSameRows(rows, want_rows, "uncovered inline");

    ScanOptions covered;
    covered.page_entries = 5;
    ASSERT_TRUE(engine->ScanByIndex(spec, covered, &rows, &hits).ok());
    ExpectSameHits(hits, want_hits, "covered");
    ExpectSameRows(rows, want_rows, "covered");
  }
}

// Sync-insert leaves stale entries behind by design; one paged engine
// scan with batched repair must report exactly the model's entries and
// leave the raw index table holding exactly those entries.
TEST_P(ReadEquivalenceTest, BatchedRepairConvergesLikeSequential) {
  const uint64_t seed = 0xBA7C4EDULL + static_cast<uint64_t>(GetParam());

  TestCluster tc;
  RunWorkload(IndexScheme::kSyncInsert, seed, &tc);
  std::vector<IndexHit> want_hits;
  std::vector<ScannedRow> want_rows;
  ModelExpectation(&tc, &want_hits, &want_rows);
  std::set<std::pair<std::string, std::string>> model_set;
  for (const IndexHit& hit : want_hits) {
    model_set.emplace(hit.value_encoded, hit.base_row);
  }

  ScanSpec spec;
  spec.table = kTable;
  spec.index_name = kIndex;
  ScanOptions options;
  options.page_entries = 7;
  std::vector<ScannedRow> rows;
  std::vector<IndexHit> hits;
  ASSERT_TRUE(
      tc.client->read_engine()->ScanByIndex(spec, options, &rows, &hits).ok());
  ExpectSameHits(hits, want_hits, "batched");

  // Repair deleted every stale entry and nothing else.
  EXPECT_EQ(RawIndexState(&tc), model_set);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReadEquivalenceTest, ::testing::Range(0, 4));

}  // namespace
}  // namespace diffindex
