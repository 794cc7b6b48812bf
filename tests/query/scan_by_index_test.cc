// Read-engine scan tests (DESIGN.md §13): paged scatter-gather index
// range scans checked against the fixture's ground truth (the rows it
// wrote), cursor resumability across scanner instances, covered
// projections (zero base reads), batched read-repair for sync-insert and
// the deterministic RPC cost of its hits-only, uncovered-page and
// QueryByIndex forms,
// per-server row batches across a base-region move, the trace context of
// pool legs, Corruption on undecodable index rows, and fault handling at
// the merge seam and on the wire.
//
// Indexed values here are plain hex-prefixed strings: they contain no
// 0x00/0x01 bytes, so the codec escape leaves them untouched and the
// index rows spread across all four index-table regions (split points
// "40"/"80"/"c0") — every full-range page genuinely fans out.

#include "query/engine.h"

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
#include "fault/failpoint.h"

namespace diffindex {
namespace {

constexpr char kTable[] = "items";
constexpr char kIndex[] = "by_val";
constexpr char kColumn[] = "val";

class ScanByIndexTest : public ::testing::Test {
 protected:
  void Setup(IndexScheme scheme,
             std::vector<std::string> extra_columns = {}) {
    ClusterOptions options;
    options.num_servers = 3;
    options.regions_per_table = 4;
    ASSERT_TRUE(Cluster::Create(options, &cluster_).ok());
    client_ = cluster_->NewDiffIndexClient();
    ASSERT_TRUE(cluster_->master()->CreateTable(kTable).ok());
    IndexDescriptor index;
    index.name = kIndex;
    index.column = kColumn;
    index.scheme = scheme;
    index.extra_columns = std::move(extra_columns);
    ASSERT_TRUE(cluster_->master()->CreateIndex(kTable, index).ok());
    ASSERT_TRUE(client_->raw_client()->RefreshLayout().ok());
    ASSERT_TRUE(
        client_->FindIndex(kTable, kIndex, &index_).ok());
  }

  static std::string RowName(int i) {
    char buf[24];
    snprintf(buf, sizeof(buf), "%02x-row%03d", (i * 53) % 256, i);
    return buf;
  }

  // Unique per i; distributes over the index-table regions (see header
  // comment).
  static std::string ValName(int i) {
    char buf[24];
    snprintf(buf, sizeof(buf), "%02x-val%03d", (i * 37) % 256, i);
    return buf;
  }

  // Every cell of a row lands in ONE put: the covered path serves
  // non-leading components at the index entry's timestamp, which equals
  // each cell's own timestamp only when they were written together.
  void LoadRows(int n, bool with_extras = false) {
    for (int i = 0; i < n; i++) {
      std::vector<Cell> cells = {Cell{kColumn, ValName(i), false}};
      if (with_extras) {
        cells.push_back(Cell{"extra", "x" + std::to_string(i), false});
        cells.push_back(Cell{"other", "o" + std::to_string(i), false});
      }
      ASSERT_TRUE(client_->Put(kTable, RowName(i), std::move(cells)).ok())
          << RowName(i);
      truth_[RowName(i)] = ValName(i);
    }
  }

  // The hits a correct read of values [lo, hi) returns, from the ground
  // truth: (value, row) order, the first `limit` only (0 = all). Each
  // carries its row's put timestamp, read from the base table — by the
  // §4.3 rule an entry has the timestamp of the cell it indexes.
  std::vector<IndexHit> Reference(const std::string& lo,
                                  const std::string& hi,
                                  uint32_t limit = 0) {
    std::vector<IndexHit> hits;
    for (const auto& [row, value] : truth_) {
      if (value < lo || (!hi.empty() && value >= hi)) continue;
      RowResult resp;
      EXPECT_TRUE(client_->raw_client()
                      ->GetRow(kTable, row, kMaxTimestamp, &resp)
                      .ok());
      IndexHit hit;
      hit.base_row = row;
      hit.value_encoded = value;
      for (const RowCell& cell : resp.cells) {
        if (cell.column == kColumn) hit.ts = cell.ts;
      }
      hits.push_back(std::move(hit));
    }
    std::sort(hits.begin(), hits.end(),
              [](const IndexHit& a, const IndexHit& b) {
                if (a.value_encoded != b.value_encoded) {
                  return a.value_encoded < b.value_encoded;
                }
                return a.base_row < b.base_row;
              });
    if (limit != 0 && hits.size() > limit) hits.resize(limit);
    return hits;
  }

  // The raw index keyspace as decoded (value, row) pairs.
  std::set<std::pair<std::string, std::string>> RawIndexState() {
    std::vector<ScannedRow> raw;
    EXPECT_TRUE(client_->raw_client()
                    ->ScanRows(index_.index_table, "", "", kMaxTimestamp, 0,
                               &raw)
                    .ok());
    std::set<std::pair<std::string, std::string>> state;
    for (const ScannedRow& entry : raw) {
      std::string value, row;
      EXPECT_TRUE(DecodeIndexRow(entry.row, &value, &row)) << entry.row;
      state.emplace(value, row);
    }
    return state;
  }

  static void ExpectSameHits(const std::vector<IndexHit>& got,
                             const std::vector<IndexHit>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); i++) {
      EXPECT_EQ(got[i].base_row, want[i].base_row) << "hit " << i;
      EXPECT_EQ(got[i].value_encoded, want[i].value_encoded) << "hit " << i;
      EXPECT_EQ(got[i].ts, want[i].ts) << "hit " << i;
    }
  }

  static ScanSpec Spec() {
    ScanSpec spec;
    spec.table = kTable;
    spec.index_name = kIndex;
    return spec;
  }

  uint64_t CounterValue(const char* name) {
    return cluster_->metrics()->GetCounter(name)->value();
  }

  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<DiffIndexClient> client_;
  IndexDescriptor index_;
  std::map<std::string, std::string> truth_;  // row -> value LoadRows wrote
};

// The scatter-gather engine returns exactly the ground truth: same hits,
// same order, same timestamps — full range and bounded sub-range (the
// bounds cut across index-table region boundaries).
TEST_F(ScanByIndexTest, ScatterGatherMatchesSequentialReference) {
  Setup(IndexScheme::kSyncFull);
  LoadRows(80);

  ReadEngine engine(client_.get());
  const uint64_t legs_before = CounterValue("query.legs");

  std::vector<ScannedRow> rows;
  std::vector<IndexHit> hits;
  ASSERT_TRUE(
      engine.ScanByIndex(Spec(), ScanOptions(), &rows,
                         &hits)
          .ok());
  ExpectSameHits(hits, Reference("", ""));
  ASSERT_EQ(rows.size(), hits.size());
  for (size_t i = 0; i < rows.size(); i++) {
    EXPECT_EQ(rows[i].row, hits[i].base_row);
    ASSERT_EQ(rows[i].cells.size(), 1u);
    EXPECT_EQ(rows[i].cells[0].column, kColumn);
    EXPECT_EQ(rows[i].cells[0].value, hits[i].value_encoded);
  }
  // The full range overlaps all four index regions, so the single page
  // fanned out at least four legs.
  EXPECT_GE(CounterValue("query.legs") - legs_before, 4u);

  // Bounded sub-range, straddling the "80" region split.
  ScanSpec bounded = Spec();
  bounded.value_lo_encoded = "40";
  bounded.value_hi_encoded = "c0";
  rows.clear();
  hits.clear();
  ASSERT_TRUE(
      engine.ScanByIndex(bounded, ScanOptions(), &rows, &hits).ok());
  const std::vector<IndexHit> want = Reference("40", "c0");
  ASSERT_FALSE(want.empty());
  ASSERT_LT(want.size(), 80u);  // the bounds actually cut
  ExpectSameHits(hits, want);
}

// Small pages: the cursor walks the range in page_entries steps and the
// concatenation of pages equals the ground truth. A cursor token
// persisted mid-scan resumes an entirely fresh scanner at exactly the
// next entry.
TEST_F(ScanByIndexTest, PagedCursorResumesAcrossScannerInstances) {
  Setup(IndexScheme::kSyncFull);
  LoadRows(60);
  const std::vector<IndexHit> want = Reference("", "");

  ReadEngine engine(client_.get());
  ScanOptions options;
  options.page_entries = 7;

  // Drive page by page.
  std::unique_ptr<IndexScanner> scanner;
  ASSERT_TRUE(
      engine.NewScan(Spec(), options, &scanner).ok());
  std::vector<IndexHit> paged;
  int pages = 0;
  while (!scanner->exhausted()) {
    ScanPage page;
    ASSERT_TRUE(scanner->NextPage(&page).ok());
    EXPECT_LE(page.hits.size(), 7u);
    paged.insert(paged.end(), page.hits.begin(), page.hits.end());
    pages++;
  }
  ExpectSameHits(paged, want);
  EXPECT_GE(pages, 9);  // 60 entries / 7 per page

  // Stop after two pages, persist the token, resume in a new scanner.
  ASSERT_TRUE(
      engine.NewScan(Spec(), options, &scanner).ok());
  std::vector<IndexHit> resumed;
  for (int i = 0; i < 2; i++) {
    ScanPage page;
    ASSERT_TRUE(scanner->NextPage(&page).ok());
    resumed.insert(resumed.end(), page.hits.begin(), page.hits.end());
  }
  const std::string token = scanner->cursor();
  scanner.reset();

  std::unique_ptr<IndexScanner> fresh;
  ASSERT_TRUE(
      engine.NewScan(Spec(), options, &fresh).ok());
  fresh->SeekTo(token);
  while (!fresh->exhausted()) {
    ScanPage page;
    ASSERT_TRUE(fresh->NextPage(&page).ok());
    resumed.insert(resumed.end(), page.hits.begin(), page.hits.end());
  }
  ExpectSameHits(resumed, want);
}

// The acceptance criterion for covered projections: when the projection
// is a subset of indexed + stored columns, the scan makes ZERO base-table
// reads (query.base_reads does not move) and still returns rows
// byte-identical to the base-fetch path.
TEST_F(ScanByIndexTest, CoveredProjectionMakesZeroBaseReads) {
  Setup(IndexScheme::kSyncFull, {"extra"});
  LoadRows(40, /*with_extras=*/true);

  ReadEngine engine(client_.get());
  ScanSpec spec = Spec();
  spec.projection = {kColumn, "extra"};

  // Reference: same projection through the base-fetch path.
  ScanOptions uncovered;
  uncovered.allow_covered = false;
  std::vector<ScannedRow> base_rows;
  ASSERT_TRUE(engine.ScanByIndex(spec, uncovered, &base_rows).ok());
  ASSERT_EQ(base_rows.size(), 40u);

  const uint64_t base_reads_before = CounterValue("query.base_reads");
  const uint64_t covered_before = CounterValue("query.covered");

  ScanOptions covered;  // allow_covered defaults true
  std::unique_ptr<IndexScanner> scanner;
  ASSERT_TRUE(engine.NewScan(spec, covered, &scanner).ok());
  std::vector<ScannedRow> covered_rows;
  while (!scanner->exhausted()) {
    ScanPage page;
    ASSERT_TRUE(scanner->NextPage(&page).ok());
    EXPECT_TRUE(page.covered);
    covered_rows.insert(covered_rows.end(), page.rows.begin(),
                        page.rows.end());
  }

  EXPECT_EQ(CounterValue("query.base_reads"), base_reads_before)
      << "covered scan touched the base table";
  EXPECT_GT(CounterValue("query.covered"), covered_before);

  // Byte-identical rows: column, value, AND timestamp (the cells were
  // written in one put, so the entry ts is each cell's ts).
  ASSERT_EQ(covered_rows.size(), base_rows.size());
  for (size_t i = 0; i < base_rows.size(); i++) {
    EXPECT_EQ(covered_rows[i].row, base_rows[i].row);
    ASSERT_EQ(covered_rows[i].cells.size(), base_rows[i].cells.size())
        << base_rows[i].row;
    for (size_t c = 0; c < base_rows[i].cells.size(); c++) {
      EXPECT_EQ(covered_rows[i].cells[c].column,
                base_rows[i].cells[c].column);
      EXPECT_EQ(covered_rows[i].cells[c].value,
                base_rows[i].cells[c].value);
      EXPECT_EQ(covered_rows[i].cells[c].ts, base_rows[i].cells[c].ts);
    }
  }

  // A projection touching a non-stored column is not covered.
  ScanSpec wide = Spec();
  wide.projection = {kColumn, "other"};
  ASSERT_TRUE(engine.NewScan(wide, covered, &scanner).ok());
  ScanPage page;
  ASSERT_TRUE(scanner->NextPage(&page).ok());
  EXPECT_FALSE(page.covered);
}

// Moving an index-table region mid-scan invalidates the client's cached
// layout; the region-addressed leg fails with WrongRegion and the engine
// refreshes + retries the page. The scan completes with the full result.
TEST_F(ScanByIndexTest, SurvivesIndexRegionMoveMidScan) {
  Setup(IndexScheme::kSyncFull);
  LoadRows(60);
  const std::vector<IndexHit> want = Reference("", "");

  ReadEngine engine(client_.get());
  ScanOptions options;
  options.page_entries = 8;
  std::unique_ptr<IndexScanner> scanner;
  ASSERT_TRUE(
      engine.NewScan(Spec(), options, &scanner).ok());

  std::vector<IndexHit> got;
  ScanPage page;
  ASSERT_TRUE(scanner->NextPage(&page).ok());
  got.insert(got.end(), page.hits.begin(), page.hits.end());

  // Move every index region to a different server; the client's layout
  // is now entirely stale.
  for (const RegionInfoWire& region :
       client_->raw_client()->TableRegions(index_.index_table)) {
    NodeId target = region.server_id;
    for (NodeId id : cluster_->server_ids()) {
      if (id != region.server_id) target = id;
    }
    ASSERT_TRUE(cluster_->master()
                    ->MoveRegion(index_.index_table, region.region_id,
                                 target)
                    .ok());
  }

  while (!scanner->exhausted()) {
    ASSERT_TRUE(scanner->NextPage(&page).ok());
    got.insert(got.end(), page.hits.begin(), page.hits.end());
  }
  ExpectSameHits(got, want);
}

// A fully partitioned fabric exhausts the page retries and surfaces
// Unavailable — but the failed page never advanced the cursor, so once
// the network heals the SAME scanner resumes and the concatenation is
// complete and duplicate-free.
TEST_F(ScanByIndexTest, DropFaultSurfacesThenScanResumes) {
  Setup(IndexScheme::kSyncFull);
  LoadRows(40);
  const std::vector<IndexHit> want = Reference("", "");

  ReadEngineOptions fast;
  fast.max_page_retries = 2;
  fast.retry_backoff_ms = 1;
  fast.retry_backoff_max_ms = 2;
  ReadEngine engine(client_.get(), fast);
  ScanOptions options;
  options.page_entries = 10;
  std::unique_ptr<IndexScanner> scanner;
  ASSERT_TRUE(
      engine.NewScan(Spec(), options, &scanner).ok());

  std::vector<IndexHit> got;
  ScanPage page;
  ASSERT_TRUE(scanner->NextPage(&page).ok());
  got.insert(got.end(), page.hits.begin(), page.hits.end());

  Fabric::EdgeFault drop;
  drop.drop_probability = 1.0;
  cluster_->fabric()->SetDefaultFault(drop);
  Status s = scanner->NextPage(&page);
  EXPECT_TRUE(s.IsUnavailable()) << s.ToString();

  cluster_->fabric()->ClearFaults();
  while (!scanner->exhausted()) {
    ASSERT_TRUE(scanner->NextPage(&page).ok());
    got.insert(got.end(), page.hits.begin(), page.hits.end());
  }
  ExpectSameHits(got, want);
}

// The query.merge failpoint fires between leg gather and merge; the
// error surfaces (it is not a layout/availability error) with the cursor
// still at the failed page's start, so the immediate retry succeeds.
TEST_F(ScanByIndexTest, MergeFailpointLeavesPageRetryable) {
  Setup(IndexScheme::kSyncFull);
  LoadRows(30);
  const std::vector<IndexHit> want = Reference("", "");

  fault::ScopedFailpointCleanup cleanup;
  fault::FailpointRegistry::Global()->Arm(
      "query.merge", fault::FailpointPolicy::ErrorOnce(Status::IOError("torn")));

  ReadEngine engine(client_.get());
  ScanOptions options;
  options.page_entries = 8;
  std::unique_ptr<IndexScanner> scanner;
  ASSERT_TRUE(
      engine.NewScan(Spec(), options, &scanner).ok());

  ScanPage page;
  Status s = scanner->NextPage(&page);
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsIOError()) << s.ToString();

  std::vector<IndexHit> got;
  while (!scanner->exhausted()) {
    ASSERT_TRUE(scanner->NextPage(&page).ok());
    got.insert(got.end(), page.hits.begin(), page.hits.end());
  }
  ExpectSameHits(got, want);
}

// Sync-insert leaves stale entries on update by design (Algorithm 2);
// the engine's batched repair must (a) filter them out of the returned
// hits and (b) lazily delete them from the index table, exactly like the
// sequential reference routine.
TEST_F(ScanByIndexTest, BatchedRepairFiltersAndDeletesStaleEntries) {
  Setup(IndexScheme::kSyncInsert);
  LoadRows(30);
  // Overwrite every 3rd row: the old entry goes stale in the index.
  std::map<std::string, std::string> truth;  // row -> current value
  for (int i = 0; i < 30; i++) {
    if (i % 3 == 0) {
      ASSERT_TRUE(
          client_->PutColumn(kTable, RowName(i), kColumn, ValName(100 + i))
              .ok());
      truth[RowName(i)] = ValName(100 + i);
    } else {
      truth[RowName(i)] = ValName(i);
    }
  }

  const uint64_t deleted_before = CounterValue("query.repair.deleted");
  ReadEngine engine(client_.get());
  ScanOptions options;
  options.page_entries = 7;  // repair runs per page
  std::vector<ScannedRow> rows;
  std::vector<IndexHit> hits;
  ASSERT_TRUE(engine.ScanByIndex(Spec(), options, &rows,
                                 &hits)
                  .ok());

  // Verified hits = the model, in (value, row) order.
  std::vector<std::pair<std::string, std::string>> expected;
  for (const auto& [row, value] : truth) expected.emplace_back(value, row);
  std::sort(expected.begin(), expected.end());
  ASSERT_EQ(hits.size(), expected.size());
  for (size_t i = 0; i < expected.size(); i++) {
    EXPECT_EQ(hits[i].value_encoded, expected[i].first) << "hit " << i;
    EXPECT_EQ(hits[i].base_row, expected[i].second) << "hit " << i;
  }
  EXPECT_EQ(CounterValue("query.repair.deleted") - deleted_before, 10u);

  // The stale entries are gone from the raw index keyspace.
  const std::set<std::pair<std::string, std::string>> expected_set(
      expected.begin(), expected.end());
  EXPECT_EQ(RawIndexState(), expected_set);
}

// Table-2 cost of a sync-insert RangeByIndex, on deterministic counters:
// its K stale and live hits are checked with one MultiGet per base server
// (the client's index reads run one page over the whole range) and no
// per-hit GetCell, the K checks still count as K base reads, and the
// stale entries are deleted. The hits span all three base servers, so
// the check MultiGets run on the engine's pool, each on a pool thread or
// the caller's: every rpc.multi_get span still carries the read's
// scheme, trace id and parent span, exactly as an inline check's RPC.
TEST_F(ScanByIndexTest, SyncInsertRangeByIndexBatchesRepairPerServer) {
  Setup(IndexScheme::kSyncInsert);
  LoadRows(30);
  for (int i = 0; i < 30; i += 3) {  // 10 stale entries
    ASSERT_TRUE(
        client_->PutColumn(kTable, RowName(i), kColumn, ValName(100 + i))
            .ok());
    truth_[RowName(i)] = ValName(100 + i);
  }
  const uint64_t k = 40;  // 30 live + 10 stale entries in the index
  const uint64_t servers = cluster_->server_ids().size();
  ASSERT_EQ(servers, 3u);
  const std::vector<IndexHit> want = Reference("", "");
  cluster_->traces()->Clear();

  const uint64_t get_cell_before = CounterValue("rpc.get_cell.calls");
  const uint64_t multi_get_before = CounterValue("rpc.multi_get.calls");
  const OpStats::Snapshot before = cluster_->stats()->snapshot();
  std::vector<IndexHit> hits;
  ASSERT_TRUE(client_->RangeByIndex(kTable, kIndex, "", "", 0, &hits).ok());
  const OpStats::Snapshot after = cluster_->stats()->snapshot();

  EXPECT_EQ(CounterValue("rpc.get_cell.calls") - get_cell_before, 0u);
  EXPECT_LE(CounterValue("rpc.multi_get.calls") - multi_get_before,
            servers * 1);  // servers x pages, one page
  EXPECT_EQ(after.base_read - before.base_read, k);
  EXPECT_EQ(after.index_read - before.index_read, 1u);
  ExpectSameHits(hits, want);

  std::set<std::pair<std::string, std::string>> live;
  for (const auto& [row, value] : truth_) live.emplace(value, row);
  EXPECT_EQ(RawIndexState(), live);

  const std::vector<obs::SpanRecord> spans = cluster_->traces()->AllSpans();
  const obs::SpanRecord* read = nullptr;
  for (const obs::SpanRecord& span : spans) {
    if (span.name == "client.range_by_index") read = &span;
  }
  ASSERT_NE(read, nullptr);
  size_t multi_gets = 0;
  for (const obs::SpanRecord& span : spans) {
    if (span.name != "rpc.multi_get") continue;
    multi_gets++;
    EXPECT_EQ(span.scheme, "sync-insert");
    EXPECT_EQ(span.trace_id, read->trace_id);
    EXPECT_EQ(span.parent_span_id, read->span_id);
  }
  EXPECT_GE(multi_gets, 2u);
  EXPECT_LE(multi_gets, servers);
}

// QueryByIndex under sync-insert reads each of its K hits' rows once:
// the rows it returns are the versions its hits were checked against,
// so K = 30 entries (10 of them stale) cost 30 base reads — not a
// column check per hit followed by a second fetch of the live rows —
// and every returned row still holds the queried value.
TEST_F(ScanByIndexTest, QueryByIndexReadsEachSyncInsertHitOnce) {
  Setup(IndexScheme::kSyncInsert);
  std::set<std::string> live;
  for (int i = 0; i < 30; i++) {
    ASSERT_TRUE(client_->PutColumn(kTable, RowName(i), kColumn, "hot").ok());
    live.insert(RowName(i));
  }
  for (int i = 0; i < 30; i += 3) {  // 10 stale "hot" entries
    ASSERT_TRUE(client_->PutColumn(kTable, RowName(i), kColumn, "cold").ok());
    live.erase(RowName(i));
  }
  const uint64_t k = 30;

  const OpStats::Snapshot before = cluster_->stats()->snapshot();
  std::vector<ScannedRow> rows;
  ASSERT_TRUE(client_->QueryByIndex(kTable, kIndex, "hot", &rows).ok());
  const OpStats::Snapshot after = cluster_->stats()->snapshot();

  EXPECT_EQ(after.base_read - before.base_read, k);
  EXPECT_EQ(after.index_read - before.index_read, 1u);
  std::set<std::string> got;
  for (const ScannedRow& row : rows) {
    got.insert(row.row);
    ASSERT_EQ(row.cells.size(), 1u) << row.row;
    EXPECT_EQ(row.cells[0].column, kColumn);
    EXPECT_EQ(row.cells[0].value, "hot") << row.row;
  }
  EXPECT_EQ(got, live);
  EXPECT_EQ(rows.size(), live.size());
}

// Table-2 cost of one uncovered sync-insert scan page, on deterministic
// counters: its K = 40 hits (10 stale) fetch their base rows with at most
// one kGetRow call per base server, are verified against those rows (no
// MultiGet), and cost K base reads in all — inline (max_parallel = 1)
// and with the per-server batches on the pool (max_parallel = 4). The
// stale entries are gone afterwards and the rows are the model's.
TEST_F(ScanByIndexTest, SyncInsertUncoveredPageFetchesOneRowBatchPerServer) {
  Setup(IndexScheme::kSyncInsert);
  LoadRows(30);
  const uint64_t k = 40;  // 30 live + 10 stale entries in the index
  const uint64_t servers = cluster_->server_ids().size();
  ASSERT_EQ(servers, 3u);

  ReadEngine engine(client_.get());
  int round = 0;
  for (int max_parallel : {1, 4}) {
    SCOPED_TRACE("max_parallel=" + std::to_string(max_parallel));
    round++;
    // Overwrite every 3rd row: its current entry goes stale.
    for (int i = 0; i < 30; i += 3) {
      const std::string value = ValName(100 * round + i);
      ASSERT_TRUE(
          client_->PutColumn(kTable, RowName(i), kColumn, value).ok());
      truth_[RowName(i)] = value;
    }
    const std::vector<IndexHit> want = Reference("", "");

    ScanOptions options;
    options.page_entries = 0;  // one page over the whole range
    options.max_parallel = max_parallel;
    std::unique_ptr<IndexScanner> scanner;
    ASSERT_TRUE(engine.NewScan(Spec(), options, &scanner).ok());

    const uint64_t get_row_before = CounterValue("rpc.get_row.calls");
    const uint64_t multi_get_before = CounterValue("rpc.multi_get.calls");
    const uint64_t base_reads_before = CounterValue("query.base_reads");
    const uint64_t checked_before = CounterValue("query.repair.checked");
    const OpStats::Snapshot before = cluster_->stats()->snapshot();
    ScanPage page;
    ASSERT_TRUE(scanner->NextPage(&page).ok());
    const OpStats::Snapshot after = cluster_->stats()->snapshot();
    EXPECT_TRUE(scanner->exhausted());

    EXPECT_LE(CounterValue("rpc.get_row.calls") - get_row_before, servers);
    EXPECT_EQ(CounterValue("rpc.multi_get.calls") - multi_get_before, 0u);
    EXPECT_EQ(CounterValue("query.base_reads") - base_reads_before, k);
    EXPECT_EQ(after.base_read - before.base_read, k);
    EXPECT_EQ(CounterValue("query.repair.checked") - checked_before, k);

    ExpectSameHits(page.hits, want);
    ASSERT_EQ(page.rows.size(), want.size());
    for (size_t i = 0; i < want.size(); i++) {
      EXPECT_EQ(page.rows[i].row, want[i].base_row) << "row " << i;
      ASSERT_EQ(page.rows[i].cells.size(), 1u) << "row " << i;
      EXPECT_EQ(page.rows[i].cells[0].column, kColumn);
      EXPECT_EQ(page.rows[i].cells[0].value, truth_[want[i].base_row]);
      EXPECT_EQ(page.rows[i].cells[0].ts, want[i].ts);
    }

    std::set<std::pair<std::string, std::string>> live;
    for (const auto& [row, value] : truth_) live.emplace(value, row);
    EXPECT_EQ(RawIndexState(), live);
  }
}

// Moving every base-table region mid-scan leaves the client's cached
// routes stale: the next page's row batches land on servers that no
// longer serve their rows, fail with WrongRegion, and the client
// refreshes, regroups and retries them. The scan still returns exactly
// the model's rows.
TEST_F(ScanByIndexTest, UncoveredScanSurvivesBaseRegionMove) {
  Setup(IndexScheme::kSyncInsert);
  LoadRows(60);
  const std::vector<IndexHit> want = Reference("", "");

  ReadEngine engine(client_.get());
  ScanOptions options;
  options.page_entries = 8;
  std::unique_ptr<IndexScanner> scanner;
  ASSERT_TRUE(engine.NewScan(Spec(), options, &scanner).ok());

  std::vector<IndexHit> hits;
  std::vector<ScannedRow> rows;
  ScanPage page;
  ASSERT_TRUE(scanner->NextPage(&page).ok());
  hits.insert(hits.end(), page.hits.begin(), page.hits.end());
  rows.insert(rows.end(), page.rows.begin(), page.rows.end());

  for (const RegionInfoWire& region :
       client_->raw_client()->TableRegions(kTable)) {
    NodeId target = region.server_id;
    for (NodeId id : cluster_->server_ids()) {
      if (id != region.server_id) target = id;
    }
    ASSERT_TRUE(
        cluster_->master()->MoveRegion(kTable, region.region_id, target).ok());
  }

  const uint64_t retries_before = CounterValue("client.retries");
  while (!scanner->exhausted()) {
    ASSERT_TRUE(scanner->NextPage(&page).ok());
    hits.insert(hits.end(), page.hits.begin(), page.hits.end());
    rows.insert(rows.end(), page.rows.begin(), page.rows.end());
  }
  EXPECT_GE(CounterValue("client.retries") - retries_before, 1u);

  ExpectSameHits(hits, want);
  ASSERT_EQ(rows.size(), want.size());
  for (size_t i = 0; i < want.size(); i++) {
    EXPECT_EQ(rows[i].row, want[i].base_row) << "row " << i;
    ASSERT_EQ(rows[i].cells.size(), 1u) << "row " << i;
    EXPECT_EQ(rows[i].cells[0].value, truth_[want[i].base_row]);
    EXPECT_EQ(rows[i].cells[0].ts, want[i].ts);
  }
}

// Pool legs run under the scan's trace context: with max_parallel = 4,
// every index-scan leg (one per index region, four here) and every
// per-server row batch records its RPC span with the scan's scheme label
// and as a child of the page's query.page span — exactly like an inline
// leg.
TEST_F(ScanByIndexTest, PoolLegsKeepTheScanTraceContext) {
  Setup(IndexScheme::kSyncInsert);
  LoadRows(40);
  cluster_->traces()->Clear();

  ReadEngine engine(client_.get());
  ScanOptions options;
  options.page_entries = 0;  // one page: four index legs, three row batches
  options.max_parallel = 4;
  std::vector<ScannedRow> rows;
  ASSERT_TRUE(engine.ScanByIndex(Spec(), options, &rows).ok());
  ASSERT_EQ(rows.size(), 40u);

  const std::vector<obs::SpanRecord> spans = cluster_->traces()->AllSpans();
  const obs::SpanRecord* page = nullptr;
  for (const obs::SpanRecord& span : spans) {
    if (span.name == "query.page") page = &span;
  }
  ASSERT_NE(page, nullptr);
  EXPECT_EQ(page->scheme, "sync-insert");

  size_t index_scans = 0, get_rows = 0;
  for (const obs::SpanRecord& span : spans) {
    if (span.name != "rpc.index_scan" && span.name != "rpc.get_row") continue;
    (span.name == "rpc.index_scan" ? index_scans : get_rows)++;
    EXPECT_EQ(span.scheme, "sync-insert") << span.name;
    EXPECT_EQ(span.trace_id, page->trace_id) << span.name;
    EXPECT_EQ(span.parent_span_id, page->span_id) << span.name;
  }
  EXPECT_EQ(index_scans, 4u);
  EXPECT_GE(get_rows, 2u);
  EXPECT_LE(get_rows, cluster_->server_ids().size());
}

// An index row that does not decode (here: no value/row terminator) is
// Corruption on every read path whose range covers it — never silently
// dropped. Ranges that do not cover it still read normally.
TEST_F(ScanByIndexTest, MalformedIndexRowIsCorruptionOnEveryPath) {
  Setup(IndexScheme::kSyncFull);
  LoadRows(20);
  const std::string bad = "41-bad";  // no 0x00/0x01: escapes to itself
  ASSERT_TRUE(client_->raw_client()
                  ->Put(index_.index_table, bad, {Cell{"", "", false}})
                  .ok());

  std::vector<IndexHit> hits;
  Status s = client_->GetByIndex(kTable, kIndex, bad, &hits);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  s = client_->RangeByIndex(kTable, kIndex, "", "", 0, &hits);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  std::vector<ScannedRow> rows;
  s = client_->read_engine()->ScanByIndex(Spec(), ScanOptions(), &rows);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();

  ASSERT_TRUE(client_->RangeByIndex(kTable, kIndex, "80", "", 0, &hits).ok());
  ExpectSameHits(hits, Reference("80", ""));
}

// limit counts scanned index entries across pages (the RangeByIndex
// semantics), independent of page size.
TEST_F(ScanByIndexTest, LimitCountsScannedEntriesAcrossPages) {
  Setup(IndexScheme::kSyncFull);
  LoadRows(30);
  const std::vector<IndexHit> all = Reference("", "");

  ReadEngine engine(client_.get());
  ScanSpec spec = Spec();
  spec.limit = 7;
  ScanOptions options;
  options.page_entries = 3;
  std::vector<ScannedRow> rows;
  std::vector<IndexHit> hits;
  ASSERT_TRUE(engine.ScanByIndex(spec, options, &rows, &hits).ok());
  ASSERT_EQ(hits.size(), 7u);
  ExpectSameHits(hits,
                 std::vector<IndexHit>(all.begin(), all.begin() + 7));
}

// Session-consistent scan (Section 5.2): the page merge against the
// session's private entries makes the engine agree with
// SessionRangeByIndex — and with the ground truth — no matter how much
// of the AUQ backlog has drained.
TEST_F(ScanByIndexTest, SessionScanMergesPrivateEntries) {
  Setup(IndexScheme::kAsyncSession);
  const SessionId session = client_->GetSession();
  std::set<std::pair<std::string, std::string>> truth;
  for (int i = 0; i < 25; i++) {
    ASSERT_TRUE(client_
                    ->SessionPut(session, kTable, RowName(i),
                                 {Cell{kColumn, ValName(i), false}})
                    .ok());
    truth.emplace(ValName(i), RowName(i));
  }

  ReadEngine engine(client_.get());
  ScanOptions options;
  options.page_entries = 6;
  options.session = session;
  std::vector<ScannedRow> rows;
  std::vector<IndexHit> hits;
  ASSERT_TRUE(engine.ScanByIndex(Spec(), options, &rows,
                                 &hits)
                  .ok());

  std::set<std::pair<std::string, std::string>> got;
  for (const IndexHit& hit : hits) {
    got.emplace(hit.value_encoded, hit.base_row);
  }
  EXPECT_EQ(got, truth);
  // Merged hits' rows come from the page's row batch like any other.
  ASSERT_EQ(rows.size(), hits.size());
  for (size_t i = 0; i < rows.size(); i++) {
    EXPECT_EQ(rows[i].row, hits[i].base_row);
    ASSERT_EQ(rows[i].cells.size(), 1u);
    EXPECT_EQ(rows[i].cells[0].value, hits[i].value_encoded);
  }

  std::vector<IndexHit> reference;
  ASSERT_TRUE(client_
                  ->SessionRangeByIndex(session, kTable, kIndex, "", "",
                                        &reference)
                  .ok());
  std::set<std::pair<std::string, std::string>> ref;
  for (const IndexHit& hit : reference) {
    ref.emplace(hit.value_encoded, hit.base_row);
  }
  EXPECT_EQ(got, ref);
  client_->EndSession(session);
}

// Local indexes keep their broadcast read path; the region-addressed
// engine must refuse them up front, not scan garbage.
TEST_F(ScanByIndexTest, RejectsLocalIndexes) {
  ClusterOptions options;
  options.num_servers = 2;
  options.regions_per_table = 2;
  ASSERT_TRUE(Cluster::Create(options, &cluster_).ok());
  client_ = cluster_->NewDiffIndexClient();
  ASSERT_TRUE(cluster_->master()->CreateTable(kTable).ok());
  IndexDescriptor local;
  local.name = kIndex;
  local.column = kColumn;
  local.scheme = IndexScheme::kSyncFull;
  local.is_local = true;
  ASSERT_TRUE(cluster_->master()->CreateIndex(kTable, local).ok());
  ASSERT_TRUE(client_->raw_client()->RefreshLayout().ok());

  ReadEngine engine(client_.get());
  std::unique_ptr<IndexScanner> scanner;
  Status s = engine.NewScan(Spec(), ScanOptions(),
                            &scanner);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
}

}  // namespace
}  // namespace diffindex
