#include "query/engine.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>

#include "core/index_codec.h"
#include "fault/failpoint.h"
#include "obs/trace.h"
#include "query/covered.h"
#include "query/read_repair.h"

namespace diffindex {

namespace {

// Re-pairs fetched rows with `hits` after the session merge reordered
// and extended them: each hit takes the row fetched for its base row
// (`keys` parallel to `fetched`; on a repeated key the last wins). A hit
// whose row was not fetched gets found=false and so no result row.
void AlignRows(const std::vector<IndexHit>& hits,
               const std::vector<std::string>& keys,
               const std::vector<RowResult>& fetched,
               std::vector<RowResult>* rows) {
  std::unordered_map<std::string_view, size_t> by_key;
  by_key.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); i++) by_key[keys[i]] = i;
  rows->assign(hits.size(), RowResult{});
  for (size_t i = 0; i < hits.size(); i++) {
    auto it = by_key.find(hits[i].base_row);
    if (it != by_key.end()) (*rows)[i] = fetched[it->second];
  }
}

}  // namespace

// ---- IndexScanner ----

IndexScanner::IndexScanner(ReadEngine* engine, ScanSpec spec,
                           const ScanOptions& options, IndexDescriptor index)
    : engine_(engine),
      spec_(std::move(spec)),
      options_(options),
      index_(std::move(index)) {
  cursor_ = IndexRangeStart(spec_.value_lo_encoded);
  if (!spec_.value_hi_encoded.empty()) {
    end_key_ = IndexRangeEnd(spec_.value_hi_encoded);
  }
}

void IndexScanner::SeekTo(const std::string& cursor) {
  cursor_ = cursor;
  exhausted_ = false;
  returned_ = 0;
}

Status IndexScanner::GatherOnce(ThreadPool* pool, uint32_t budget,
                                std::vector<IndexScanResponse>* responses,
                                uint64_t* legs_issued) {
  Client* raw = engine_->client_->raw_client();

  // Regions of the index table overlapping [cursor_, end_key_). Regions
  // partition the keyspace, so an empty overlap means the layout is not
  // loaded yet — report Unavailable to drive the refresh-and-retry loop.
  const std::vector<RegionInfoWire> legs =
      raw->TableRegions(index_.index_table, cursor_, end_key_);
  if (legs.empty()) {
    return Status::Unavailable("no layout for " + index_.index_table);
  }
  *legs_issued += legs.size();

  // Every leg asks for the full page budget: leg results that overflow
  // the budget at merge time are discarded (regions underneath a
  // selective range are usually sparse, so the overshoot is small).
  responses->clear();
  responses->resize(legs.size());
  std::vector<Status> statuses(legs.size(), Status::OK());
  auto leg = [&](size_t i) {
    statuses[i] = raw->IndexScanRegion(index_.index_table, legs[i], cursor_,
                                       end_key_, kMaxTimestamp, budget,
                                       &(*responses)[i]);
  };
  if (pool == nullptr || legs.size() == 1) {
    for (size_t i = 0; i < legs.size(); i++) leg(i);
  } else {
    obs::RunAllTraced(pool, legs.size(), leg);
  }

  DIFFINDEX_FAILPOINT("query.merge");
  for (const Status& status : statuses) DIFFINDEX_RETURN_NOT_OK(status);
  return Status::OK();
}

Status IndexScanner::NextHits(std::vector<IndexHit>* hits, uint64_t* legs,
                              std::vector<RowResult>* rows) {
  hits->clear();
  if (rows != nullptr) rows->clear();
  if (exhausted_) return Status::OK();

  DiffIndexClient* client = engine_->client_;
  Client* raw = client->raw_client();
  // One pool for the step's three fan-outs: index legs, row batches and
  // sync-insert check reads. Each still runs inline when it has one leg.
  ThreadPool* pool = options_.max_parallel > 1 ? engine_->pool() : nullptr;

  uint32_t budget = options_.page_entries;
  if (spec_.limit != 0) {
    const uint64_t left = static_cast<uint64_t>(spec_.limit) - returned_;
    budget = static_cast<uint32_t>(
        budget == 0 ? left : std::min<uint64_t>(budget, left));
  }

  std::vector<IndexScanResponse> responses;
  for (int attempt = 0;; attempt++) {
    Status gather = GatherOnce(pool, budget, &responses, legs);
    if (gather.ok()) break;
    if (!(gather.IsWrongRegion() || gather.IsUnavailable()) ||
        attempt >= engine_->options_.max_page_retries) {
      return gather;
    }
    engine_->BackoffBeforeRetry(attempt + 1);
    // Best effort: even a failed refresh is worth another attempt (the
    // master may come back).
    raw->RefreshLayout().IgnoreError();
  }

  // Regions partition the keyspace and legs are in region order, so the
  // ordered merge is a concatenation of the legs, trimmed to the page
  // budget. Until repair, hits->size() counts the scanned entries.
  size_t gathered = 0;
  for (const auto& resp : responses) gathered += resp.entries.size();
  hits->reserve(budget == 0 ? gathered : std::min<size_t>(gathered, budget));
  bool truncated = false;
  const std::string* last_key = nullptr;
  for (const auto& resp : responses) {
    for (const auto& entry : resp.entries) {
      if (budget != 0 && hits->size() >= budget) {
        truncated = true;
        break;
      }
      IndexHit hit;
      if (!DecodeIndexRow(entry.key, &hit.value_encoded, &hit.base_row)) {
        hits->clear();
        return Status::Corruption("malformed index row in " +
                                  index_.index_table);
      }
      hit.ts = entry.ts;
      hits->push_back(std::move(hit));
      last_key = &entry.key;
    }
    if (truncated || resp.more) {
      truncated = true;
      break;
    }
  }
  const uint64_t scanned = hits->size();
  const bool done =
      !truncated || (spec_.limit != 0 && returned_ + scanned >= spec_.limit);

  // Where the cursor goes once this page succeeds. Index rows contain no
  // 0x00, so key + '\0' restarts strictly after the last returned entry
  // while excluding nothing else.
  std::string next_cursor;
  if (last_key != nullptr) {
    next_cursor.reserve(last_key->size() + 1);
    next_cursor.append(*last_key).push_back('\0');
  } else {
    next_cursor = cursor_;
  }
  const std::string& merge_end = done ? end_key_ : next_cursor;

  // Uncovered pages: the fetched rows, keyed by `keys` — the hits' first,
  // then any session private rows; *rows takes the hits' share.
  std::vector<std::string> keys;
  std::vector<RowResult> fetched;
  if (rows != nullptr) {
    DIFFINDEX_RETURN_NOT_OK(
        FetchRows(pool, *hits, merge_end, &keys, &fetched));
    rows->assign(std::make_move_iterator(fetched.begin()),
                 std::make_move_iterator(fetched.begin() + hits->size()));
  }

  if (index_.scheme == IndexScheme::kSyncInsert) {
    DIFFINDEX_RETURN_NOT_OK(BatchedRepairHits(raw, pool, client->stats(),
                                              spec_.table, index_, hits,
                                              rows));
  }

  if (options_.session != 0) {
    if (rows != nullptr) {
      // Keep the private rows and append the surviving hits' rows, so a
      // row fetched twice pairs with the version its hit was checked
      // against (AlignRows: the last key wins).
      keys.erase(keys.begin(), keys.begin() + scanned);
      fetched.erase(fetched.begin(), fetched.begin() + scanned);
      for (size_t i = 0; i < hits->size(); i++) {
        keys.push_back((*hits)[i].base_row);
        fetched.push_back(std::move((*rows)[i]));
      }
    }
    // Page windows are disjoint and in index order, and MergeHits keeps
    // (value, base_row) order inside the window, so the merged stream
    // stays globally ordered.
    DIFFINDEX_RETURN_NOT_OK(client->sessions()->MergeHits(
        options_.session, index_.index_table, cursor_, merge_end, hits,
        /*degraded=*/nullptr));
    if (rows != nullptr) AlignRows(*hits, keys, fetched, rows);
  }

  returned_ += scanned;
  cursor_ = std::move(next_cursor);
  exhausted_ = done;
  return Status::OK();
}

Status IndexScanner::FetchRows(ThreadPool* pool,
                               const std::vector<IndexHit>& hits,
                               const std::string& merge_end,
                               std::vector<std::string>* keys,
                               std::vector<RowResult>* fetched) {
  DiffIndexClient* client = engine_->client_;
  Client* raw = client->raw_client();
  keys->reserve(hits.size());
  for (const auto& hit : hits) keys->push_back(hit.base_row);
  if (options_.session != 0) {
    DIFFINDEX_RETURN_NOT_OK(client->sessions()->PrivateRows(
        options_.session, index_.index_table, cursor_, merge_end, keys));
  }
  DIFFINDEX_RETURN_NOT_OK(
      raw->GetRows(spec_.table, *keys, kMaxTimestamp, fetched, pool));
  if (client->stats() != nullptr) {
    for (size_t i = 0; i < keys->size(); i++) client->stats()->AddBaseRead();
  }
  if (raw->metrics() != nullptr) {
    raw->metrics()->GetCounter("query.base_reads")->Add(keys->size());
  }
  return Status::OK();
}

Status IndexScanner::NextPage(ScanPage* page) {
  page->hits.clear();
  page->rows.clear();
  page->covered = false;
  if (exhausted_) return Status::OK();

  DiffIndexClient* client = engine_->client_;
  Client* raw = client->raw_client();
  obs::MetricsRegistry* metrics = raw->metrics();
  obs::SpanTimer span(metrics, raw->traces(), "query.page");

  const bool covered = options_.allow_covered &&
                       CoveredProjectionEligible(index_, spec_.projection);
  std::vector<IndexHit> hits;
  std::vector<RowResult> rows;  // parallel to hits; uncovered pages only
  uint64_t legs = 0;
  Status s = NextHits(&hits, &legs, covered ? nullptr : &rows);
  if (metrics != nullptr) metrics->GetCounter("query.legs")->Add(legs);
  DIFFINDEX_RETURN_NOT_OK(s);
  if (metrics != nullptr) metrics->GetCounter("query.pages")->Add();

  page->rows.reserve(hits.size());
  if (covered) {
    if (metrics != nullptr) metrics->GetCounter("query.covered")->Add();
    for (const auto& hit : hits) {
      ScannedRow row;
      if (!MaterializeCoveredRow(index_, spec_.projection, hit, &row)) {
        return Status::Corruption("undecodable index entry for covered scan");
      }
      page->rows.push_back(std::move(row));
    }
    page->covered = true;
  } else {
    for (size_t i = 0; i < hits.size(); i++) {
      if (!rows[i].found) continue;  // row vanished since the index scan
      ScannedRow row;
      row.row = hits[i].base_row;
      row.cells = std::move(rows[i].cells);
      ProjectCells(spec_.projection, &row);
      page->rows.push_back(std::move(row));
    }
  }
  page->hits = std::move(hits);
  return Status::OK();
}

// ---- ReadEngine ----

ReadEngine::ReadEngine(DiffIndexClient* client,
                       const ReadEngineOptions& options)
    : client_(client), options_(options) {}

ReadEngine::~ReadEngine() {
  MutexLock lock(pool_mu_);
  if (pool_ != nullptr) pool_->Shutdown();
}

ThreadPool* ReadEngine::pool() {
#ifdef DIFFINDEX_CHECK
  // The model checker's scheduler controls registered threads only, so
  // the instrumented build runs every fan-out inline.
  return nullptr;
#else
  MutexLock lock(pool_mu_);
  if (pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(
        std::max(1, options_.max_parallel_legs), "query");
  }
  return pool_.get();
#endif
}

void ReadEngine::BackoffBeforeRetry(int attempt) {
  int64_t ms = options_.retry_backoff_ms;
  for (int i = 1; i < attempt && ms < options_.retry_backoff_max_ms; i++) {
    ms *= 2;
  }
  ms = std::min<int64_t>(ms, options_.retry_backoff_max_ms);
  if (ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

Status ReadEngine::NewScan(const ScanSpec& spec, const ScanOptions& options,
                           std::unique_ptr<IndexScanner>* scanner) {
  IndexDescriptor index;
  DIFFINDEX_RETURN_NOT_OK(
      client_->FindIndex(spec.table, spec.index_name, &index));
  if (index.is_local) {
    return Status::InvalidArgument(
        "scatter-gather scan requires a global index: " + spec.index_name);
  }
  // ANALYZER_WAIVE(naked-new): private-ctor factory; make_unique cannot
  // reach the private constructor.
  scanner->reset(new IndexScanner(this, spec, options, std::move(index)));
  return Status::OK();
}

Status ReadEngine::ReadHits(ScanSpec spec, const ScanOptions& options,
                            IndexDescriptor index,
                            std::vector<IndexHit>* hits) {
  hits->clear();
  IndexScanner scanner(this, std::move(spec), options, std::move(index));
  std::vector<IndexHit> page;
  uint64_t legs = 0;
  while (!scanner.exhausted()) {
    DIFFINDEX_RETURN_NOT_OK(scanner.NextHits(&page, &legs, nullptr));
    if (hits->empty()) {
      hits->swap(page);
    } else {
      for (auto& hit : page) hits->push_back(std::move(hit));
    }
  }
  return Status::OK();
}

Status ReadEngine::ScanByIndex(const ScanSpec& spec,
                               const ScanOptions& options,
                               std::vector<ScannedRow>* rows,
                               std::vector<IndexHit>* hits) {
  rows->clear();
  if (hits != nullptr) hits->clear();

  std::unique_ptr<IndexScanner> scanner;
  DIFFINDEX_RETURN_NOT_OK(NewScan(spec, options, &scanner));

  const obs::TraceContext& ambient = obs::CurrentTraceContext();
  obs::ScopedTraceContext scope(
      ambient.active()
          ? ambient.Child()
          : obs::TraceContext::NewRoot(
                "scan_by_index", IndexSchemeName(scanner->index_.scheme)));

  ScanPage page;
  while (!scanner->exhausted()) {
    DIFFINDEX_RETURN_NOT_OK(scanner->NextPage(&page));
    for (auto& row : page.rows) rows->push_back(std::move(row));
    if (hits != nullptr) {
      for (auto& hit : page.hits) hits->push_back(std::move(hit));
    }
  }
  return Status::OK();
}

}  // namespace diffindex
