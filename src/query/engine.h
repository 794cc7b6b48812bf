// Read-side query engine: paged, resumable index range scans that fan
// out across the index regions covering the key range (scatter-gather),
// with covered-index projections (query/covered.h) and batched
// read-repair for sync-insert (query/read_repair.h).
//
// This is the one read path over a global index. Each page issues one
// kIndexScan leg per overlapping region, merges the legs in region order
// (regions partition the keyspace, so the merge is a concatenation),
// decodes the entries, fetches the hits' base rows (uncovered NextPage
// only), runs sync-insert read-repair and the session merge.
// DiffIndexClient's GetByIndex/RangeByIndex (and their session variants)
// run the same step through ReadHits, without the row fetch.
//
// Fan-out: with ScanOptions::max_parallel > 1 every read step of a page
// — its index legs, its row fetch's per-server kGetRow batches and its
// sync-insert check's per-server MultiGets — runs on the engine's pool
// (ThreadPool::RunAll: the calling thread runs the last one) under the
// caller's trace context. A step with one leg or one server runs inline,
// so point reads pay no pool handoff. NextPage and the client's
// hits-only reads (ReadHits) share this rule. An uncovered sync-insert
// page verifies each hit against its fetched row, so it returns exactly
// the row versions its hits were checked against and costs K base reads
// for K hits.
//
// Per-page retry: a leg that lands on a moved region fails fast with
// WrongRegion (legs are addressed by region id); the engine refreshes
// the layout and retries the whole page — reads are idempotent, so the
// page-granular retry is safe. Row batches retry inside Client::GetRows.
//
// Observability: counters query.pages / query.legs / query.covered /
// query.base_reads (pages and legs count NextPage pages only), span
// stages query.page and query.repair, and the fault seam
// DIFFINDEX_FAILPOINT("query.merge") between leg gather and merge.

#ifndef DIFFINDEX_QUERY_ENGINE_H_
#define DIFFINDEX_QUERY_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "core/diff_index_client.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace diffindex {

struct ScanSpec {
  std::string table;       // base table
  std::string index_name;  // global index over `table`
  // Encoded-value range [lo, hi); empty = open on that side (use the
  // index_codec Encode*IndexValue helpers for typed columns).
  std::string value_lo_encoded;
  std::string value_hi_encoded;
  // Result columns; empty = all columns of the base row. When covered by
  // the index (query/covered.h) and the scan allows it, rows materialize
  // from the index entries alone — zero base reads.
  std::vector<std::string> projection;
  // Total index entries scanned across all pages; 0 = unlimited. Counted
  // before read-repair drops stale entries.
  uint32_t limit = 0;
};

struct ScanOptions {
  // Max index entries per page; 0 = unbounded (one page covers the
  // range, which is how DiffIndexClient's index reads run).
  uint32_t page_entries = 256;
  // >1: a page's legs, per-server row batches and per-server check
  // MultiGets run on the engine's thread pool (whose size,
  // ReadEngineOptions::max_parallel_legs, is the actual cap). <=1: they
  // run inline on the calling thread. A DIFFINDEX_CHECK build runs them
  // inline regardless (ReadEngine::pool), since the model checker's
  // scheduler cannot control pool threads.
  int max_parallel = 4;
  bool allow_covered = true;
  // Non-zero: merge this session's private entries into each page
  // (session consistency, Section 5.2). The merge can add entries beyond
  // page_entries/limit — a server-side limit would make the private-entry
  // merge ambiguous, so limits count scanned entries only.
  SessionId session = 0;
};

struct ScanPage {
  // Verified hits in index order (encoded value, then base row).
  std::vector<IndexHit> hits;
  // Materialized result rows. One per hit for covered pages; otherwise
  // the fetched base rows, skipping rows that vanished between index scan
  // and fetch, so rows.size() <= hits.size().
  std::vector<ScannedRow> rows;
  bool covered = false;  // rows came from the index alone
};

struct ReadEngineOptions {
  int max_parallel_legs = 4;  // scatter-gather thread-pool size
  // Page-level retry on WrongRegion/Unavailable: capped-exponential
  // backoff starting at retry_backoff_ms, doubling to
  // retry_backoff_max_ms, up to max_page_retries attempts.
  int max_page_retries = 8;
  int retry_backoff_ms = 2;
  int retry_backoff_max_ms = 64;
};

class ReadEngine;

// One logical cursor over one index range. Not thread-safe. Resumable:
// persist cursor() after any page and hand it to a fresh scanner's
// SeekTo — the scan continues exactly after the last returned entry,
// across scanner instances and layout changes.
class IndexScanner {
 public:
  // Next page of results; an empty page with exhausted()==true means the
  // range is done. Retries layout/availability errors internally; other
  // errors (including armed query.merge failpoints and Corruption for an
  // undecodable index row) surface to the caller, leaving the cursor at
  // the failed page's start so the same page can be retried.
  Status NextPage(ScanPage* page);

  bool exhausted() const { return exhausted_; }

  // Opaque resume token: the index-row key the next page starts from.
  const std::string& cursor() const { return cursor_; }
  // Restarts this scanner at `cursor` (a token from cursor()). Resets
  // exhaustion and the limit accounting.
  void SeekTo(const std::string& cursor);

 private:
  friend class ReadEngine;
  IndexScanner(ReadEngine* engine, ScanSpec spec, const ScanOptions& options,
               IndexDescriptor index);

  // The step shared by NextPage and ReadEngine::ReadHits: gather (with
  // page retry), decode, sync-insert read-repair and the session merge,
  // then advance the cursor. Adds the legs it issued to *legs. `rows`
  // non-null (uncovered pages): also fetches every hit's base row —
  // parallel to *hits on return — in one kGetRow batch per base server,
  // and repair verifies each hit against its fetched row. `rows` null
  // (covered pages, ReadHits): repair reads the index columns with
  // per-server MultiGets. The step picks its pool once (null when
  // max_parallel <= 1) and hands it to all three fan-outs.
  Status NextHits(std::vector<IndexHit>* hits, uint64_t* legs,
                  std::vector<RowResult>* rows);

  // The row fetch of an uncovered page: *keys gets the base rows of
  // `hits`, then of the session's private entries on [cursor_, merge_end)
  // (what the merge may add), and *fetched those rows, parallel — one
  // kGetRow batch per base server, on `pool` when non-null. Counts one
  // base read per row.
  Status FetchRows(ThreadPool* pool, const std::vector<IndexHit>& hits,
                   const std::string& merge_end,
                   std::vector<std::string>* keys,
                   std::vector<RowResult>* fetched);

  // One scatter-gather round: fans a leg out per index region overlapping
  // [cursor_, end_key_), each asking for at most `budget` entries (0 = no
  // cap), and returns the leg responses in region order — on `pool` when
  // non-null and there is more than one leg. Adds the legs it issued to
  // *legs.
  Status GatherOnce(ThreadPool* pool, uint32_t budget,
                    std::vector<IndexScanResponse>* responses,
                    uint64_t* legs);

  ReadEngine* const engine_;
  const ScanSpec spec_;
  const ScanOptions options_;
  const IndexDescriptor index_;
  std::string cursor_;   // next index-row key (inclusive)
  std::string end_key_;  // exclusive; empty = unbounded
  bool exhausted_ = false;
  uint64_t returned_ = 0;  // scanned entries counted against spec_.limit
};

class ReadEngine {
 public:
  explicit ReadEngine(DiffIndexClient* client,
                      const ReadEngineOptions& options = ReadEngineOptions());
  ~ReadEngine();

  ReadEngine(const ReadEngine&) = delete;
  ReadEngine& operator=(const ReadEngine&) = delete;

  // Resolves the index and returns a scanner positioned at the range
  // start. Fails if the index does not exist or is local (local indexes
  // keep their broadcast path in DiffIndexClient — their entries live
  // inside base regions, so region-addressed legs do not apply).
  Status NewScan(const ScanSpec& spec, const ScanOptions& options,
                 std::unique_ptr<IndexScanner>* scanner);

  // Verified hits of the whole of spec's range over the already-resolved
  // global `index`, without row materialisation (spec.projection and
  // options.allow_covered are ignored). Pages are not counted in
  // query.pages/query.legs.
  Status ReadHits(ScanSpec spec, const ScanOptions& options,
                  IndexDescriptor index, std::vector<IndexHit>* hits);

  // Convenience: drives a scan to completion, concatenating every page.
  // hits may be null.
  Status ScanByIndex(const ScanSpec& spec, const ScanOptions& options,
                     std::vector<ScannedRow>* rows,
                     std::vector<IndexHit>* hits = nullptr);

  DiffIndexClient* client() { return client_; }

 private:
  friend class IndexScanner;

  // Lazily created pool for index legs, row batches and check reads:
  // reads with max_parallel <= 1 never spawn threads. Null in a
  // DIFFINDEX_CHECK build, so model-checked runs stay inline.
  ThreadPool* pool() EXCLUDES(pool_mu_);
  void BackoffBeforeRetry(int attempt);

  DiffIndexClient* const client_;
  const ReadEngineOptions options_;

  Mutex pool_mu_;
  std::unique_ptr<ThreadPool> pool_ GUARDED_BY(pool_mu_);
};

}  // namespace diffindex

#endif  // DIFFINDEX_QUERY_ENGINE_H_
