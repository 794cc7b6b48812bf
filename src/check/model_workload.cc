#include "check/model_workload.h"

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "check/oracle.h"
#include "check/scheduler.h"
#include "cluster/cluster.h"
#include "query/engine.h"

namespace diffindex {
namespace check {
namespace {

constexpr char kTable[] = "items";
constexpr char kIndexName[] = "by_title";
constexpr char kColumn[] = "title";

}  // namespace

RunOutcome RunModel(const ModelOptions& options,
                    const std::vector<int>& replay) {
  RunOutcome out;

  Scheduler::Options sched_options;
  sched_options.max_decisions = options.max_decisions;
  auto scheduler = std::make_unique<Scheduler>(sched_options);
  scheduler->Activate();
  scheduler->RegisterCurrentThread("main", /*daemon=*/false);

  // Setup runs single-threaded with the exploration window off: the
  // main thread holds the token throughout, so cluster construction is
  // never branched over and thread ids are deterministic.
  ClusterOptions cluster_options;
  cluster_options.num_servers = 1;
  cluster_options.regions_per_table = 1;
  cluster_options.auq.worker_threads = 1;
  cluster_options.auq.retry_backoff_ms = 0;
  cluster_options.auq.process_delay_ms = 0;
  cluster_options.auq.staleness_sample_every = 0;
  cluster_options.auq.drain_batch_size = options.drain_batch_size;
  if (options.group_commit) {
    cluster_options.server.wal_sync = wal::SyncMode::kGroupCommit;
    cluster_options.server.wal_group_window_micros = 0;
  }

  std::unique_ptr<Cluster> cluster;
  Status s = Cluster::Create(cluster_options, &cluster);
  if (s.ok()) s = cluster->master()->CreateTable(kTable);
  if (s.ok()) {
    IndexDescriptor index;
    index.name = kIndexName;
    index.column = kColumn;
    index.scheme = options.scheme;
    s = cluster->master()->CreateIndex(kTable, index);
  }

  const int num_writers = options.num_writers;
  const int ops = options.ops_per_writer;
  std::vector<std::unique_ptr<DiffIndexClient>> clients;
  std::vector<std::string> rows;
  std::vector<std::string> values;
  // Clients: one per writer, one for the oracle, plus one for the scan
  // reader when enabled.
  const int num_clients =
      num_writers + 1 + (options.scan_reader ? 1 : 0);
  if (s.ok()) {
    for (int i = 0; i < num_clients && s.ok(); ++i) {
      clients.push_back(cluster->NewDiffIndexClient());
      s = clients.back()->raw_client()->RefreshLayout();
    }
    for (int i = 0; i < num_writers; ++i) {
      rows.push_back(options.same_row ? "row0" : "row" + std::to_string(i));
      for (int j = 0; j < ops; ++j) {
        values.push_back("w" + std::to_string(i) + "v" + std::to_string(j));
      }
    }
    if (options.same_row) rows.resize(1);
  }
  if (!s.ok()) {
    // Setup failed before any interleaving existed — report and bail.
    // Release the scheduler BEFORE tearing the cluster down: its AUQ
    // workers are parked waiting for the token and can only be joined
    // once the run flips to release mode.
    out.violation = "model: setup failed: " + s.ToString();
    scheduler->FinishMainAndWait();
    clients.clear();
    cluster.reset();
    scheduler->Deactivate();
    return out;
  }

#ifdef DIFFINDEX_CHECK
  // The AUQ worker daemons register from their own threads at spawn, and
  // a thread's id is its registration order — part of the recorded
  // schedule. Wait for every daemon before the writers claim their ids,
  // or OS spawn timing decides which thread a recorded choice drives.
  scheduler->AwaitRegistered(
      1 + cluster_options.num_servers * cluster_options.auq.worker_threads);
#endif

  scheduler->SetReplay(replay);

  // One violation slot per driver thread (writers + optional scan
  // reader): no shared mutable state between the drivers, so the inline
  // checks add no synchronization of their own.
  std::vector<std::string> inline_violations(
      static_cast<size_t>(num_writers) + (options.scan_reader ? 1 : 0));
  const bool inline_checks =
      !options.same_row && (options.scheme == IndexScheme::kSyncFull ||
                            options.scheme == IndexScheme::kAsyncSession);

  const int registered_before = scheduler->RegisteredCount();
  std::vector<std::thread> writers;
  writers.reserve(num_writers);
  for (int i = 0; i < num_writers; ++i) {
    writers.emplace_back([&, i] {
      Scheduler* sched = scheduler.get();
      // Register strictly in writer-index order: thread ids are part of
      // the recorded schedule, so two runs of the same model must hand
      // the same id to the same writer — OS spawn order must not leak in.
      sched->AwaitRegistered(registered_before + i);
      sched->RegisterCurrentThread("writer", /*daemon=*/false);
      DiffIndexClient* client = clients[i].get();
      const std::string row =
          options.same_row ? "row0" : "row" + std::to_string(i);
      const bool use_session = options.scheme == IndexScheme::kAsyncSession;
      SessionId session{};
      if (use_session) session = client->GetSession();
      for (int j = 0; j < ops; ++j) {
        const std::string& value =
            values[static_cast<size_t>(i * ops + j)];
        Status ws;
        if (use_session) {
          ws = client->SessionPut(session, kTable, row,
                                  {Cell{kColumn, value, false}});
        } else {
          ws = client->PutColumn(kTable, row, kColumn, value);
        }
        if (!ws.ok()) {
          inline_violations[i] = "writer put failed: " + ws.ToString();
          break;
        }
        if (inline_checks) {
          std::vector<IndexHit> hits;
          if (use_session) {
            ws = client->SessionGetByIndex(session, kTable, kIndexName,
                                           value, &hits);
          } else {
            ws = client->GetByIndex(kTable, kIndexName, value, &hits);
          }
          bool found = false;
          for (const IndexHit& hit : hits) {
            if (hit.base_row == row) found = true;
          }
          if (!ws.ok() || !found) {
            inline_violations[i] =
                std::string(use_session ? "read-your-writes" : "causal") +
                ": put " + row + "=" + value +
                " not visible to the writer's own index read" +
                (ws.ok() ? "" : " (" + ws.ToString() + ")");
            break;
          }
        }
      }
      if (use_session) client->EndSession(session);
      if (options.flush_after_writes && i == num_writers - 1) {
        Status fs = client->raw_client()->FlushTable(kTable);
        if (!fs.ok() && inline_violations[i].empty()) {
          inline_violations[i] = "flush failed: " + fs.ToString();
        }
      }
      sched->UnregisterCurrentThread();
    });
  }
  if (options.scan_reader) {
    // Registers after every writer (ids are part of the schedule), then
    // drives paged scatter-gather scans with batched read-repair over
    // the whole index range while the writers run. Legs run inline
    // (max_parallel = 1): pool threads would escape the scheduler.
    writers.emplace_back([&] {
      Scheduler* sched = scheduler.get();
      sched->AwaitRegistered(registered_before + num_writers);
      sched->RegisterCurrentThread("scanner", /*daemon=*/false);
      DiffIndexClient* client =
          clients[static_cast<size_t>(num_writers) + 1].get();
      ReadEngine engine(client);
      ScanSpec spec;
      spec.table = kTable;
      spec.index_name = kIndexName;
      ScanOptions scan;
      scan.page_entries = 2;
      scan.max_parallel = 1;
      for (int pass = 0; pass < 2; ++pass) {
        std::vector<ScannedRow> scanned;
        Status rs = engine.ScanByIndex(spec, scan, &scanned);
        if (!rs.ok()) {
          inline_violations[static_cast<size_t>(num_writers)] =
              "scan reader failed: " + rs.ToString();
          break;
        }
      }
      sched->UnregisterCurrentThread();
    });
  }
  scheduler->AwaitRegistered(registered_before + num_writers +
                             (options.scan_reader ? 1 : 0));
  // From the first handover below, every multi-way choice is recorded
  // (and replayed from the forced prefix).
  scheduler->SetExplorationWindow(true);
  scheduler->FinishMainAndWait();
  for (std::thread& t : writers) t.join();

  // Under DIFFINDEX_CHECK the terminal quiescence already implies the
  // AUQ drained. In a plain build (schedule-string stress replay) the
  // workers run un-instrumented, so poll the queue down before the
  // oracle reads.
  for (int i = 0; i < 5000; ++i) {
    bool drained = true;
    for (NodeId id : cluster->server_ids()) {
      if (cluster->index_manager(id)->QueueDepth() > 0) drained = false;
    }
    if (drained) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  out.decisions = scheduler->decisions();
  out.diverged = scheduler->diverged();
  out.violation = scheduler->violation();
  if (out.violation.empty()) {
    for (const std::string& v : inline_violations) {
      if (!v.empty()) {
        out.violation = v;
        break;
      }
    }
  }

  // Terminal-state oracle + fingerprint, read through the spare client
  // in release mode (the run is over; these reads are uncontrolled).
  OracleInput oracle;
  oracle.client = clients[static_cast<size_t>(num_writers)].get();
  oracle.table = kTable;
  oracle.index_name = kIndexName;
  oracle.column = kColumn;
  oracle.scheme = options.scheme;
  oracle.rows = rows;
  oracle.values = values;
  oracle.points = &scheduler->points();
  OracleReport oracle_report = CheckTerminalState(oracle);
  out.fingerprint = oracle_report.fingerprint;
  if (out.violation.empty()) out.violation = oracle_report.violation;

  // Teardown order matters: the cluster joins its AUQ workers while the
  // scheduler still exists (their instrumentation hooks are pass-through
  // in release mode but still dereference the active scheduler).
  clients.clear();
  cluster.reset();
  scheduler->Deactivate();
  return out;
}

RunFn ModelRunner(const ModelOptions& options) {
  return [options](const std::vector<int>& prefix) {
    return RunModel(options, prefix);
  };
}

Schedule ToSchedule(const ModelOptions& options,
                    const std::vector<int>& choices) {
  Schedule schedule;
  schedule.kind = "check";
  schedule.set("scheme", IndexSchemeName(options.scheme));
  schedule.set_int("batch", options.drain_batch_size);
  schedule.set_int("writers", options.num_writers);
  schedule.set_int("ops", options.ops_per_writer);
  schedule.set_int("same_row", options.same_row ? 1 : 0);
  schedule.set_int("flush", options.flush_after_writes ? 1 : 0);
  schedule.set_int("group_commit", options.group_commit ? 1 : 0);
  schedule.set_int("scan", options.scan_reader ? 1 : 0);
  schedule.choices = choices;
  return schedule;
}

bool FromSchedule(const Schedule& schedule, ModelOptions* options,
                  std::vector<int>* choices) {
  if (schedule.kind != "check") return false;
  ModelOptions out;
  const std::string scheme = schedule.get("scheme", "async-simple");
  bool known = false;
  for (IndexScheme candidate :
       {IndexScheme::kSyncFull, IndexScheme::kSyncInsert,
        IndexScheme::kAsyncSimple, IndexScheme::kAsyncSession}) {
    if (scheme == IndexSchemeName(candidate)) {
      out.scheme = candidate;
      known = true;
    }
  }
  if (!known) return false;
  out.drain_batch_size =
      static_cast<int>(schedule.get_int("batch", out.drain_batch_size));
  out.num_writers =
      static_cast<int>(schedule.get_int("writers", out.num_writers));
  out.ops_per_writer =
      static_cast<int>(schedule.get_int("ops", out.ops_per_writer));
  out.same_row = schedule.get_int("same_row", out.same_row ? 1 : 0) != 0;
  out.flush_after_writes = schedule.get_int("flush", 0) != 0;
  out.group_commit = schedule.get_int("group_commit", 0) != 0;
  out.scan_reader = schedule.get_int("scan", 0) != 0;
  *options = out;
  *choices = schedule.choices;
  return true;
}

}  // namespace check
}  // namespace diffindex
