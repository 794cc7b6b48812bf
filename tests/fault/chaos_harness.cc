#include "chaos_harness.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <map>
#include <set>
#include <thread>

#include "check/model_workload.h"
#include "check/schedule.h"
#include "cluster/checkpoint.h"
#include "cluster/cluster.h"
#include "core/index_codec.h"
#include "fault/failpoint.h"
#include "fault/fault_env.h"
#include "util/env.h"

namespace diffindex {
namespace chaos {
namespace {

const char* SchemeName(IndexScheme scheme) {
  switch (scheme) {
    case IndexScheme::kSyncFull:
      return "sync-full";
    case IndexScheme::kSyncInsert:
      return "sync-insert";
    case IndexScheme::kAsyncSimple:
      return "async-simple";
    case IndexScheme::kAsyncSession:
      return "async-session";
  }
  return "unknown";
}

constexpr int kNumValues = 6;

std::string ValueName(int i) { return "v" + std::to_string(i); }

std::string RowName(int i) {
  // Spread rows across the hex keyspace so every region sees traffic.
  char buf[16];
  snprintf(buf, sizeof(buf), "%02x-r%03d", (i * 37) % 256, i);
  return buf;
}

// Shadow oracle: what the base table may legitimately hold per row, given
// which ops were acknowledged. A failed op may or may not have applied
// (e.g. applied server-side but the response was dropped), so failures
// only widen the possible set.
struct Oracle {
  struct RowState {
    std::set<std::string> possible;
    bool may_be_absent = true;
  };
  std::map<std::string, RowState> rows;

  void PutOk(const std::string& row, const std::string& value) {
    RowState& st = rows[row];
    st.possible = {value};
    st.may_be_absent = false;
  }
  void PutFailed(const std::string& row, const std::string& value) {
    rows[row].possible.insert(value);
  }
  void DeleteOk(const std::string& row) {
    RowState& st = rows[row];
    st.possible.clear();
    st.may_be_absent = true;
  }
  void DeleteFailed(const std::string& row) {
    rows[row].may_be_absent = true;
  }
  bool Definite(const std::string& row) const {
    auto it = rows.find(row);
    return it != rows.end() && it->second.possible.size() == 1 &&
           !it->second.may_be_absent;
  }
};

enum class Event {
  kQuiet,
  kFlush,
  kKill,
  kSilentCrash,
  kKillMidCompaction,
  kAddServer,
  kPartition,
  kFailpoints,
  kEnvFaults,
  kNetFaults,
};

const char* EventName(Event e) {
  switch (e) {
    case Event::kQuiet: return "quiet";
    case Event::kFlush: return "flush";
    case Event::kKill: return "kill";
    case Event::kSilentCrash: return "silent-crash";
    case Event::kKillMidCompaction: return "kill-mid-compaction";
    case Event::kAddServer: return "add-server";
    case Event::kPartition: return "partition";
    case Event::kFailpoints: return "failpoints";
    case Event::kEnvFaults: return "env-faults";
    case Event::kNetFaults: return "net-faults";
  }
  return "?";
}

// Failpoints safe to arm probabilistically during chaos. auq.enqueue and
// auq.drain are deliberately absent: they silently LOSE work (that is their
// purpose — proving the harness catches real invariant breaks) and would
// turn every schedule into a failure. region.open stays off so recovery
// cannot wedge.
const char* const kChaosFailpoints[] = {
    "wal.append", "wal.sync",     "lsm.flush",       "lsm.sst_write",
    "auq.process", "index.put",   "index.delete",    "index.read_base",
    // Checkpointed-recovery seams: a failed checkpoint write is tolerated
    // (stale checkpoints only widen replay) and a fired wal.gc skips one
    // GC pass (a stalled collector), so both are safe to arm randomly.
    "checkpoint.write", "wal.gc",
};

bool WaitAuqDrained(Cluster* cluster, int timeout_ms) {
  for (int i = 0; i < timeout_ms; i++) {
    bool idle = true;
    for (NodeId id : cluster->server_ids()) {
      IndexManager* im = cluster->index_manager(id);
      if (im != nullptr && im->QueueDepth() > 0) idle = false;
    }
    if (idle) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

ClusterOptions MakeClusterOptions(const ChaosOptions& opt, Env* env) {
  ClusterOptions copt;
  copt.num_servers = opt.num_servers;
  copt.regions_per_table = 6;
  copt.auq.retry_backoff_ms = 1;
  if (opt.scheme == IndexScheme::kAsyncSession) {
    // Keep the APS visibly behind the base writes so read-your-writes is a
    // meaningful property (the session cache, not luck, must provide it).
    copt.auq.process_delay_ms = 2;
  }
  // Fast client retries: crash/partition windows cost milliseconds, not
  // the production-profile hundreds of ms, so schedules stay quick.
  copt.client.retry_backoff_ms = 1;
  copt.client.retry_backoff_max_ms = 8;
  copt.client.retry_jitter_seed = opt.seed ^ 0x5eedULL;
  copt.env = env;
  return copt;
}

Status CreateIndexedTable(Cluster* cluster, IndexScheme scheme) {
  DIFFINDEX_RETURN_NOT_OK(cluster->master()->CreateTable("t"));
  IndexDescriptor index;
  index.name = "by_c";
  index.column = "c";
  index.scheme = scheme;
  return cluster->master()->CreateIndex("t", index);
}

}  // namespace

std::string FormatChaosSchedule(const ChaosOptions& options) {
  check::Schedule schedule;
  schedule.kind = "chaos";
  schedule.set("seed", std::to_string(options.seed));
  schedule.set("scheme", SchemeName(options.scheme));
  schedule.set_int("servers", options.num_servers);
  schedule.set_int("rounds", options.rounds);
  schedule.set_int("ops", options.ops_per_round);
  schedule.set_int("keys", options.key_space);
  schedule.set_int("crashes", options.enable_crashes ? 1 : 0);
  schedule.set_int("partitions", options.enable_partitions ? 1 : 0);
  schedule.set_int("env", options.enable_env_faults ? 1 : 0);
  schedule.set_int("failpoints", options.enable_failpoints ? 1 : 0);
  schedule.set_int("net", options.enable_net_faults ? 1 : 0);
  return check::FormatSchedule(schedule);
}

bool ParseChaosSchedule(const std::string& text, ChaosOptions* options,
                        std::string* error) {
  check::Schedule schedule;
  if (!check::ParseSchedule(text, &schedule, error)) return false;
  if (schedule.kind != "chaos") {
    *error = "not a chaos schedule (kind \"" + schedule.kind + "\")";
    return false;
  }
  ChaosOptions out;
  out.seed = strtoull(schedule.get("seed", "1").c_str(), nullptr, 10);
  const std::string scheme = schedule.get("scheme", "async-simple");
  bool known = false;
  for (IndexScheme candidate :
       {IndexScheme::kSyncFull, IndexScheme::kSyncInsert,
        IndexScheme::kAsyncSimple, IndexScheme::kAsyncSession}) {
    if (scheme == SchemeName(candidate)) {
      out.scheme = candidate;
      known = true;
    }
  }
  if (!known) {
    *error = "unknown scheme \"" + scheme + "\"";
    return false;
  }
  out.num_servers =
      static_cast<int>(schedule.get_int("servers", out.num_servers));
  out.rounds = static_cast<int>(schedule.get_int("rounds", out.rounds));
  out.ops_per_round =
      static_cast<int>(schedule.get_int("ops", out.ops_per_round));
  out.key_space = static_cast<int>(schedule.get_int("keys", out.key_space));
  out.enable_crashes = schedule.get_int("crashes", 1) != 0;
  out.enable_partitions = schedule.get_int("partitions", 1) != 0;
  out.enable_env_faults = schedule.get_int("env", 1) != 0;
  out.enable_failpoints = schedule.get_int("failpoints", 1) != 0;
  out.enable_net_faults = schedule.get_int("net", 1) != 0;
  *options = out;
  return true;
}

ChaosReport ReplaySchedule(const std::string& text) {
  ChaosReport report;
  check::Schedule schedule;
  std::string error;
  if (!check::ParseSchedule(text, &schedule, &error)) {
    report.violations.push_back("unparseable schedule: " + error);
    return report;
  }
  if (schedule.kind == "chaos") {
    ChaosOptions options;
    if (!ParseChaosSchedule(text, &options, &error)) {
      report.violations.push_back("bad chaos schedule: " + error);
      return report;
    }
    return RunChaosSchedule(options);
  }
  if (schedule.kind == "check") {
    check::ModelOptions model;
    std::vector<int> choices;
    if (!check::FromSchedule(schedule, &model, &choices)) {
      report.violations.push_back("bad check schedule: " + text);
      return report;
    }
    report.scheme = std::string("check/") + schedule.get("scheme");
    fprintf(stderr, "[chaos] replaying check schedule: %s\n", text.c_str());
    check::RunOutcome outcome = check::RunModel(model, choices);
    report.ops = model.num_writers * model.ops_per_writer;
    report.ok_ops = report.ops;
    if (outcome.diverged) {
      report.violations.push_back(
          "replay diverged from recorded choices (code changed since the "
          "schedule was captured?)");
    }
    if (!outcome.violation.empty()) {
      report.violations.push_back(outcome.violation);
    }
    return report;
  }
  report.violations.push_back("unknown schedule kind \"" + schedule.kind +
                              "\"");
  return report;
}

std::string ChaosReport::Summary() const {
  char head[256];
  snprintf(head, sizeof(head),
           "[chaos] seed=%llu scheme=%s ops=%d (ok=%d failed=%d) crashes=%d "
           "partitions=%d env=%d failpoints=%d net=%d flushes=%d "
           "violations=%zu",
           static_cast<unsigned long long>(seed), scheme.c_str(), ops, ok_ops,
           failed_ops, crashes, partition_rounds, env_fault_rounds,
           failpoint_rounds, net_fault_rounds, flush_rounds,
           violations.size());
  std::string out = head;
  for (size_t i = 0; i < violations.size() && i < 8; i++) {
    out += "\n  violation: " + violations[i];
  }
  if (violations.size() > 8) out += "\n  ...";
  return out;
}

ChaosReport RunChaosSchedule(const ChaosOptions& opt) {
  ChaosReport report;
  report.seed = opt.seed;
  report.scheme = SchemeName(opt.scheme);
  fprintf(stderr, "[chaos] seed=%llu scheme=%s starting\n",
          static_cast<unsigned long long>(opt.seed), report.scheme.c_str());

  auto violation = [&](const std::string& what) {
    report.violations.push_back(what);
  };

  // Cleanup is declared first (destroyed last): whatever happens, the next
  // test starts with nothing armed.
  fault::ScopedFailpointCleanup cleanup;
  Random rng(opt.seed);
  fault::FaultEnv fenv(Env::Default());
  fenv.SetSeed(opt.seed ^ 0xe17aULL);

  std::unique_ptr<Cluster> cluster;
  Status s = Cluster::Create(MakeClusterOptions(opt, &fenv), &cluster);
  if (!s.ok()) {
    violation("cluster create failed: " + s.ToString());
    return report;
  }
  fenv.SetMetrics(cluster->metrics());
  cluster->fabric()->SetFaultSeed(opt.seed ^ 0xfab1ULL);

  s = CreateIndexedTable(cluster.get(), opt.scheme);
  if (!s.ok()) {
    violation("table setup failed: " + s.ToString());
    return report;
  }
  auto client = cluster->NewDiffIndexClient();
  (void)client->raw_client()->RefreshLayout();

  // kCrash failpoints must not crash from the hitting thread (it may BE a
  // server thread); the handler only requests, the driver loop executes.
  std::atomic<int> crash_requests{0};
  auto* failpoints = fault::FailpointRegistry::Global();
  failpoints->SetCrashHandler(
      [&crash_requests](const std::string&) { crash_requests.fetch_add(1); });

  std::vector<std::string> rows;
  for (int i = 0; i < opt.key_space; i++) rows.push_back(RowName(i));

  Oracle oracle;
  const bool use_session = opt.scheme == IndexScheme::kAsyncSession;
  SessionId session = use_session ? client->GetSession() : 0;

  NodeId next_server_id = static_cast<NodeId>(opt.num_servers + 1);

  auto live_count = [&] { return cluster->server_ids().size(); };
  auto random_live_server = [&]() -> NodeId {
    std::vector<NodeId> ids = cluster->server_ids();
    return ids[rng.Uniform(ids.size())];
  };
  auto service_crash_requests = [&] {
    while (crash_requests.fetch_sub(1) > 0) {
      if (live_count() > 2) {
        (void)cluster->KillServer(random_live_server());
        report.crashes++;
      }
    }
    crash_requests.store(0);
  };

  auto do_op = [&] {
    report.ops++;
    const double roll = rng.NextDouble();
    if (roll < 0.60) {
      const std::string& row = rows[rng.Uniform(rows.size())];
      const std::string value = ValueName(static_cast<int>(
          rng.Uniform(kNumValues)));
      Status ps;
      if (use_session) {
        ps = client->SessionPut(session, "t", row,
                                {Cell{"c", value, false}});
      } else {
        ps = client->PutColumn("t", row, "c", value);
      }
      if (ps.ok()) {
        report.ok_ops++;
        oracle.PutOk(row, value);
        if (use_session) {
          // Read-your-writes: the session that acked this put must see it
          // in its own index reads immediately, chaos or not. Errors are
          // tolerated (the read may hit a dead node); an OK read that
          // misses the write is a contract violation.
          std::vector<IndexHit> hits;
          Status rs =
              client->SessionGetByIndex(session, "t", "by_c", value, &hits);
          if (rs.ok()) {
            bool found = false;
            for (const IndexHit& h : hits) {
              if (h.base_row == row) found = true;
            }
            if (!found) {
              violation("read-your-writes violated: session put of " + row +
                        "=" + value + " invisible to its own index read");
            }
          }
        }
      } else {
        report.failed_ops++;
        oracle.PutFailed(row, value);
      }
    } else if (roll < 0.72) {
      const std::string& row = rows[rng.Uniform(rows.size())];
      Status ds = client->DeleteColumns("t", row, {"c"});
      if (ds.ok()) {
        report.ok_ops++;
        oracle.DeleteOk(row);
      } else {
        report.failed_ops++;
        oracle.DeleteFailed(row);
      }
    } else {
      // Read-check: a row whose state the oracle knows exactly must read
      // back exactly, even mid-chaos (read errors are tolerated; wrong or
      // missing data is not — acked writes survive crashes).
      const size_t start = rng.Uniform(rows.size());
      for (size_t k = 0; k < rows.size(); k++) {
        const std::string& row = rows[(start + k) % rows.size()];
        if (!oracle.Definite(row)) continue;
        std::string got;
        Status gs = client->Get("t", row, "c", &got);
        if (gs.ok()) {
          report.ok_ops++;
          if (oracle.rows[row].possible.count(got) == 0) {
            violation("read-check: row " + row + " returned '" + got +
                      "' not in oracle set");
          }
        } else if (gs.IsNotFound()) {
          report.ok_ops++;
          violation("read-check: acked write to row " + row +
                    " lost mid-chaos (NotFound)");
        } else {
          report.failed_ops++;
        }
        break;
      }
    }
  };

  // ---- Chaos rounds: one fault event per round, ops under it ----

  std::vector<std::pair<NodeId, NodeId>> open_partitions;
  for (int round = 0; round < opt.rounds; round++) {
    std::vector<Event> menu = {Event::kQuiet, Event::kFlush};
    if (opt.enable_crashes && live_count() > 2) {
      menu.push_back(Event::kKill);
      menu.push_back(Event::kSilentCrash);
      menu.push_back(Event::kKillMidCompaction);
      menu.push_back(Event::kAddServer);
    }
    if (opt.enable_partitions && live_count() >= 2) {
      menu.push_back(Event::kPartition);
      menu.push_back(Event::kPartition);
    }
    if (opt.enable_failpoints) {
      menu.push_back(Event::kFailpoints);
      menu.push_back(Event::kFailpoints);
    }
    if (opt.enable_env_faults) menu.push_back(Event::kEnvFaults);
    if (opt.enable_net_faults) menu.push_back(Event::kNetFaults);
    const Event event = menu[rng.Uniform(menu.size())];
    if (opt.verbose) {
      fprintf(stderr, "[chaos] seed=%llu round %d: %s\n",
              static_cast<unsigned long long>(opt.seed), round,
              EventName(event));
    }

    NodeId silent_victim = 0;
    switch (event) {
      case Event::kQuiet:
        break;
      case Event::kFlush:
        report.flush_rounds++;
        (void)client->raw_client()->FlushTable("t");
        break;
      case Event::kKill:
        report.crashes++;
        (void)cluster->KillServer(random_live_server());
        break;
      case Event::kSilentCrash:
        // Crash without telling the master; ops run against the hole until
        // the end of the round, when the failure is "detected".
        silent_victim = random_live_server();
        report.crashes++;
        (void)cluster->SilentlyCrashServer(silent_victim);
        break;
      case Event::kKillMidCompaction: {
        // Kill a server while its compactor merges: flush (each region
        // gains a store), compact the victim's regions on a side thread,
        // and kill it once a merge is queued or running.
        report.crashes++;
        (void)client->raw_client()->FlushTable("t");
        const NodeId victim = random_live_server();
        RegionServer* server = cluster->server(victim);
        std::thread compacting([server] {
          for (const RegionInfoWire& region : server->HostedRegions()) {
            (void)server->CompactRegion(region.table, region.region_id);
          }
        });
        obs::Gauge* pending =
            cluster->metrics()->GetGauge("lsm.compaction.pending");
        for (int i = 0; i < 2000 && pending->value() == 0; i++) {
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
        (void)cluster->KillServer(victim);
        compacting.join();
        break;
      }
      case Event::kAddServer:
        (void)cluster->AddServer(next_server_id++);
        break;
      case Event::kPartition: {
        report.partition_rounds++;
        std::vector<NodeId> ids = cluster->server_ids();
        const NodeId a = ids[rng.Uniform(ids.size())];
        NodeId b = ids[rng.Uniform(ids.size())];
        if (a != b) {
          cluster->fabric()->SetPartitioned(a, b, true);
          open_partitions.emplace_back(a, b);
        }
        break;
      }
      case Event::kFailpoints: {
        report.failpoint_rounds++;
        int armed = 0;
        for (size_t i = 0; i < std::size(kChaosFailpoints); i++) {
          if (rng.NextDouble() < 0.35) {
            failpoints->Arm(kChaosFailpoints[i],
                            fault::FailpointPolicy::WithProbability(
                                0.05 + 0.20 * rng.NextDouble(),
                                opt.seed ^ (round * 131ULL + i)));
            armed++;
          }
        }
        if (rng.NextDouble() < 0.30) {
          // Rarely, a hit on the WAL append path "crashes the server"
          // (handler requests, driver loop executes on a random node).
          failpoints->Arm("wal.append", fault::FailpointPolicy::Crash(
                                            0.02, opt.seed ^ (round * 977ULL)));
          armed++;
        }
        if (armed == 0) {
          failpoints->Arm("auq.process",
                          fault::FailpointPolicy::WithProbability(
                              0.15, opt.seed ^ (round * 131ULL)));
        }
        break;
      }
      case Event::kEnvFaults: {
        report.env_fault_rounds++;
        fault::FaultEnv::Rule rule;
        if (rng.NextDouble() < 0.5) {
          // Torn WAL appends: files absorb a budget, then the crossing
          // append writes a prefix and fails (the server rolls the WAL).
          rule.path_substring = ".log";
          rule.kind = fault::FaultEnv::Rule::Kind::kShortWrite;
          rule.byte_budget = 512 + rng.Uniform(4096);
        } else {
          // Disk-full on SSTable builds: flushes fail, memtables must
          // survive.
          rule.path_substring = ".sst";
          rule.kind = fault::FaultEnv::Rule::Kind::kDiskFull;
          rule.byte_budget = rng.Uniform(512);
        }
        fenv.AddRule(rule);
        if (rng.NextDouble() < 0.5) {
          fault::FaultEnv::Rule read_rule;
          read_rule.path_substring = ".sst";
          read_rule.kind = fault::FaultEnv::Rule::Kind::kReadError;
          read_rule.probability = 0.1;
          fenv.AddRule(read_rule);
        }
        break;
      }
      case Event::kNetFaults: {
        report.net_fault_rounds++;
        Fabric::EdgeFault fault;
        fault.drop_probability = 0.05 + 0.10 * rng.NextDouble();
        fault.duplicate_probability = 0.05 + 0.10 * rng.NextDouble();
        fault.extra_latency_us =
            static_cast<uint32_t>(100 + rng.Uniform(900));
        cluster->fabric()->SetDefaultFault(fault);
        break;
      }
    }

    for (int op = 0; op < opt.ops_per_round; op++) {
      service_crash_requests();
      do_op();
      if (event == Event::kEnvFaults && op == opt.ops_per_round / 2 &&
          rng.NextDouble() < 0.5) {
        // Flush under active I/O faults: exercises the failed-flush
        // restore path.
        (void)client->raw_client()->FlushTable("t");
      }
    }

    // Heal this round's fault before the next one begins.
    switch (event) {
      case Event::kSilentCrash:
        (void)cluster->master()->OnServerDead(silent_victim);
        break;
      case Event::kPartition:
        for (const auto& [a, b] : open_partitions) {
          cluster->fabric()->SetPartitioned(a, b, false);
        }
        open_partitions.clear();
        break;
      case Event::kFailpoints:
        failpoints->DisarmAll();
        break;
      case Event::kEnvFaults:
        fenv.ClearRules();
        break;
      case Event::kNetFaults:
        cluster->fabric()->ClearFaults();
        break;
      default:
        break;
    }
    service_crash_requests();
  }

  // ---- Halt all faults, converge, verify ----

  failpoints->DisarmAll();
  fenv.ClearRules();
  cluster->fabric()->ClearFaults();
  for (const auto& [a, b] : open_partitions) {
    cluster->fabric()->SetPartitioned(a, b, false);
  }
  open_partitions.clear();
  crash_requests.store(0);
  if (use_session) client->EndSession(session);

  if (!WaitAuqDrained(cluster.get(), 20000)) {
    violation("AUQ failed to drain after faults were halted (convergence)");
  }
  (void)client->raw_client()->RefreshLayout();

  // Index view per value, through the scheme's own read path (sync-insert's
  // double-check-and-clean filters its by-design stale entries here).
  std::map<std::string, std::set<std::string>> index_rows;
  for (int v = 0; v < kNumValues; v++) {
    const std::string value = ValueName(v);
    std::vector<IndexHit> hits;
    Status is = client->GetByIndex("t", "by_c", value, &hits);
    if (!is.ok()) {
      violation("index read for '" + value +
                "' failed after convergence: " + is.ToString());
      continue;
    }
    for (const IndexHit& h : hits) {
      index_rows[value].insert(h.base_row);
      if (oracle.rows.count(h.base_row) == 0) {
        violation("phantom index entry: value '" + value +
                  "' references never-written row " + h.base_row);
      }
    }
  }

  for (const auto& [row, st] : oracle.rows) {
    std::string got;
    Status gs = client->Get("t", row, "c", &got);
    if (gs.IsNotFound()) {
      if (!st.may_be_absent) {
        violation("lost base write: row " + row +
                  " absent but an acked put was never deleted");
      }
      for (int v = 0; v < kNumValues; v++) {
        if (index_rows[ValueName(v)].count(row) > 0) {
          violation("phantom index entry: absent row " + row +
                    " still indexed under '" + ValueName(v) + "'");
        }
      }
    } else if (gs.ok()) {
      if (st.possible.count(got) == 0) {
        violation("base row " + row + " holds '" + got +
                  "', outside the oracle's possible set");
      }
      if (index_rows[got].count(row) == 0) {
        violation("lost index entry: row " + row + " holds '" + got +
                  "' but the index does not reference it");
      }
      for (int v = 0; v < kNumValues; v++) {
        const std::string other = ValueName(v);
        if (other != got && index_rows[other].count(row) > 0) {
          violation("phantom index entry: row " + row + " holds '" + got +
                    "' but is still indexed under '" + other + "'");
        }
      }
    } else {
      violation("base read of row " + row +
                " failed after convergence: " + gs.ToString());
    }
  }

  // Causal consistency spot-check for sync-full: with the cluster healthy,
  // a put must be index-visible the moment it is acknowledged, and an
  // update must retire the old entry just as promptly (Algorithm 1's
  // delete-at-ts-minus-delta).
  if (opt.scheme == IndexScheme::kSyncFull) {
    const std::string row = "zz-causal";
    for (const char* value : {"vc-a", "vc-b"}) {
      Status ps = client->PutColumn("t", row, "c", value);
      if (!ps.ok()) {
        violation(std::string("causal check put of '") + value +
                  "' failed on a healthy cluster: " + ps.ToString());
        continue;
      }
      std::vector<IndexHit> hits;
      Status is = client->GetByIndex("t", "by_c", value, &hits);
      bool found = false;
      for (const IndexHit& h : hits) {
        if (h.base_row == row) found = true;
      }
      if (!is.ok() || !found) {
        violation(std::string("causal consistency violated: acked put of '") +
                  value + "' not immediately index-visible");
      }
    }
    std::vector<IndexHit> stale;
    Status is = client->GetByIndex("t", "by_c", "vc-a", &stale);
    if (is.ok()) {
      for (const IndexHit& h : stale) {
        if (h.base_row == row) {
          violation("causal consistency violated: superseded entry 'vc-a' "
                    "still index-visible after the update was acked");
        }
      }
    }
  }

  fprintf(stderr, "%s\n", report.Summary().c_str());
  if (!report.ok()) {
    fprintf(stderr, "[chaos] replay with: %s\n",
            FormatChaosSchedule(opt).c_str());
  }
  return report;
}

ChaosReport RunBrokenDrainScenario(uint64_t seed, bool break_invariant) {
  ChaosReport report;
  report.seed = seed;
  report.scheme = std::string("async-simple/drain-") +
                  (break_invariant ? "broken" : "intact");
  fprintf(stderr, "[chaos] seed=%llu scenario=%s starting\n",
          static_cast<unsigned long long>(seed), report.scheme.c_str());

  fault::ScopedFailpointCleanup cleanup;
  Random rng(seed);

  ClusterOptions copt;
  copt.num_servers = 3;
  copt.regions_per_table = 6;
  copt.auq.retry_backoff_ms = 1;
  // Slow APS: the flush finds a non-empty queue, so skipping the drain
  // barrier actually strands undelivered tasks behind the flush point.
  copt.auq.process_delay_ms = 40;
  copt.auq.worker_threads = 1;
  copt.client.retry_backoff_ms = 1;
  copt.client.retry_backoff_max_ms = 8;
  copt.client.retry_jitter_seed = seed;

  std::unique_ptr<Cluster> cluster;
  Status s = Cluster::Create(copt, &cluster);
  if (!s.ok()) {
    report.violations.push_back("cluster create failed: " + s.ToString());
    return report;
  }
  s = CreateIndexedTable(cluster.get(), IndexScheme::kAsyncSimple);
  if (!s.ok()) {
    report.violations.push_back("table setup failed: " + s.ToString());
    return report;
  }
  auto client = cluster->NewDiffIndexClient();
  (void)client->raw_client()->RefreshLayout();

  // Rows whose BASE region lives on the victim: their WAL edits are what
  // the broken flush strands.
  const NodeId victim = 1 + static_cast<NodeId>(rng.Uniform(3));
  std::vector<std::string> victim_rows;
  for (int i = 0; i < 256 && victim_rows.size() < 8; i++) {
    const std::string row = RowName(i);
    RegionInfoWire info;
    if (client->raw_client()->RouteRow("t", row, &info).ok() &&
        info.server_id == victim) {
      victim_rows.push_back(row);
    }
  }
  const std::string value = "vD";
  for (const std::string& row : victim_rows) {
    report.ops++;
    Status ps = client->PutColumn("t", row, "c", value);
    if (ps.ok()) {
      report.ok_ops++;
    } else {
      report.failed_ops++;
      report.violations.push_back("setup put failed: " + ps.ToString());
    }
  }

  if (break_invariant) {
    // Skip the Section 5.3 drain-before-flush barrier on every flush.
    fault::FailpointRegistry::Global()->Arm(
        "auq.drain", fault::FailpointPolicy::ErrorEveryNth(1));
  }
  (void)client->raw_client()->FlushTable("t");
  fault::FailpointRegistry::Global()->DisarmAll();

  // Crash the victim (its AUQ backlog dies with it) and recover. Replay
  // only re-enqueues edits past the flush point — with the barrier broken,
  // the flushed-but-undelivered tasks are gone for good.
  report.crashes++;
  (void)cluster->SilentlyCrashServer(victim);
  (void)cluster->master()->OnServerDead(victim);

  if (!WaitAuqDrained(cluster.get(), 20000)) {
    report.violations.push_back("AUQ failed to drain after recovery");
  }
  (void)client->raw_client()->RefreshLayout();

  std::set<std::string> indexed;
  std::vector<IndexHit> hits;
  Status is = client->GetByIndex("t", "by_c", value, &hits);
  if (!is.ok()) {
    report.violations.push_back("index read failed: " + is.ToString());
  }
  for (const IndexHit& h : hits) indexed.insert(h.base_row);
  for (const std::string& row : victim_rows) {
    if (indexed.count(row) == 0) {
      report.violations.push_back("lost index entry: acked put of row " +
                                  row + " has no index entry after recovery");
    }
  }

  fprintf(stderr, "%s\n", report.Summary().c_str());
  return report;
}

ChaosReport RunRecoveryScenario(uint64_t seed, RecoveryScenario scenario) {
  ChaosReport report;
  report.seed = seed;
  switch (scenario) {
    case RecoveryScenario::kKillRecoveringOwner:
      report.scheme = "recovery/kill-recovering-owner";
      break;
    case RecoveryScenario::kCorruptCheckpoint:
      report.scheme = "recovery/corrupt-checkpoint";
      break;
    case RecoveryScenario::kGcRacesFailover:
      report.scheme = "recovery/gc-races-failover";
      break;
  }
  fprintf(stderr, "[chaos] seed=%llu scenario=%s starting\n",
          static_cast<unsigned long long>(seed), report.scheme.c_str());

  fault::ScopedFailpointCleanup cleanup;
  Random rng(seed);

  ClusterOptions copt;
  copt.num_servers = 4;
  copt.regions_per_table = 6;
  copt.client.retry_backoff_ms = 1;
  copt.client.retry_backoff_max_ms = 8;
  copt.client.retry_jitter_seed = seed ^ 0x4ecULL;
  if (scenario == RecoveryScenario::kGcRacesFailover) {
    // Tiny segments and a 1 ms sweep: the collector runs continuously
    // while the failover replays, maximizing the delete-vs-read race.
    copt.server.wal_segment_bytes = 2 << 10;
    copt.server.wal_gc_interval_ms = 1;
    copt.server.lsm.memtable_flush_bytes = 32 << 10;
  }

  std::unique_ptr<Cluster> cluster;
  Status s = Cluster::Create(copt, &cluster);
  if (!s.ok()) {
    report.violations.push_back("cluster create failed: " + s.ToString());
    return report;
  }
  s = cluster->master()->CreateTable("t");
  if (!s.ok()) {
    report.violations.push_back("table setup failed: " + s.ToString());
    return report;
  }
  auto client = cluster->NewClient();
  (void)client->RefreshLayout();

  // Acked writes the epilogue must find, whatever the scenario does.
  std::map<std::string, std::string> acked;
  auto put_phase = [&](int count, const std::string& tag) {
    for (int i = 0; i < count; i++) {
      const std::string row = RowName(i * 3 + static_cast<int>(tag.size()));
      const std::string value = tag + std::to_string(i);
      report.ops++;
      if (client->PutColumn("t", row, "c", value).ok()) {
        report.ok_ops++;
        acked[row] = value;
      } else {
        report.failed_ops++;
      }
    }
  };

  put_phase(40, "a");
  (void)client->FlushTable("t");  // flush checkpoints cover phase "a"
  put_phase(30, "b");             // lives in WAL + memtables only

  const NodeId victim = 1 + static_cast<NodeId>(rng.Uniform(4));
  switch (scenario) {
    case RecoveryScenario::kKillRecoveringOwner: {
      report.crashes += 2;
      (void)cluster->SilentlyCrashServer(victim);
      std::thread first(
          [&] { (void)cluster->master()->OnServerDead(victim); });
      // Kill a random survivor while the first failover is in flight; the
      // re-entrant OnServerDead must converge either way.
      std::this_thread::sleep_for(std::chrono::milliseconds(rng.Uniform(3)));
      std::vector<NodeId> ids = cluster->server_ids();
      const NodeId second = ids[rng.Uniform(ids.size())];
      (void)cluster->SilentlyCrashServer(second);
      (void)cluster->master()->OnServerDead(second);
      first.join();
      break;
    }
    case RecoveryScenario::kCorruptCheckpoint: {
      // Scribble every checkpoint the victim's regions wrote, then kill.
      for (const auto& info : cluster->master()->regions()) {
        if (info.server_id != victim) continue;
        const std::string path = RegionCheckpointPath(cluster->data_root(),
                                                      info.table,
                                                      info.region_id);
        std::unique_ptr<WritableFile> file;
        if (Env::Default()->NewWritableFile(path, &file).ok()) {
          (void)file->Append("scribble");
          (void)file->Close();
        }
      }
      report.crashes++;
      (void)cluster->KillServer(victim);
      break;
    }
    case RecoveryScenario::kGcRacesFailover: {
      // Keep writing (rolling + GC-ing segments) while the failover
      // replays the victim's log.
      std::atomic<bool> stop{false};
      std::thread writer([&] {
        auto wclient = cluster->NewClient();
        Random wrng(seed ^ 0x6cULL);
        int i = 0;
        while (!stop.load()) {
          (void)wclient->PutColumn("t", RowName(200 + (i++ % 40)), "pad",
                                   wrng.RandomBytes(300));
          if (i % 64 == 0) (void)wclient->FlushTable("t");
        }
      });
      report.crashes++;
      (void)cluster->KillServer(victim);
      stop.store(true);
      writer.join();
      break;
    }
  }

  (void)client->RefreshLayout();
  for (const auto& [row, value] : acked) {
    std::string got;
    Status rs = client->GetCell("t", row, "c", kMaxTimestamp, &got);
    if (!rs.ok()) {
      report.violations.push_back("lost acked write: row " + row + ": " +
                                  rs.ToString());
    } else if (got != value) {
      report.violations.push_back("wrong value for row " + row + ": got " +
                                  got + " want " + value);
    }
  }

  fprintf(stderr, "%s\n", report.Summary().c_str());
  return report;
}

}  // namespace chaos
}  // namespace diffindex
