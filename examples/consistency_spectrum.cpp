// The Diff-Index consistency spectrum (Figure 4): one table per scheme,
// the same update applied to each, and a look at what a reader observes —
// when the index is right, when it is stale, and who pays which cost.
//
//   build/examples/example_consistency_spectrum

#include <cstdio>

#include "cluster/cluster.h"
#include "core/index_codec.h"

using namespace diffindex;

namespace {

void Drain(Cluster* cluster) {
  for (int i = 0; i < 2000; i++) {
    bool idle = true;
    for (NodeId id : cluster->server_ids()) {
      if (cluster->index_manager(id)->QueueDepth() > 0) idle = false;
    }
    if (idle) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// Entries physically present in the index table for a value (no repair,
// no filtering): shows what the maintenance scheme actually wrote.
size_t PhysicalEntries(DiffIndexClient* client, const std::string& table,
                       const std::string& value) {
  IndexDescriptor index;
  if (!client->FindIndex(table, "by_color", &index).ok()) return 0;
  std::vector<ScannedRow> rows;
  (void)client->raw_client()->ScanRows(index.index_table,
                                       IndexScanStartForValue(value),
                                       IndexScanEndForValue(value),
                                       kMaxTimestamp, 0, &rows);
  return rows.size();
}

}  // namespace

int main() {
  ClusterOptions options;
  options.num_servers = 3;
  // Sample every APS task so the staleness histogram below is dense.
  options.auq.staleness_sample_every = 1;
  std::unique_ptr<Cluster> cluster;
  if (!Cluster::Create(options, &cluster).ok()) return 1;
  auto client = cluster->NewDiffIndexClient();

  const struct {
    const char* table;
    IndexScheme scheme;
    const char* consistency;
  } kSchemes[] = {
      {"t_syncfull", IndexScheme::kSyncFull, "causal consistent"},
      {"t_syncinsert", IndexScheme::kSyncInsert,
       "causal consistent with read-repair"},
      {"t_async", IndexScheme::kAsyncSimple, "eventually consistent"},
      {"t_session", IndexScheme::kAsyncSession, "session consistent"},
  };

  for (const auto& entry : kSchemes) {
    (void)cluster->master()->CreateTable(entry.table);
    IndexDescriptor index;
    index.name = "by_color";
    index.column = "color";
    index.scheme = entry.scheme;
    (void)cluster->master()->CreateIndex(entry.table, index);
  }
  (void)client->raw_client()->RefreshLayout();

  printf("%-13s %-36s %-22s %s\n", "scheme", "consistency (Figure 4)",
         "entries after update", "reader sees");
  printf("%.90s\n",
         "-----------------------------------------------------------------"
         "-------------------------");

  for (const auto& entry : kSchemes) {
    // Insert then update the indexed column: blue -> green.
    (void)client->Put(entry.table, "42-item", {Cell{"color", "blue", false}});
    (void)client->Put(entry.table, "42-item",
                      {Cell{"color", "green", false}});

    const size_t stale_blue = PhysicalEntries(client.get(), entry.table,
                                              "blue");
    const size_t live_green = PhysicalEntries(client.get(), entry.table,
                                              "green");

    std::vector<IndexHit> hits_blue, hits_green;
    (void)client->GetByIndex(entry.table, "by_color", "blue", &hits_blue);
    (void)client->GetByIndex(entry.table, "by_color", "green", &hits_green);

    printf("%-13s %-36s blue:%zu green:%zu          "
           "blue->%zu rows, green->%zu rows\n",
           IndexSchemeName(entry.scheme), entry.consistency, stale_blue,
           live_green, hits_blue.size(), hits_green.size());
  }

  printf("\nAfter the asynchronous queues drain, every scheme converges:\n");
  Drain(cluster.get());
  for (const auto& entry : kSchemes) {
    std::vector<IndexHit> hits_blue, hits_green;
    (void)client->GetByIndex(entry.table, "by_color", "blue", &hits_blue);
    (void)client->GetByIndex(entry.table, "by_color", "green", &hits_green);
    printf("%-13s blue->%zu rows, green->%zu rows\n",
           IndexSchemeName(entry.scheme), hits_blue.size(),
           hits_green.size());
  }
  // Table 2, measured live: run a burst of updates per scheme and read the
  // I/O it cost out of the cluster's metrics registry — foreground work
  // (paid inside the client's put) vs. background work (paid later by the
  // APS), plus the staleness the deferral left behind.
  printf("\nWhat each update cost (Table 2, measured from the metrics\n");
  printf("registry; per-update averages over %d updates):\n", 50);
  printf("%-13s %8s %8s %8s %8s %8s %14s\n", "scheme", "fg bput", "fg iput",
         "fg bread", "bg iput", "bg bread", "staleness p95");
  for (const auto& entry : kSchemes) {
    const obs::MetricsSnapshot before = cluster->metrics()->Snapshot();
    const int kUpdates = 50;
    for (int i = 0; i < kUpdates; i++) {
      (void)client->Put(entry.table, "55-item",
                        {Cell{"color", i % 2 ? "teal" : "amber", false}});
    }
    Drain(cluster.get());
    const obs::MetricsSnapshot delta =
        cluster->metrics()->Snapshot().Delta(before);
    auto per_update = [&delta, kUpdates](const char* name) {
      auto it = delta.counters.find(name);
      const uint64_t count = it == delta.counters.end() ? 0 : it->second;
      return static_cast<double>(count) / kUpdates;
    };
    double staleness_p95_ms = 0;
    auto hist = delta.histograms.find("auq.staleness_micros");
    if (hist != delta.histograms.end() && hist->second.count > 0) {
      staleness_p95_ms =
          static_cast<double>(hist->second.Percentile(95)) / 1000.0;
    }
    printf("%-13s %8.1f %8.1f %8.1f %8.1f %8.1f %12.2fms\n",
           IndexSchemeName(entry.scheme), per_update("io.base_put"),
           per_update("io.index_put"), per_update("io.base_read"),
           per_update("io.async_index_put"),
           per_update("io.async_base_read"), staleness_p95_ms);
  }
  printf("(sync pays its index I/O in the foreground columns; async defers\n");
  printf("it to the background ones and shows up in staleness instead.)\n");

  printf("\nScheme selection guidance (Section 3.4): sync-full when read\n");
  printf("latency is critical; sync-insert when update latency is\n");
  printf("critical; async-simple when consistency is not a concern;\n");
  printf("async-session when read-your-write is needed.\n");
  return 0;
}
