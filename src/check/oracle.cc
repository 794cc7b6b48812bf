#include "check/oracle.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <string>

#include "core/index_codec.h"
#include "util/timestamp_oracle.h"

namespace diffindex {
namespace check {
namespace {

struct IndexEntry {
  std::string value;
  std::string base_row;
  Timestamp ts = 0;

  bool operator<(const IndexEntry& other) const {
    if (value != other.value) return value < other.value;
    if (base_row != other.base_row) return base_row < other.base_row;
    return ts < other.ts;
  }
};

uint64_t FnvMix(uint64_t h, const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

uint64_t FnvMixString(uint64_t h, const std::string& s) {
  h = FnvMix(h, s.data(), s.size());
  return FnvMix(h, "\0", 1);  // length delimiter
}

}  // namespace

OracleReport CheckTerminalState(const OracleInput& input) {
  OracleReport report;
  report.fingerprint = 1469598103934665603ULL;  // FNV offset basis
  auto fail = [&](std::string v) {
    if (report.violation.empty()) report.violation = std::move(v);
  };

  IndexDescriptor index;
  Status s =
      input.client->FindIndex(input.table, input.index_name, &index);
  if (!s.ok()) {
    fail("oracle: FindIndex failed: " + s.ToString());
    return report;
  }

  // Raw scan of the index table per candidate value — no read-repair, no
  // filtering: exactly what is physically in the index.
  std::set<IndexEntry> entries;
  for (const std::string& value : input.values) {
    std::vector<ScannedRow> rows;
    s = input.client->raw_client()->ScanRows(
        index.index_table, IndexScanStartForValue(value),
        IndexScanEndForValue(value), kMaxTimestamp, 0, &rows);
    if (!s.ok()) {
      fail("oracle: index scan failed: " + s.ToString());
      return report;
    }
    for (const ScannedRow& row : rows) {
      IndexEntry entry;
      std::string value_encoded;
      if (!DecodeIndexRow(row.row, &value_encoded, &entry.base_row)) continue;
      entry.value = value_encoded;
      for (const RowCell& cell : row.cells) entry.ts = cell.ts;
      entries.insert(std::move(entry));
    }
  }

  // Live base state at "now".
  std::map<std::string, std::pair<std::string, Timestamp>> base;
  for (const std::string& row : input.rows) {
    std::string value;
    Timestamp ts = 0;
    s = input.client->raw_client()->GetCell(input.table, row, input.column,
                                            kMaxTimestamp, &value, &ts);
    if (s.ok()) {
      base[row] = {value, ts};
    } else if (!s.IsNotFound()) {
      fail("oracle: base read failed: " + s.ToString());
      return report;
    }
  }

  // no-lost: every live base pair is indexed. Quiescence (the scheduler's
  // terminal condition) guarantees the AUQ has drained, so even the async
  // schemes must have converged by now.
  for (const auto& [row, vt] : base) {
    bool found = false;
    for (const IndexEntry& e : entries) {
      if (e.base_row == row && e.value == vt.first) {
        found = true;
        break;
      }
    }
    if (!found) {
      fail("no-lost: base " + row + "=" + vt.first + "@" +
           std::to_string(vt.second) + " has no index entry");
    }
  }

  // no-phantom: every index entry maps back to the live base value.
  // Sync-insert leaves stale entries by design (cleaned by Algorithm 2's
  // read-repair), so it is exempt.
  if (input.scheme != IndexScheme::kSyncInsert) {
    for (const IndexEntry& e : entries) {
      auto it = base.find(e.base_row);
      if (it == base.end() || it->second.first != e.value) {
        fail("no-phantom: index entry (" + e.value + ", " + e.base_row +
             ")@" + std::to_string(e.ts) + " has no live base row");
      }
    }
  }

  // Timestamp rule (§4.3): the entry's timestamp pins the base version it
  // indexes — a base read AT that timestamp returns that exact version.
  // Holds for stale sync-insert entries too (the version existed at T).
  for (const IndexEntry& e : entries) {
    if (e.ts == 0) continue;  // scan returned no cell timestamp
    std::string value;
    Timestamp version_ts = 0;
    s = input.client->raw_client()->GetCell(input.table, e.base_row,
                                            input.column, e.ts, &value,
                                            &version_ts);
    if (!s.ok() || version_ts != e.ts || value != e.value) {
      fail("timestamp-rule: entry (" + e.value + ", " + e.base_row + ")@" +
           std::to_string(e.ts) + " does not pin base version @" +
           std::to_string(e.ts) + " (got " +
           (s.ok() ? value + "@" + std::to_string(version_ts)
                   : s.ToString()) +
           ")");
    }
  }

  // Drain-before-flush (§5.3): the AUQ depth observed at every flush
  // drain barrier must be 0.
  if (input.points != nullptr) {
    for (const Scheduler::PointEvent& p : *input.points) {
      if (std::strcmp(p.tag, "rs.flush.drained_depth") == 0 && p.value != 0) {
        fail("drain-before-flush: AUQ depth " + std::to_string(p.value) +
             " at the flush drain barrier");
      }
    }
  }

  // Raw timestamps come from the wall clock and differ between two
  // executions of the *same* interleaving; only their relative order is
  // schedule-determined. Hash dense ranks so equal interleavings get
  // equal fingerprints (the DPOR soundness test compares these sets
  // across explorations).
  std::map<Timestamp, uint64_t> ts_rank;
  for (const IndexEntry& e : entries) ts_rank[e.ts];
  for (const auto& [row, vt] : base) ts_rank[vt.second];
  uint64_t next_rank = 0;
  for (auto& [ts, rank] : ts_rank) rank = next_rank++;

  for (const IndexEntry& e : entries) {
    report.fingerprint = FnvMixString(report.fingerprint, e.value);
    report.fingerprint = FnvMixString(report.fingerprint, e.base_row);
    const uint64_t rank = ts_rank[e.ts];
    report.fingerprint = FnvMix(report.fingerprint, &rank, sizeof(rank));
  }
  for (const auto& [row, vt] : base) {
    report.fingerprint = FnvMixString(report.fingerprint, row);
    report.fingerprint = FnvMixString(report.fingerprint, vt.first);
    const uint64_t rank = ts_rank[vt.second];
    report.fingerprint = FnvMix(report.fingerprint, &rank, sizeof(rank));
  }
  return report;
}

}  // namespace check
}  // namespace diffindex
