#include "core/session.h"

#include <algorithm>

#include "core/index_codec.h"

namespace diffindex {

SessionId SessionManager::CreateSession() {
  MutexLock lock(mu_);
  const SessionId id = next_id_++;
  Session session;
  session.last_active_micros = TimestampOracle::NowMicros();
  sessions_[id] = std::move(session);
  return id;
}

void SessionManager::EndSession(SessionId id) {
  MutexLock lock(mu_);
  sessions_.erase(id);
}

Status SessionManager::TouchLocked(SessionId id, Session** session) {
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return Status::SessionExpired("unknown or expired session " +
                                  std::to_string(id));
  }
  const uint64_t now = TimestampOracle::NowMicros();
  if (now - it->second.last_active_micros > options_.idle_limit_micros) {
    sessions_.erase(it);
    return Status::SessionExpired("session " + std::to_string(id) +
                                  " idle too long");
  }
  it->second.last_active_micros = now;
  *session = &it->second;
  return Status::OK();
}

Status SessionManager::RecordEntry(SessionId id,
                                   const std::string& index_table,
                                   const std::string& index_row, Timestamp ts,
                                   bool is_delete) {
  MutexLock lock(mu_);
  Session* session;
  DIFFINDEX_RETURN_NOT_OK(TouchLocked(id, &session));
  if (session->degraded) return Status::OK();  // merging already disabled

  auto& table = session->tables[index_table];
  auto it = table.find(index_row);
  if (it == table.end()) {
    session->memory_bytes +=
        index_table.size() + index_row.size() + sizeof(PrivateEntry);
    table[index_row] = PrivateEntry{ts, is_delete};
  } else if (ts >= it->second.ts) {
    it->second = PrivateEntry{ts, is_delete};
  }

  if (session->memory_bytes > options_.max_memory_bytes) {
    // Out-of-memory protection: drop the private tables and degrade this
    // session to plain async-simple semantics.
    session->tables.clear();
    session->memory_bytes = 0;
    session->degraded = true;
  }
  return Status::OK();
}

Status SessionManager::PrivateRows(SessionId id,
                                   const std::string& index_table,
                                   const std::string& range_start,
                                   const std::string& range_end,
                                   std::vector<std::string>* rows) {
  MutexLock lock(mu_);
  Session* session;
  DIFFINDEX_RETURN_NOT_OK(TouchLocked(id, &session));
  if (session->degraded) return Status::OK();
  auto table_it = session->tables.find(index_table);
  if (table_it == session->tables.end()) return Status::OK();
  const auto& priv = table_it->second;
  auto lo = priv.lower_bound(range_start);
  auto hi = range_end.empty() ? priv.end() : priv.lower_bound(range_end);
  for (auto it = lo; it != hi; ++it) {
    std::string value, row;
    if (it->second.is_delete || !DecodeIndexRow(it->first, &value, &row)) {
      continue;
    }
    rows->push_back(std::move(row));
  }
  return Status::OK();
}

Status SessionManager::MergeHits(SessionId id, const std::string& index_table,
                                 const std::string& range_start,
                                 const std::string& range_end,
                                 std::vector<IndexHit>* hits,
                                 bool* degraded) {
  MutexLock lock(mu_);
  Session* session;
  DIFFINDEX_RETURN_NOT_OK(TouchLocked(id, &session));
  if (degraded != nullptr) *degraded = session->degraded;
  if (session->degraded) return Status::OK();

  auto table_it = session->tables.find(index_table);
  if (table_it == session->tables.end()) return Status::OK();
  const auto& priv = table_it->second;

  // 1. Remove server hits that this session already superseded.
  std::vector<IndexHit> merged;
  merged.reserve(hits->size());
  for (IndexHit& hit : *hits) {
    const std::string index_row =
        EncodeIndexRow(hit.value_encoded, hit.base_row);
    auto it = priv.find(index_row);
    if (it != priv.end() && it->second.is_delete &&
        it->second.ts >= hit.ts) {
      continue;  // deleted by this session, server hasn't caught up
    }
    merged.push_back(std::move(hit));
  }

  // 2. Add private entries in range the server has not returned.
  auto lo = priv.lower_bound(range_start);
  auto hi = range_end.empty() ? priv.end() : priv.lower_bound(range_end);
  for (auto it = lo; it != hi; ++it) {
    if (it->second.is_delete) continue;
    IndexHit hit;
    if (!DecodeIndexRow(it->first, &hit.value_encoded, &hit.base_row)) {
      continue;
    }
    hit.ts = it->second.ts;
    bool already = false;
    for (const IndexHit& existing : merged) {
      if (existing.base_row == hit.base_row &&
          existing.value_encoded == hit.value_encoded) {
        already = true;
        break;
      }
    }
    if (!already) merged.push_back(std::move(hit));
  }

  std::sort(merged.begin(), merged.end(),
            [](const IndexHit& a, const IndexHit& b) {
              if (a.value_encoded != b.value_encoded) {
                return a.value_encoded < b.value_encoded;
              }
              return a.base_row < b.base_row;
            });
  *hits = std::move(merged);
  return Status::OK();
}

size_t SessionManager::CollectExpired() {
  MutexLock lock(mu_);
  const uint64_t now = TimestampOracle::NowMicros();
  size_t collected = 0;
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (now - it->second.last_active_micros > options_.idle_limit_micros) {
      it = sessions_.erase(it);
      collected++;
    } else {
      ++it;
    }
  }
  return collected;
}

size_t SessionManager::live_sessions() const {
  MutexLock lock(mu_);
  return sessions_.size();
}

bool SessionManager::IsLive(SessionId id) const {
  MutexLock lock(mu_);
  return sessions_.count(id) > 0;
}

size_t SessionManager::MemoryUsage(SessionId id) const {
  MutexLock lock(mu_);
  auto it = sessions_.find(id);
  return it == sessions_.end() ? 0 : it->second.memory_bytes;
}

}  // namespace diffindex
