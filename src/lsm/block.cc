#include "lsm/block.h"

#include <cassert>

#include "util/coding.h"

namespace diffindex {

BlockBuilder::BlockBuilder(int restart_interval)
    : restart_interval_(restart_interval) {
  restarts_.push_back(0);
}

void BlockBuilder::Reset() {
  buffer_.clear();
  restarts_.clear();
  restarts_.push_back(0);
  counter_ = 0;
  last_key_.clear();
  finished_ = false;
}

size_t BlockBuilder::CurrentSizeEstimate() const {
  return buffer_.size() + restarts_.size() * sizeof(uint32_t) +
         sizeof(uint32_t);
}

void BlockBuilder::Add(const Slice& key, const Slice& value) {
  assert(!finished_);
  size_t shared = 0;
  if (counter_ < restart_interval_) {
    // Longest common prefix with the previous key.
    const size_t min_len = std::min(last_key_.size(), key.size());
    while (shared < min_len && last_key_[shared] == key[shared]) {
      shared++;
    }
  } else {
    restarts_.push_back(static_cast<uint32_t>(buffer_.size()));
    counter_ = 0;
  }
  const size_t non_shared = key.size() - shared;

  PutVarint32(&buffer_, static_cast<uint32_t>(shared));
  PutVarint32(&buffer_, static_cast<uint32_t>(non_shared));
  PutVarint32(&buffer_, static_cast<uint32_t>(value.size()));
  buffer_.append(key.data() + shared, non_shared);
  buffer_.append(value.data(), value.size());

  last_key_.resize(shared);
  last_key_.append(key.data() + shared, non_shared);
  counter_++;
}

Slice BlockBuilder::Finish() {
  for (uint32_t restart : restarts_) {
    PutFixed32(&buffer_, restart);
  }
  PutFixed32(&buffer_, static_cast<uint32_t>(restarts_.size()));
  finished_ = true;
  return Slice(buffer_);
}

Block::Block(Slice contents) : full_(contents) {
  if (contents.size() < sizeof(uint32_t)) return;
  const uint32_t num_restarts =
      DecodeFixed32(contents.data() + contents.size() - sizeof(uint32_t));
  const size_t restart_bytes =
      (static_cast<size_t>(num_restarts) + 1) * sizeof(uint32_t);
  if (restart_bytes > contents.size()) return;
  data_ = Slice(contents.data(), contents.size() - restart_bytes);
  num_restarts_ = static_cast<int>(num_restarts);
}

uint32_t Block::RestartPoint(int index) const {
  return DecodeFixed32(full_.data() + data_.size() +
                       static_cast<size_t>(index) * sizeof(uint32_t));
}

class Block::Iter final : public RecordIterator {
 public:
  // Holds the (cheap) Block by value plus the cache handle, so the
  // iterator is self-contained.
  Iter(Block block, std::shared_ptr<const void> owner)
      : block_(std::move(block)), owner_(std::move(owner)) {}

  bool Valid() const override { return valid_; }

  void SeekToFirst() override {
    if (block_.num_restarts_ <= 0) {
      MarkCorrupt();
      return;
    }
    SeekToRestart(0);
    ParseNext();
  }

  void Seek(const Slice& target) override {
    if (block_.num_restarts_ <= 0) {
      MarkCorrupt();
      return;
    }
    // Binary search over restarts: last restart whose key < target.
    int lo = 0, hi = block_.num_restarts_ - 1;
    while (lo < hi) {
      const int mid = lo + (hi - lo + 1) / 2;
      Slice restart_key;
      if (!KeyAtRestart(mid, &restart_key)) {
        MarkCorrupt();
        return;
      }
      if (cmp_.Compare(restart_key, target) < 0) {
        lo = mid;
      } else {
        hi = mid - 1;
      }
    }
    SeekToRestart(lo);
    // Linear scan within the interval.
    while (true) {
      ParseNext();
      if (!valid_) return;
      if (cmp_.Compare(Slice(key_), target) >= 0) return;
    }
  }

  void Next() override {
    assert(valid_);
    ParseNext();
  }

  Slice key() const override { return Slice(key_); }
  Slice value() const override { return value_; }
  Status status() const override { return status_; }

 private:
  void SeekToRestart(int restart) {
    offset_ = block_.RestartPoint(restart);
    key_.clear();
    valid_ = false;
  }

  void MarkCorrupt() {
    valid_ = false;
    status_ = Status::Corruption("malformed block entry");
  }

  // Decodes the full key stored at a restart point (shared == 0 there).
  bool KeyAtRestart(int restart, Slice* key) const {
    const char* p = block_.data_.data() + block_.RestartPoint(restart);
    const char* limit = block_.data_.data() + block_.data_.size();
    uint32_t shared, non_shared, value_len;
    p = GetVarint32Ptr(p, limit, &shared);
    if (p == nullptr || shared != 0) return false;
    p = GetVarint32Ptr(p, limit, &non_shared);
    if (p == nullptr) return false;
    p = GetVarint32Ptr(p, limit, &value_len);
    if (p == nullptr || p + non_shared > limit) return false;
    *key = Slice(p, non_shared);
    return true;
  }

  void ParseNext() {
    const char* p = block_.data_.data() + offset_;
    const char* limit = block_.data_.data() + block_.data_.size();
    if (p >= limit) {
      valid_ = false;
      return;
    }
    uint32_t shared, non_shared, value_len;
    p = GetVarint32Ptr(p, limit, &shared);
    if (p != nullptr) p = GetVarint32Ptr(p, limit, &non_shared);
    if (p != nullptr) p = GetVarint32Ptr(p, limit, &value_len);
    if (p == nullptr || p + non_shared + value_len > limit ||
        shared > key_.size()) {
      MarkCorrupt();
      return;
    }
    key_.resize(shared);
    key_.append(p, non_shared);
    value_ = Slice(p + non_shared, value_len);
    offset_ = static_cast<uint32_t>((p + non_shared + value_len) -
                                    block_.data_.data());
    valid_ = true;
  }

  Block block_;
  std::shared_ptr<const void> owner_;
  InternalKeyComparator cmp_;
  uint32_t offset_ = 0;
  std::string key_;
  Slice value_;
  bool valid_ = false;
  Status status_;
};

std::unique_ptr<RecordIterator> Block::NewIterator(
    std::shared_ptr<const void> owner) const {
  return std::make_unique<Iter>(*this, std::move(owner));
}

}  // namespace diffindex
