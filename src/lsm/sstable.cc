#include "lsm/sstable.h"

#include <algorithm>
#include <cassert>

#include "fault/failpoint.h"
#include "util/bloom.h"
#include "util/coding.h"
#include "util/crc32c.h"

namespace diffindex {

namespace {

constexpr uint64_t kTableMagic = 0xd1ff1d8e5b10c4f3ull;
constexpr size_t kFooterSize = 48;

void AppendBlockTrailer(std::string* block) {
  PutFixed32(block, crc32c::Mask(crc32c::Value(block->data(), block->size())));
}

Status VerifyAndStripTrailer(std::string* block) {
  if (block->size() < 4) return Status::Corruption("block too small");
  const size_t payload = block->size() - 4;
  const uint32_t expected =
      crc32c::Unmask(DecodeFixed32(block->data() + payload));
  if (crc32c::Value(block->data(), payload) != expected) {
    return Status::Corruption("block checksum mismatch");
  }
  block->resize(payload);
  return Status::OK();
}

}  // namespace

SstBuilder::SstBuilder(const LsmOptions& options,
                       std::unique_ptr<WritableFile> file)
    : options_(options), file_(std::move(file)) {}

SstBuilder::~SstBuilder() = default;

Status SstBuilder::Add(const Slice& internal_key, const Slice& value) {
  assert(!finished_);
  ParsedInternalKey parsed;
  if (!ParseInternalKey(internal_key, &parsed)) {
    return Status::InvalidArgument("malformed internal key");
  }
  if (num_entries_ == 0) {
    smallest_user_key_ = parsed.user_key.ToString();
  }
  largest_user_key_ = parsed.user_key.ToString();

  if (filter_user_keys_.empty() ||
      Slice(filter_user_keys_.back()) != parsed.user_key) {
    filter_user_keys_.push_back(parsed.user_key.ToString());
  }

  data_block_.Add(internal_key, value);
  last_key_.assign(internal_key.data(), internal_key.size());
  num_entries_++;

  if (data_block_.CurrentSizeEstimate() >= options_.block_size) {
    return FlushDataBlock();
  }
  return Status::OK();
}

Status SstBuilder::FlushDataBlock() {
  if (data_block_.empty()) return Status::OK();
  std::string block = data_block_.Finish().ToString();
  data_block_.Reset();
  const uint64_t payload_size = block.size();
  AppendBlockTrailer(&block);
  DIFFINDEX_RETURN_NOT_OK(file_->Append(block));
  if (options_.latency != nullptr) options_.latency->DiskWriteBlock();

  PutVarint32(&index_block_, static_cast<uint32_t>(last_key_.size()));
  index_block_.append(last_key_);
  PutFixed64(&index_block_, block_first_offset_);
  PutFixed64(&index_block_, payload_size);

  offset_ += block.size();
  block_first_offset_ = offset_;
  return Status::OK();
}

Status SstBuilder::Finish(SstMeta* meta) {
  assert(!finished_);
  finished_ = true;
  DIFFINDEX_RETURN_NOT_OK(FlushDataBlock());

  // Filter block.
  const uint64_t filter_offset = offset_;
  std::string filter_block;
  if (options_.bloom_bits_per_key > 0) {
    std::vector<Slice> keys;
    keys.reserve(filter_user_keys_.size());
    for (const auto& k : filter_user_keys_) keys.emplace_back(k);
    BloomFilterPolicy policy(options_.bloom_bits_per_key);
    policy.CreateFilter(keys, &filter_block);
  }
  const uint64_t filter_size = filter_block.size();
  AppendBlockTrailer(&filter_block);
  DIFFINDEX_RETURN_NOT_OK(file_->Append(filter_block));
  offset_ += filter_block.size();

  // Index block.
  const uint64_t index_offset = offset_;
  const uint64_t index_size = index_block_.size();
  AppendBlockTrailer(&index_block_);
  DIFFINDEX_RETURN_NOT_OK(file_->Append(index_block_));
  offset_ += index_block_.size();

  // Footer.
  std::string footer;
  PutFixed64(&footer, index_offset);
  PutFixed64(&footer, index_size);
  PutFixed64(&footer, filter_offset);
  PutFixed64(&footer, filter_size);
  PutFixed64(&footer, num_entries_);
  PutFixed64(&footer, kTableMagic);
  assert(footer.size() == kFooterSize);
  DIFFINDEX_RETURN_NOT_OK(file_->Append(footer));
  offset_ += footer.size();

  DIFFINDEX_RETURN_NOT_OK(file_->Sync());
  DIFFINDEX_RETURN_NOT_OK(file_->Close());

  meta->file_size = offset_;
  meta->num_entries = num_entries_;
  meta->smallest_user_key = smallest_user_key_;
  meta->largest_user_key = largest_user_key_;
  return Status::OK();
}

Status SstReader::Open(const LsmOptions& options, const std::string& path,
                       uint64_t file_number,
                       std::shared_ptr<SstReader>* reader) {
  // ANALYZER_WAIVE(naked-new): private-ctor factory
  std::shared_ptr<SstReader> r(new SstReader(options, path, file_number));
  DIFFINDEX_RETURN_NOT_OK(
      options.env->NewRandomAccessFile(path, &r->file_));
  const uint64_t file_size = r->file_->Size();
  if (file_size < kFooterSize) {
    return Status::Corruption("sstable too small: " + path);
  }

  char footer_buf[kFooterSize];
  Slice footer;
  DIFFINDEX_RETURN_NOT_OK(r->file_->Read(file_size - kFooterSize, kFooterSize,
                                         &footer, footer_buf));
  if (footer.size() != kFooterSize) {
    return Status::Corruption("short footer read: " + path);
  }
  const uint64_t index_offset = DecodeFixed64(footer.data());
  const uint64_t index_size = DecodeFixed64(footer.data() + 8);
  const uint64_t filter_offset = DecodeFixed64(footer.data() + 16);
  const uint64_t filter_size = DecodeFixed64(footer.data() + 24);
  const uint64_t num_entries = DecodeFixed64(footer.data() + 32);
  const uint64_t magic = DecodeFixed64(footer.data() + 40);
  if (magic != kTableMagic) {
    return Status::Corruption("bad table magic: " + path);
  }

  // Load + verify filter block.
  {
    std::string block(filter_size + 4, '\0');
    Slice result;
    DIFFINDEX_RETURN_NOT_OK(
        r->file_->Read(filter_offset, filter_size + 4, &result, block.data()));
    if (result.size() != filter_size + 4) {
      return Status::Corruption("short filter read: " + path);
    }
    block.resize(result.size());
    DIFFINDEX_RETURN_NOT_OK(VerifyAndStripTrailer(&block));
    r->filter_ = std::move(block);
  }

  // Load + verify + parse index block.
  {
    std::string block(index_size + 4, '\0');
    Slice result;
    DIFFINDEX_RETURN_NOT_OK(
        r->file_->Read(index_offset, index_size + 4, &result, block.data()));
    if (result.size() != index_size + 4) {
      return Status::Corruption("short index read: " + path);
    }
    block.resize(result.size());
    DIFFINDEX_RETURN_NOT_OK(VerifyAndStripTrailer(&block));
    Slice input(block);
    while (!input.empty()) {
      IndexEntry entry;
      Slice key;
      if (!GetLengthPrefixedSlice(&input, &key) ||
          !GetFixed64(&input, &entry.offset) ||
          !GetFixed64(&input, &entry.size)) {
        return Status::Corruption("malformed index entry: " + path);
      }
      entry.last_key = key.ToString();
      r->index_.push_back(std::move(entry));
    }
  }

  r->meta_.file_size = file_size;
  r->meta_.num_entries = num_entries;
  if (!r->index_.empty()) {
    // Recover the key range from the first/last blocks: smallest is the
    // first key of block 0; largest the user key of the last index key.
    std::shared_ptr<const std::string> first_block;
    DIFFINDEX_RETURN_NOT_OK(r->ReadBlock(0, &first_block));
    Block block{Slice(*first_block)};
    auto iter = block.NewIterator(first_block);
    iter->SeekToFirst();
    if (iter->Valid()) {
      r->meta_.smallest_user_key = ExtractUserKey(iter->key()).ToString();
    }
    r->meta_.largest_user_key =
        ExtractUserKey(Slice(r->index_.back().last_key)).ToString();
  }

  *reader = std::move(r);
  return Status::OK();
}

bool SstReader::KeyMayMatch(const Slice& user_key) const {
  if (filter_.empty() || options_.bloom_bits_per_key <= 0) return true;
  BloomFilterPolicy policy(options_.bloom_bits_per_key);
  return policy.KeyMayMatch(user_key, filter_);
}

size_t SstReader::FindBlock(const Slice& target_internal_key) const {
  InternalKeyComparator cmp;
  // Binary search for the first block with last_key >= target.
  size_t lo = 0, hi = index_.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (cmp.Compare(Slice(index_[mid].last_key), target_internal_key) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

Status SstReader::ReadBlock(size_t block_idx,
                            std::shared_ptr<const std::string>* block) const {
  const IndexEntry& entry = index_[block_idx];
  std::string cache_key;
  if (options_.block_cache != nullptr) {
    // The cache is shared by every tree on a server, so the key must be
    // globally unique: the file path qualifies the per-tree file number.
    cache_key = path_ + ":" + std::to_string(entry.offset);
    auto cached = options_.block_cache->Lookup(cache_key);
    if (cached != nullptr) {
      *block = std::move(cached);
      return Status::OK();
    }
  }

  // Cache miss: one random I/O into the disk store.
  if (options_.latency != nullptr) options_.latency->DiskRead();
  auto owned = std::make_shared<std::string>();
  owned->resize(entry.size + 4);
  Slice result;
  DIFFINDEX_RETURN_NOT_OK(
      file_->Read(entry.offset, entry.size + 4, &result, owned->data()));
  if (result.size() != entry.size + 4) {
    return Status::Corruption("short block read: " + path_);
  }
  owned->resize(result.size());
  DIFFINDEX_RETURN_NOT_OK(VerifyAndStripTrailer(owned.get()));
  if (options_.block_cache != nullptr) {
    options_.block_cache->Insert(cache_key, owned, owned->size());
  }
  *block = std::move(owned);
  return Status::OK();
}

LookupResult SstReader::Get(const Slice& user_key, Timestamp read_ts) const {
  LookupResult result;
  if (!KeyMayMatch(user_key)) return result;
  const std::string target =
      MakeInternalKey(user_key, read_ts, ValueType::kTombstone);
  const size_t block_idx = FindBlock(target);
  if (block_idx >= index_.size()) return result;

  std::shared_ptr<const std::string> block_contents;
  result.status = ReadBlock(block_idx, &block_contents);
  if (!result.status.ok()) return result;

  Block block{Slice(*block_contents)};
  auto iter = block.NewIterator(block_contents);
  iter->Seek(target);
  if (!iter->Valid()) return result;

  ParsedInternalKey parsed;
  if (!ParseInternalKey(iter->key(), &parsed)) return result;
  if (parsed.user_key != user_key) return result;  // key not in table
  result.ts = parsed.ts;
  if (parsed.type == ValueType::kTombstone) {
    result.state = LookupState::kDeleted;
  } else {
    result.state = LookupState::kFound;
    result.value = iter->value().ToString();
  }
  return result;
}

class SstReader::Iter final : public RecordIterator {
 public:
  explicit Iter(const SstReader* table) : table_(table) {}

  bool Valid() const override {
    return block_iter_ != nullptr && block_iter_->Valid();
  }

  void SeekToFirst() override {
    block_idx_ = 0;
    if (!LoadBlock()) return;
    block_iter_->SeekToFirst();
    SkipExhaustedBlocks();
  }

  void Seek(const Slice& target) override {
    block_idx_ = table_->FindBlock(target);
    if (!LoadBlock()) return;
    block_iter_->Seek(target);
    SkipExhaustedBlocks();
  }

  void Next() override {
    assert(Valid());
    block_iter_->Next();
    SkipExhaustedBlocks();
  }

  Slice key() const override { return block_iter_->key(); }
  Slice value() const override { return block_iter_->value(); }
  Status status() const override {
    if (!status_.ok()) return status_;
    return block_iter_ != nullptr ? block_iter_->status() : Status::OK();
  }

 private:
  // Opens the block at block_idx_; false at end of table or on error.
  bool LoadBlock() {
    block_iter_.reset();
    if (block_idx_ >= table_->index_.size()) return false;
    std::shared_ptr<const std::string> contents;
    status_ = table_->ReadBlock(block_idx_, &contents);
    if (!status_.ok()) return false;
    Block block{Slice(*contents)};
    block_iter_ = block.NewIterator(std::move(contents));
    return true;
  }

  // If the current block is exhausted, advance to the next non-empty one.
  void SkipExhaustedBlocks() {
    while (block_iter_ != nullptr && !block_iter_->Valid() &&
           block_iter_->status().ok()) {
      block_idx_++;
      if (!LoadBlock()) return;
      block_iter_->SeekToFirst();
    }
  }

  const SstReader* table_;
  size_t block_idx_ = 0;
  std::unique_ptr<RecordIterator> block_iter_;
  Status status_;
};

std::unique_ptr<RecordIterator> SstReader::NewIterator() const {
  return std::make_unique<Iter>(this);
}

Status BuildSstFromIterator(const LsmOptions& options, const std::string& path,
                            uint64_t file_number, RecordIterator* iter,
                            SstMeta* meta) {
  DIFFINDEX_FAILPOINT("lsm.sst_write");
  std::unique_ptr<WritableFile> file;
  DIFFINDEX_RETURN_NOT_OK(options.env->NewWritableFile(path, &file));
  SstBuilder builder(options, std::move(file));
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    DIFFINDEX_RETURN_NOT_OK(builder.Add(iter->key(), iter->value()));
  }
  DIFFINDEX_RETURN_NOT_OK(iter->status());
  DIFFINDEX_RETURN_NOT_OK(builder.Finish(meta));
  meta->file_number = file_number;
  return Status::OK();
}

}  // namespace diffindex
