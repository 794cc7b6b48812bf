#include "lsm/sstable.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstring>

#include "fault/failpoint.h"
#include "util/bloom.h"
#include "util/coding.h"
#include "util/crc32c.h"

namespace diffindex {

namespace {

// The footer magic is the format version (see sstable.h).
constexpr uint64_t kTableMagicCellFilter = 0xd1ff1d8e5b10c4f3ull;
constexpr uint64_t kTableMagicRowFilter = 0xd1ff1d8e5b10c4f4ull;
constexpr size_t kFooterSize = 48;
constexpr size_t kBlockTrailerSize = 4;  // masked crc32c

std::atomic<uint64_t> next_cache_id{1};

void AppendBlockTrailer(std::string* block) {
  PutFixed32(block, crc32c::Mask(crc32c::Value(block->data(), block->size())));
}

// `block` is a payload followed by its trailer.
Status VerifyTrailer(const Slice& block) {
  if (block.size() < kBlockTrailerSize) {
    return Status::Corruption("block too small");
  }
  const size_t payload = block.size() - kBlockTrailerSize;
  const uint32_t expected =
      crc32c::Unmask(DecodeFixed32(block.data() + payload));
  if (crc32c::Value(block.data(), payload) != expected) {
    return Status::Corruption("block checksum mismatch");
  }
  return Status::OK();
}

// Reads the filter or index block at [offset, offset + size + trailer).
Status ReadMetaBlock(RandomAccessFile* file, const std::string& path,
                     const char* what, uint64_t offset, uint64_t size,
                     std::string* block) {
  block->resize(size + kBlockTrailerSize);
  Slice result;
  DIFFINDEX_RETURN_NOT_OK(
      file->Read(offset, block->size(), &result, block->data()));
  if (result.size() != block->size()) {
    return Status::Corruption(std::string("short ") + what + " read: " +
                              path);
  }
  DIFFINDEX_RETURN_NOT_OK(VerifyTrailer(result));
  if (result.data() == block->data()) {
    block->resize(size);
  } else {
    block->assign(result.data(), size);
  }
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

  // Keys arrive sorted, and so do their rows (see RowOf).
  const Slice row = RowOf(parsed.user_key);
  if (filter_rows_.empty() || Slice(filter_rows_.back()) != row) {
    filter_rows_.push_back(row.ToString());
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
    keys.reserve(filter_rows_.size());
    for (const auto& row : filter_rows_) keys.emplace_back(row);
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
  PutFixed64(&footer, kTableMagicRowFilter);
  assert(footer.size() == kFooterSize);
  DIFFINDEX_RETURN_NOT_OK(file_->Append(footer));
  offset_ += footer.size();

  DIFFINDEX_RETURN_NOT_OK(file_->Sync());
  DIFFINDEX_RETURN_NOT_OK(file_->Close());

  meta->file_size = offset_;
  meta->num_entries = num_entries_;
  meta->smallest_user_key = smallest_user_key_;
  meta->largest_user_key =
      num_entries_ == 0 ? "" : ExtractUserKey(last_key_).ToString();
  return Status::OK();
}

SstReader::SstReader(const LsmOptions& options, std::string path,
                     uint64_t file_number)
    : options_(options),
      path_(std::move(path)),
      cache_id_(next_cache_id.fetch_add(1, std::memory_order_relaxed)) {
  meta_.file_number = file_number;
}

Status SstReader::Open(const LsmOptions& options, const std::string& path,
                       uint64_t file_number,
                       std::shared_ptr<SstReader>* reader) {
  // ANALYZER_WAIVE(naked-new): private-ctor factory
  std::shared_ptr<SstReader> r(new SstReader(options, path, file_number));
  std::unique_ptr<RandomAccessFile> file;
  DIFFINDEX_RETURN_NOT_OK(options.env->NewRandomAccessFile(path, &file));
  r->file_ = std::move(file);
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
  if (magic != kTableMagicRowFilter && magic != kTableMagicCellFilter) {
    return Status::Corruption("bad table magic: " + path);
  }
  r->row_filter_ = magic == kTableMagicRowFilter;

  DIFFINDEX_RETURN_NOT_OK(ReadMetaBlock(r->file_.get(), path, "filter",
                                        filter_offset, filter_size,
                                        &r->filter_));
  std::string index_block;
  DIFFINDEX_RETURN_NOT_OK(ReadMetaBlock(r->file_.get(), path, "index",
                                        index_offset, index_size,
                                        &index_block));
  Slice input(index_block);
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

  r->meta_.file_size = file_size;
  r->meta_.num_entries = num_entries;
  if (!r->index_.empty()) {
    // Recover the key range from the first/last blocks: smallest is the
    // first key of block 0; largest the user key of the last index key.
    SstIterator first(r.get());
    first.SeekToFirst();
    DIFFINDEX_RETURN_NOT_OK(first.status());
    if (first.Valid()) {
      r->meta_.smallest_user_key = ExtractUserKey(first.key()).ToString();
    }
    r->meta_.largest_user_key =
        ExtractUserKey(Slice(r->index_.back().last_key)).ToString();
  }

  *reader = std::move(r);
  return Status::OK();
}

bool SstReader::FilterMayMatch(const Slice& key) const {
  if (filter_.empty() || options_.bloom_bits_per_key <= 0) return true;
  BloomFilterPolicy policy(options_.bloom_bits_per_key);
  return policy.KeyMayMatch(key, filter_);
}

bool SstReader::KeyMayMatch(const Slice& user_key) const {
  if (index_.empty() || user_key.compare(meta_.smallest_user_key) < 0 ||
      user_key.compare(meta_.largest_user_key) > 0) {
    return false;
  }
  return FilterMayMatch(row_filter_ ? RowOf(user_key) : user_key);
}

bool SstReader::RowMayMatch(const Slice& row) const {
  // Keys sort by row, so the table's rows span RowOf(smallest) ..
  // RowOf(largest).
  if (index_.empty() || row.compare(RowOf(meta_.smallest_user_key)) < 0 ||
      row.compare(RowOf(meta_.largest_user_key)) > 0) {
    return false;
  }
  return !row_filter_ || FilterMayMatch(row);
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

std::string SstReader::CacheKey(uint64_t offset) const {
  // Two varints, well inside std::string's inline buffer: building the key
  // allocates nothing.
  std::string key;
  PutVarint64(&key, cache_id_);
  PutVarint64(&key, offset);
  return key;
}

void SstReader::EraseCachedBlocks() const {
  if (options_.block_cache == nullptr) return;
  for (const IndexEntry& entry : index_) {
    options_.block_cache->Erase(CacheKey(entry.offset));
  }
}

Status SstReader::ReadBlock(size_t block_idx,
                            std::shared_ptr<const char[]>* block) const {
  const IndexEntry& entry = index_[block_idx];
  std::string cache_key;
  if (options_.block_cache != nullptr) {
    cache_key = CacheKey(entry.offset);
    BlockCache::Handle cached = options_.block_cache->Lookup(cache_key);
    if (cached != nullptr) {
      *block = std::move(cached);
      return Status::OK();
    }
  }

  // Cache miss: one random I/O into the disk store, read straight into the
  // buffer the cache keeps (one allocation, no zero-fill).
  if (options_.latency != nullptr) options_.latency->DiskRead();
  const size_t n = entry.size + kBlockTrailerSize;
  std::shared_ptr<char[]> read = std::make_shared_for_overwrite<char[]>(n);
  Slice result;
  DIFFINDEX_RETURN_NOT_OK(file_->Read(entry.offset, n, &result, read.get()));
  if (result.size() != n) {
    return Status::Corruption("short block read: " + path_);
  }
  DIFFINDEX_RETURN_NOT_OK(VerifyTrailer(result));
  if (options_.block_cache != nullptr) {
    options_.block_cache->Insert(cache_key, read, entry.size);
  }
  *block = std::move(read);
  return Status::OK();
}

LookupResult SstReader::Get(const Slice& user_key, Timestamp read_ts) const {
  if (!KeyMayMatch(user_key)) return LookupResult();
  SstIterator iter(this);
  return iter.Get(user_key, read_ts);
}

std::unique_ptr<SstIterator> SstReader::NewIterator() const {
  return std::make_unique<SstIterator>(this);
}

void SstIterator::SeekToFirst() {
  if (!LoadBlock(0)) return;
  block_iter_->SeekToFirst();
  SkipExhaustedBlocks();
}

void SstIterator::Seek(const Slice& target) {
  if (!LoadBlock(table_->FindBlock(target))) return;
  block_iter_->Seek(target);
  SkipExhaustedBlocks();
}

void SstIterator::Next() {
  assert(Valid());
  block_iter_->Next();
  SkipExhaustedBlocks();
}

Status SstIterator::status() const {
  if (!status_.ok()) return status_;
  return block_iter_ != nullptr ? block_iter_->status() : Status::OK();
}

LookupResult SstIterator::Get(const Slice& user_key,
                                      Timestamp read_ts) {
  LookupResult result;
  target_.clear();
  AppendInternalKey(&target_, user_key, read_ts, ValueType::kTombstone);
  Seek(target_);
  if (!Valid()) {
    result.status = status();
    return result;
  }
  ParsedInternalKey parsed;
  if (!ParseInternalKey(key(), &parsed)) return result;
  if (parsed.user_key != user_key) return result;  // key not in table
  result.ts = parsed.ts;
  if (parsed.type == ValueType::kTombstone) {
    result.state = LookupState::kDeleted;
  } else {
    result.state = LookupState::kFound;
    result.value = value().ToString();
  }
  return result;
}

bool SstIterator::LoadBlock(size_t idx) {
  if (block_iter_ != nullptr && idx == block_idx_) return true;
  block_iter_.reset();
  block_idx_ = idx;
  status_ = Status::OK();  // a fresh load forgets an earlier block's error
  if (idx >= table_->index_.size()) return false;
  blocks_read_++;
  std::shared_ptr<const char[]> contents;
  status_ = table_->ReadBlock(idx, &contents);
  if (!status_.ok()) return false;
  Block block{Slice(contents.get(), table_->index_[idx].size)};
  block_iter_ = block.NewIterator(std::move(contents));
  return true;
}

void SstIterator::SkipExhaustedBlocks() {
  while (block_iter_ != nullptr && !block_iter_->Valid() &&
         block_iter_->status().ok()) {
    if (!LoadBlock(block_idx_ + 1)) return;
    block_iter_->SeekToFirst();
  }
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
