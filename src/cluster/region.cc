#include "cluster/region.h"

namespace diffindex {

std::string Region::DataDir(const std::string& data_root,
                            const std::string& table, uint64_t region_id) {
  return data_root + "/tables/" + table + "/r" + std::to_string(region_id);
}

std::string Region::LocalIndexDir(const std::string& data_root,
                                  const std::string& table,
                                  uint64_t region_id) {
  return DataDir(data_root, table, region_id) + "/lidx";
}

Status Region::Open(const LsmOptions& options, const std::string& data_root,
                    const RegionInfoWire& info,
                    std::unique_ptr<Region>* region) {
  std::unique_ptr<LsmTree> tree;
  DIFFINDEX_RETURN_NOT_OK(
      LsmTree::Open(options, DataDir(data_root, info.table, info.region_id),
                    &tree));
  // Any stale local index from a previous owner is discarded; the index
  // maintenance hooks rebuild it from the just-opened base tree.
  const std::string lidx_dir =
      LocalIndexDir(data_root, info.table, info.region_id);
  DIFFINDEX_RETURN_NOT_OK(options.env->RemoveDirRecursively(lidx_dir));
  // ANALYZER_WAIVE(naked-new): private-ctor factory
  region->reset(new Region(info, std::move(tree), lidx_dir));
  return Status::OK();
}

Status Region::EnsureLocalIndexTree(const LsmOptions& options) {
  if (local_index_tree_ != nullptr) return Status::OK();
  DIFFINDEX_RETURN_NOT_OK(
      LsmTree::Open(options, local_index_dir_, &local_index_tree_));
  local_index_view_.store(local_index_tree_.get(),
                          std::memory_order_release);
  return Status::OK();
}

Status Region::WaitForCompactions() {
  Status s = tree_->WaitForCompaction();
  if (LsmTree* local = local_index_tree(); local != nullptr) {
    Status local_status = local->WaitForCompaction();
    if (s.ok()) s = std::move(local_status);
  }
  return s;
}

void Region::StopCompactions() {
  tree_->StopCompaction();
  if (LsmTree* local = local_index_tree(); local != nullptr) {
    local->StopCompaction();
  }
}

}  // namespace diffindex
