// HoldingEnv: an Env that holds a compaction open. Once armed, the first
// open for reading of an .sst file made on a thread other than the one
// that built the env blocks until Release(). In these tests flushes run
// on the test thread (the fabric runs handlers on the caller's thread)
// and a merge runs on the compactor's, so what is held is the merge right
// after its output was built and synced, before it is installed and the
// manifest names it.

#pragma once

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/env.h"

namespace diffindex {

class HoldingEnv final : public Env {
 public:
  HoldingEnv() : owner_(std::this_thread::get_id()) {}
  ~HoldingEnv() override { Release(); }

  void Arm() {
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = true;
    held_ = false;
    released_ = false;
  }
  // True once an open is held; false after `timeout`.
  bool WaitHeld(std::chrono::milliseconds timeout = std::chrono::seconds(10)) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout, [this] { return held_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = false;
    released_ = true;
    cv_.notify_all();
  }

  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    return base_->NewWritableFile(fname, result);
  }
  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override {
    if (fname.size() > 4 && fname.compare(fname.size() - 4, 4, ".sst") == 0) {
      MaybeHold();
    }
    return base_->NewRandomAccessFile(fname, result);
  }
  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override {
    return base_->NewSequentialFile(fname, result);
  }
  bool FileExists(const std::string& fname) override {
    return base_->FileExists(fname);
  }
  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* result) override {
    return base_->GetChildren(dir, result);
  }
  Status RemoveFile(const std::string& fname) override {
    return base_->RemoveFile(fname);
  }
  Status CreateDirIfMissing(const std::string& dirname) override {
    return base_->CreateDirIfMissing(dirname);
  }
  Status RemoveDirRecursively(const std::string& dirname) override {
    return base_->RemoveDirRecursively(dirname);
  }
  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    return base_->GetFileSize(fname, size);
  }
  Status RenameFile(const std::string& src,
                    const std::string& target) override {
    return base_->RenameFile(src, target);
  }

 private:
  void MaybeHold() {
    if (std::this_thread::get_id() == owner_) return;
    std::unique_lock<std::mutex> lock(mu_);
    if (!armed_ || held_) return;
    held_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return released_; });
  }

  Env* const base_ = Env::Default();
  const std::thread::id owner_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool armed_ = false;
  bool held_ = false;
  bool released_ = false;
};

}  // namespace diffindex
