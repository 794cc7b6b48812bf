// Seeded raw-mutex violations: raw std synchronization primitives
// instead of the annotated wrappers in util/mutex.h, invisible to
// thread-safety analysis. The member, the lock_guard, and its template
// argument all fire.

#include <mutex>

namespace diffindex {

class FixtureRawMutex {
 public:
  void Touch() {
    std::lock_guard<std::mutex> lock(mu_);  // violation (lock_guard)
    ++count_;
  }

 private:
  std::mutex mu_;  // violation (mutex)
  int count_ = 0;
};

}  // namespace diffindex
