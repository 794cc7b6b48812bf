// Test adapter for AsyncUpdateQueue: the queue's one processor takes the
// coalesced survivors of a drain unit, while most AUQ tests only care
// about one task at a time. PerTask wraps a `Status(const IndexTask&)`
// callback as that processor: each survivor gets its own call and its own
// status, so a failure retries only that task.

#ifndef DIFFINDEX_TESTS_CORE_AUQ_TEST_UTIL_H_
#define DIFFINDEX_TESTS_CORE_AUQ_TEST_UTIL_H_

#include <utility>
#include <vector>

#include "core/auq.h"

namespace diffindex {

template <typename Fn>
AsyncUpdateQueue::Processor PerTask(Fn fn) {
  return [fn = std::move(fn)](const std::vector<IndexTask>& tasks,
                              std::vector<Status>* statuses) {
    statuses->clear();
    for (const IndexTask& task : tasks) statuses->push_back(fn(task));
  };
}

}  // namespace diffindex

#endif  // DIFFINDEX_TESTS_CORE_AUQ_TEST_UTIL_H_
