// Tests for LockCore, the S/X FIFO lock table shared by the in-memory
// LockTable and the replicated LockStateMachine: acquire results, release
// cancelling queued waits, grant order, snapshot visits, and grant callbacks
// that re-enter the core in the middle of a drain.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "src/lvi/lock_core.h"

namespace radical {
namespace {

using Result = LockCore::AcquireResult;

TEST(LockCoreTest, AcquireReportsGrantedHeldAndQueued) {
  LockCore core;
  EXPECT_EQ(core.Acquire(1, LockMode::kRead, "k"), Result::kGranted);
  EXPECT_EQ(core.Acquire(2, LockMode::kRead, "k"), Result::kGranted);
  EXPECT_EQ(core.Acquire(1, LockMode::kWrite, "k"), Result::kHeld);
  EXPECT_EQ(core.Acquire(3, LockMode::kWrite, "k"), Result::kQueued);
  // A duplicate queued request is a no-op.
  EXPECT_EQ(core.Acquire(3, LockMode::kWrite, "k"), Result::kQueued);
  EXPECT_EQ(core.WaitingCount("k"), 1u);
  // A reader queues behind the waiting writer.
  EXPECT_EQ(core.Acquire(4, LockMode::kRead, "k"), Result::kQueued);
  EXPECT_EQ(core.WaitingCount("k"), 2u);
  EXPECT_TRUE(core.IsReadHeldBy("k", 1));
  EXPECT_FALSE(core.IsWriteLocked("k"));
  EXPECT_EQ(core.TotalHeldKeys(), 1u);
}

TEST(LockCoreTest, ReleaseGrantsWaitersInFifoOrder) {
  LockCore core;
  std::vector<std::pair<ExecutionId, Key>> grants;
  const LockCore::GrantFn record = [&](ExecutionId exec, const Key& key) {
    grants.emplace_back(exec, key);
  };
  core.Acquire(1, LockMode::kWrite, "k");
  core.Acquire(2, LockMode::kRead, "k");
  core.Acquire(3, LockMode::kRead, "k");
  core.Acquire(4, LockMode::kWrite, "k");
  core.Release(1, record);
  // Consecutive readers are granted together; the writer waits for both.
  EXPECT_EQ(grants, (std::vector<std::pair<ExecutionId, Key>>{{2, "k"}, {3, "k"}}));
  core.Release(2, record);
  EXPECT_EQ(grants.size(), 2u);
  core.Release(3, record);
  ASSERT_EQ(grants.size(), 3u);
  EXPECT_EQ(grants[2], (std::pair<ExecutionId, Key>{4, "k"}));
  EXPECT_TRUE(core.IsWriteHeldBy("k", 4));
  core.Release(4, record);
  EXPECT_EQ(core.lock_count(), 0u);
}

TEST(LockCoreTest, ReleaseFreesHeldKeysInAscendingKeyOrder) {
  LockCore core;
  for (const Key key : {"c", "a", "b"}) {
    core.Acquire(1, LockMode::kWrite, key);
  }
  // One waiter per key, queued in reverse key order.
  core.Acquire(4, LockMode::kWrite, "c");
  core.Acquire(2, LockMode::kWrite, "a");
  core.Acquire(3, LockMode::kWrite, "b");
  std::vector<Key> order;
  core.Release(1, [&](ExecutionId, const Key& key) { order.push_back(key); });
  EXPECT_EQ(order, (std::vector<Key>{"a", "b", "c"}));
}

TEST(LockCoreTest, ReleaseCancelsQueuedWaitsAndDrainsTheirKeys) {
  LockCore core;
  std::vector<ExecutionId> granted;
  const LockCore::GrantFn record = [&](ExecutionId exec, const Key&) { granted.push_back(exec); };
  core.Acquire(1, LockMode::kRead, "k");
  core.Acquire(2, LockMode::kWrite, "k");  // Queued behind reader 1.
  core.Acquire(2, LockMode::kWrite, "j");  // Held: 2 waits on one key only.
  core.Acquire(3, LockMode::kRead, "k");   // Queued behind writer 2.
  core.Release(2, record);
  // Dropping writer 2's wait lets reader 3 share with reader 1.
  EXPECT_EQ(granted, (std::vector<ExecutionId>{3}));
  EXPECT_TRUE(core.IsReadHeldBy("k", 3));
  EXPECT_EQ(core.WaitingCount("k"), 0u);
  EXPECT_EQ(core.HeldKeyCount(2), 0u);
  EXPECT_FALSE(core.IsWriteLocked("j"));
  // Released while queued: a later release never grants it.
  core.Release(1, record);
  core.Release(3, record);
  EXPECT_EQ(granted, (std::vector<ExecutionId>{3}));
  EXPECT_EQ(core.lock_count(), 0u);
}

// The grant callback re-enters the core mid-drain: it takes many fresh keys
// (rehashing the lock table under the drain) and releases the execution it
// was just granted, whose release drains the same key again. The outer drain
// must find the lock afresh and leave a consistent table (and run clean under
// AddressSanitizer).
TEST(LockCoreTest, GrantCallbackMayRehashAndReleaseTheGrantedExec) {
  for (const LockMode head_mode : {LockMode::kRead, LockMode::kWrite}) {
    LockCore core;
    core.Acquire(1, LockMode::kWrite, "k");
    core.Acquire(2, head_mode, "k");
    core.Acquire(3, LockMode::kRead, "k");
    core.Acquire(4, LockMode::kRead, "k");
    std::vector<ExecutionId> granted;
    LockCore::GrantFn on_grant = [&](ExecutionId exec, const Key& key) {
      granted.push_back(exec);
      if (exec != 2) {
        return;
      }
      for (int i = 0; i < 500; ++i) {
        EXPECT_EQ(core.Acquire(100, LockMode::kWrite, "fresh" + std::to_string(i)),
                  Result::kGranted);
      }
      core.Release(exec, on_grant);
      EXPECT_EQ(key, "k");
    };
    core.Release(1, on_grant);
    EXPECT_EQ(granted, (std::vector<ExecutionId>{2, 3, 4}));
    EXPECT_EQ(core.HeldKeyCount(2), 0u);
    EXPECT_TRUE(core.IsReadHeldBy("k", 3));
    EXPECT_TRUE(core.IsReadHeldBy("k", 4));
    EXPECT_EQ(core.WaitingCount("k"), 0u);
    EXPECT_EQ(core.HeldKeyCount(100), 500u);
    EXPECT_EQ(core.lock_count(), 501u);
    core.Release(3, on_grant);
    core.Release(4, on_grant);
    core.Release(100, on_grant);
    EXPECT_EQ(core.lock_count(), 0u);
    EXPECT_EQ(core.TotalHeldKeys(), 0u);
  }
}

TEST(LockCoreTest, ForEachLockVisitsInKeyOrderAndRestoreRoundTrips) {
  LockCore core;
  for (int i = 0; i < 50; ++i) {
    core.Acquire(static_cast<ExecutionId>(i + 1), LockMode::kWrite, "key" + std::to_string(i));
  }
  core.Acquire(7, LockMode::kRead, "key10");  // Queued.
  std::vector<Key> keys;
  LockCore copy;
  core.ForEachLock([&](const Key& key, const LockCore::KeyLock& lock) {
    keys.push_back(key);
    copy.Restore(key, lock);
  });
  ASSERT_EQ(keys.size(), 50u);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_TRUE(copy.IsWriteHeldBy("key10", 11));
  EXPECT_EQ(copy.WaitingCount("key10"), 1u);
  EXPECT_EQ(copy.HeldKeyCount(7), 1u);
  // The restored wait is cancellable like any other.
  copy.Release(7, nullptr);
  EXPECT_EQ(copy.WaitingCount("key10"), 0u);
  EXPECT_EQ(copy.TotalHeldKeys(), 49u);
  copy.Clear();
  EXPECT_EQ(copy.lock_count(), 0u);
}

}  // namespace
}  // namespace radical
