// Tests for the LVI server's lock table: reader sharing, writer exclusion,
// FIFO fairness, sequential sorted acquisition, and deadlock freedom.

#include <gtest/gtest.h>

#include "src/lvi/lock_table.h"

namespace radical {
namespace {

class LockTableTest : public ::testing::Test {
 protected:
  Simulator sim_;
  LockTable table_{&sim_};
};

TEST_F(LockTableTest, UncontendedAcquireGrantsImmediately) {
  bool granted = false;
  table_.AcquireAll(1, {"a", "b"}, {LockMode::kRead, LockMode::kWrite}, [&] { granted = true; });
  sim_.Run();
  EXPECT_TRUE(granted);
  EXPECT_TRUE(table_.IsReadHeldBy("a", 1));
  EXPECT_TRUE(table_.IsWriteHeldBy("b", 1));
  EXPECT_EQ(table_.HeldKeyCount(1), 2u);
}

TEST_F(LockTableTest, ReadersShare) {
  int granted = 0;
  table_.AcquireAll(1, {"k"}, {LockMode::kRead}, [&] { ++granted; });
  table_.AcquireAll(2, {"k"}, {LockMode::kRead}, [&] { ++granted; });
  sim_.Run();
  EXPECT_EQ(granted, 2);
  EXPECT_TRUE(table_.IsReadHeldBy("k", 1));
  EXPECT_TRUE(table_.IsReadHeldBy("k", 2));
}

TEST_F(LockTableTest, WriterExcludesWriter) {
  int granted = 0;
  table_.AcquireAll(1, {"k"}, {LockMode::kWrite}, [&] { ++granted; });
  table_.AcquireAll(2, {"k"}, {LockMode::kWrite}, [&] { ++granted; });
  sim_.Run();
  EXPECT_EQ(granted, 1);
  table_.ReleaseAll(1);
  sim_.Run();
  EXPECT_EQ(granted, 2);
  EXPECT_TRUE(table_.IsWriteHeldBy("k", 2));
}

TEST_F(LockTableTest, WriterExcludesReader) {
  int granted = 0;
  table_.AcquireAll(1, {"k"}, {LockMode::kWrite}, [&] { ++granted; });
  table_.AcquireAll(2, {"k"}, {LockMode::kRead}, [&] { ++granted; });
  sim_.Run();
  EXPECT_EQ(granted, 1);
  EXPECT_EQ(table_.WaitingCount("k"), 1u);
  table_.ReleaseAll(1);
  sim_.Run();
  EXPECT_EQ(granted, 2);
}

TEST_F(LockTableTest, ReaderQueuesBehindWaitingWriterNoStarvation) {
  std::vector<int> order;
  table_.AcquireAll(1, {"k"}, {LockMode::kRead}, [&] { order.push_back(1); });
  sim_.Run();
  table_.AcquireAll(2, {"k"}, {LockMode::kWrite}, [&] { order.push_back(2); });
  // Reader 3 arrives while writer 2 waits: it must queue behind the writer,
  // not join reader 1.
  table_.AcquireAll(3, {"k"}, {LockMode::kRead}, [&] { order.push_back(3); });
  sim_.Run();
  EXPECT_EQ(order, (std::vector<int>{1}));
  table_.ReleaseAll(1);
  sim_.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  table_.ReleaseAll(2);
  sim_.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST_F(LockTableTest, ConsecutiveReadersGrantedTogetherOnRelease) {
  int granted = 0;
  table_.AcquireAll(1, {"k"}, {LockMode::kWrite}, [&] { ++granted; });
  sim_.Run();
  table_.AcquireAll(2, {"k"}, {LockMode::kRead}, [&] { ++granted; });
  table_.AcquireAll(3, {"k"}, {LockMode::kRead}, [&] { ++granted; });
  sim_.Run();
  EXPECT_EQ(granted, 1);
  table_.ReleaseAll(1);
  sim_.Run();
  EXPECT_EQ(granted, 3);  // Both readers together.
}

TEST_F(LockTableTest, MultiKeyBlocksOnFirstContended) {
  bool granted2 = false;
  table_.AcquireAll(1, {"b"}, {LockMode::kWrite}, [] {});
  sim_.Run();
  table_.AcquireAll(2, {"a", "b", "c"},
                    {LockMode::kWrite, LockMode::kWrite, LockMode::kWrite},
                    [&] { granted2 = true; });
  sim_.Run();
  EXPECT_FALSE(granted2);
  EXPECT_TRUE(table_.IsWriteHeldBy("a", 2));  // Took "a" on the way.
  EXPECT_FALSE(table_.IsWriteHeldBy("c", 2));  // Not yet at "c".
  table_.ReleaseAll(1);
  sim_.Run();
  EXPECT_TRUE(granted2);
  EXPECT_TRUE(table_.IsWriteHeldBy("c", 2));
}

TEST_F(LockTableTest, ReleaseCancelsQueuedWaits) {
  bool granted2 = false;
  table_.AcquireAll(1, {"k"}, {LockMode::kWrite}, [] {});
  sim_.Run();
  table_.AcquireAll(2, {"k"}, {LockMode::kWrite}, [&] { granted2 = true; });
  sim_.Run();
  table_.ReleaseAll(2);  // Abandon the wait.
  table_.ReleaseAll(1);
  sim_.Run();
  EXPECT_FALSE(granted2);
  EXPECT_EQ(table_.WaitingCount("k"), 0u);
  EXPECT_EQ(table_.active_lock_count(), 0u);
}

// A cancelled waiter must not strand compatible waiters queued behind it:
// with "k" only read-held, removing the writer that blocked reader 3 lets
// reader 3 in at once. Before the fix, ReleaseAll on a still-queued
// execution removed its waiter without draining the queue, and reader 3
// stayed parked until exec 1 released.
TEST_F(LockTableTest, CancelledWaiterUnblocksCompatibleWaitersBehindIt) {
  std::vector<int> order;
  table_.AcquireAll(1, {"k"}, {LockMode::kRead}, [&] { order.push_back(1); });
  sim_.Run();
  table_.AcquireAll(2, {"k"}, {LockMode::kWrite}, [&] { order.push_back(2); });
  table_.AcquireAll(3, {"j", "k"}, {LockMode::kWrite, LockMode::kRead},
                    [&] { order.push_back(3); });
  sim_.Run();
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(table_.WaitingCount("k"), 2u);
  table_.ReleaseAll(2);  // Shed while still queued.
  sim_.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_TRUE(table_.IsReadHeldBy("k", 1));
  EXPECT_TRUE(table_.IsReadHeldBy("k", 3));
  EXPECT_TRUE(table_.IsWriteHeldBy("j", 3));
  EXPECT_EQ(table_.WaitingCount("k"), 0u);
  table_.ReleaseAll(1);
  table_.ReleaseAll(3);
  sim_.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_EQ(table_.active_lock_count(), 0u);
}

TEST_F(LockTableTest, EmptyKeySetGrantsImmediately) {
  bool granted = false;
  table_.AcquireAll(1, {}, {}, [&] { granted = true; });
  sim_.Run();
  EXPECT_TRUE(granted);
}

TEST_F(LockTableTest, StatsCountWaits) {
  table_.AcquireAll(1, {"k"}, {LockMode::kWrite}, [] {});
  sim_.Run();
  table_.AcquireAll(2, {"k"}, {LockMode::kWrite}, [] {});
  sim_.Run();
  EXPECT_EQ(table_.acquisitions(), 2u);
  EXPECT_EQ(table_.waits(), 1u);
}

TEST_F(LockTableTest, TableDrainsCleanAfterAllReleases) {
  for (ExecutionId id = 1; id <= 5; ++id) {
    table_.AcquireAll(id, {"a", "b"}, {LockMode::kRead, LockMode::kWrite}, [] {});
  }
  sim_.Run();
  for (ExecutionId id = 1; id <= 5; ++id) {
    table_.ReleaseAll(id);
    sim_.Run();
  }
  EXPECT_EQ(table_.active_lock_count(), 0u);
}

// Deadlock-freedom property: many executions over overlapping sorted key
// sets must all eventually be granted (sequential sorted acquisition imposes
// a global resource order).
TEST_F(LockTableTest, NoDeadlockUnderOverlappingKeySets) {
  Rng rng(1234);
  const std::vector<Key> universe = {"a", "b", "c", "d", "e"};
  int granted = 0;
  const int n = 200;
  for (ExecutionId id = 1; id <= n; ++id) {
    // Random sorted subset with random modes.
    std::vector<Key> keys;
    std::vector<LockMode> modes;
    for (const Key& k : universe) {
      if (rng.NextBool(0.5)) {
        keys.push_back(k);
        modes.push_back(rng.NextBool(0.5) ? LockMode::kWrite : LockMode::kRead);
      }
    }
    table_.AcquireAll(id, keys, modes, [&granted, id, this] {
      ++granted;
      // Hold briefly, then release.
      sim_.Schedule(Millis(1), [this, id] { table_.ReleaseAll(id); });
    });
  }
  sim_.Run();
  EXPECT_EQ(granted, n);
  EXPECT_EQ(table_.active_lock_count(), 0u);
}

}  // namespace
}  // namespace radical
