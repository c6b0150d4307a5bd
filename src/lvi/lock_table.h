// LockTable: the singleton LVI server's in-memory read/write lock table.
//
// Each LVI request acquires a read or write lock per item in its read/write
// set (§3.6). Locks are acquired in lexicographic key order, strictly one
// after another (resource ordering — provably deadlock-free), with FIFO wait
// queues per key: readers share, writers exclude, and a new reader queues
// behind a waiting writer so writers cannot starve.
//
// The table is in-memory (the paper persists it to disk for durability; the
// replicated variant in lock_service.h moves it into Raft). Grant
// continuations are scheduled as zero-delay simulator events, never run
// re-entrantly inside Acquire/Release.
//
// The per-key table is a hash map, but `held_` stays an ordered map of
// ordered key sets: ReleaseAll frees an execution's keys in key order, and
// each freed key grants its waiters in turn, so that order fixes which
// waiting execution is granted (and scheduled) first. Virtual-time outputs
// depend on it.

#ifndef RADICAL_SRC_LVI_LOCK_TABLE_H_
#define RADICAL_SRC_LVI_LOCK_TABLE_H_

#include <cstdint>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "src/analysis/rw_set.h"
#include "src/common/inline_task.h"
#include "src/sim/simulator.h"

namespace radical {

class LockTable {
 public:
  explicit LockTable(Simulator* sim);

  LockTable(const LockTable&) = delete;
  LockTable& operator=(const LockTable&) = delete;

  // Acquires a lock on every key (sorted lexicographically; asserted) with
  // the matching mode; `granted` fires once all are held. Keys are taken
  // strictly in order — the acquisition blocks on the first contended key.
  //
  // Idempotent per execution: keys `exec` already holds are counted as
  // granted, and a second AcquireAll while the first is still queued merges
  // into it (the new `granted` replaces the old one). Both cases arise when
  // a client retries an LVI request whose original attempt died with a
  // server crash — the locks survived on disk, the continuation did not.
  void AcquireAll(ExecutionId exec, std::vector<Key> keys, std::vector<LockMode> modes,
                  InlineTask granted);

  // Releases every lock held by `exec` and cancels any of its queued waits;
  // unblocked waiters continue their acquisition sequences.
  void ReleaseAll(ExecutionId exec);

  // --- Introspection ------------------------------------------------------
  bool IsWriteHeldBy(const Key& key, ExecutionId exec) const;
  bool IsReadHeldBy(const Key& key, ExecutionId exec) const;
  size_t WaitingCount(const Key& key) const;
  size_t HeldKeyCount(ExecutionId exec) const;
  size_t active_lock_count() const { return locks_.size(); }

  // --- Stats ---------------------------------------------------------------
  uint64_t acquisitions() const { return acquisitions_; }
  uint64_t waits() const { return waits_; }  // Acquisitions that queued.
  // AcquireAll calls that merged into an already-queued acquisition.
  uint64_t reacquire_merges() const { return reacquire_merges_; }

 private:
  struct Waiter {
    ExecutionId exec;
    LockMode mode;
  };

  struct KeyLock {
    ExecutionId writer = 0;  // 0 = none.
    std::set<ExecutionId> readers;
    std::vector<Waiter> queue;  // FIFO: the head is queue.front().

    bool Free() const { return writer == 0 && readers.empty(); }
  };

  // A parked acquisition. Only a contended AcquireAll builds one: an
  // uncontended grant goes straight from the arguments to the grant event.
  struct Acquisition {
    std::vector<Key> keys;
    std::vector<LockMode> modes;
    size_t next = 0;  // Index of the next key to take.
    InlineTask granted;
  };

  using PendingMap = std::unordered_map<ExecutionId, Acquisition>;

  // Takes every immediately available key of `keys` from `*next` on and
  // parks `exec` on the first contended one. True once every key is held.
  bool TakeAvailable(ExecutionId exec, const std::vector<Key>& keys,
                     const std::vector<LockMode>& modes, size_t* next);
  // Continues a parked acquisition; fires its `granted` once it holds all.
  void Advance(PendingMap::iterator it);
  // Schedules a completed acquisition's continuation.
  void Grant(InlineTask&& granted);
  void Hold(ExecutionId exec, LockMode mode, const Key& key, KeyLock& lock);
  // Grants `key`'s queued waiters while compatible, then drops the lock
  // entry if nobody holds or awaits it.
  void DrainQueue(const Key& key);

  Simulator* sim_;
  std::unordered_map<Key, KeyLock> locks_;
  std::map<ExecutionId, std::set<Key>> held_;
  PendingMap pending_;  // Acquisitions parked on a contended key.
  uint64_t acquisitions_ = 0;
  uint64_t waits_ = 0;
  uint64_t reacquire_merges_ = 0;
};

}  // namespace radical

#endif  // RADICAL_SRC_LVI_LOCK_TABLE_H_
