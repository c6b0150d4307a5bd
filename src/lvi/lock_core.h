// LockCore: the one S/X lock table of the LVI server (§3.6), shared by the
// in-memory LockTable and the Raft-replicated LockStateMachine (§5.6).
//
// Per key: a writer, a reader set and a FIFO wait queue. Readers share,
// writers exclude, and a new reader queues behind a waiting writer so
// writers cannot starve. Per execution: the keys it holds and waits on.
//
// A release reports the grants it drains out of wait queues to a callback,
// which may re-enter the core (LockTable takes the granted execution's next
// keys; a replicated listener may propose into a one-node group, which
// applies the proposal at once). So the core never holds a lock entry or an
// iterator across a callback: it finds the lock again after each one.
//
// Release frees an execution's keys in ascending key order, and each freed
// key grants its waiters in turn, so that order fixes which waiting
// execution is granted first. Virtual-time outputs depend on it.

#ifndef RADICAL_SRC_LVI_LOCK_CORE_H_
#define RADICAL_SRC_LVI_LOCK_CORE_H_

#include <functional>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "src/analysis/rw_set.h"
#include "src/common/types.h"

namespace radical {

class LockCore {
 public:
  struct Waiter {
    ExecutionId exec;
    LockMode mode;
  };

  struct KeyLock {
    ExecutionId writer = 0;  // 0 = none.
    std::set<ExecutionId> readers;
    std::vector<Waiter> queue;  // FIFO: the head is queue.front().

    bool Free() const { return writer == 0 && readers.empty(); }
    // Readers share; a writer needs the lock free.
    bool Admits(LockMode mode) const { return mode == LockMode::kWrite ? Free() : writer == 0; }
  };

  enum class AcquireResult {
    kGranted,  // Newly held.
    kHeld,     // `exec` already held the key (in either mode).
    kQueued,   // Waiting; a later release drains it through the callback.
  };

  // Fired when a release grants a queued `exec` the lock on `key`.
  using GrantFn = std::function<void(ExecutionId exec, const Key& key)>;

  // Takes `key` in `mode` for `exec`, or queues it. A request `exec`
  // already has queued on `key` is not queued twice.
  AcquireResult Acquire(ExecutionId exec, LockMode mode, const Key& key);

  // Drops every queued wait of `exec` and frees every key it holds; each
  // key touched then grants its waiters, in ascending key order, reporting
  // each grant to `on_grant` (which may be empty).
  void Release(ExecutionId exec, const GrantFn& on_grant);

  // --- Introspection ------------------------------------------------------
  bool IsWriteHeldBy(const Key& key, ExecutionId exec) const {
    const KeyLock* lock = Find(key);
    return lock != nullptr && lock->writer == exec;
  }
  bool IsReadHeldBy(const Key& key, ExecutionId exec) const {
    const KeyLock* lock = Find(key);
    return lock != nullptr && lock->readers.count(exec) > 0;
  }
  // Any writer at all holds `key`.
  bool IsWriteLocked(const Key& key) const {
    const KeyLock* lock = Find(key);
    return lock != nullptr && lock->writer != 0;
  }
  size_t WaitingCount(const Key& key) const {
    const KeyLock* lock = Find(key);
    return lock == nullptr ? 0 : lock->queue.size();
  }
  size_t HeldKeyCount(ExecutionId exec) const;
  // Keys held by anyone at all — zero once every execution has released.
  size_t TotalHeldKeys() const;
  // Keys with a holder or a waiter.
  size_t lock_count() const { return locks_.size(); }

  // --- Snapshots ----------------------------------------------------------
  // Visits every lock in ascending key order.
  void ForEachLock(const std::function<void(const Key&, const KeyLock&)>& fn) const;
  // Installs `key`'s state as-is: no grants fire.
  void Restore(const Key& key, KeyLock lock);
  void Clear();

 private:
  using LockMap = std::unordered_map<Key, KeyLock>;

  struct ExecLocks {
    std::set<Key> held;  // Ordered: Release frees in key order.
    std::vector<Key> waiting;
  };

  const KeyLock* Find(const Key& key) const {
    const auto it = locks_.find(key);
    return it == locks_.end() ? nullptr : &it->second;
  }
  void Hold(ExecutionId exec, LockMode mode, const Key& key, KeyLock& lock);
  // Grants the queued waiters of `key` (whose entry is `lit`, or end())
  // while compatible, then drops the entry if nobody holds or awaits it.
  void Drain(const Key& key, LockMap::iterator lit, const GrantFn& on_grant);

  LockMap locks_;
  std::map<ExecutionId, ExecLocks> execs_;
};

}  // namespace radical

#endif  // RADICAL_SRC_LVI_LOCK_CORE_H_
