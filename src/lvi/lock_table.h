// LockTable: the singleton LVI server's in-memory read/write lock table.
//
// Each LVI request acquires a read or write lock per item in its read/write
// set (§3.6). Locks are acquired in lexicographic key order, strictly one
// after another (resource ordering — provably deadlock-free), with FIFO wait
// queues per key: readers share, writers exclude, and a new reader queues
// behind a waiting writer so writers cannot starve. The per-key semantics
// live in LockCore (src/lvi/lock_core.h), which the replicated table of §5.6
// shares; this class adds the sequential multi-key acquisition.
//
// The table is in-memory (the paper persists it to disk for durability; the
// replicated variant in lock_service.h moves it into Raft). Grant
// continuations are scheduled as zero-delay simulator events, never run
// re-entrantly inside Acquire/Release.

#ifndef RADICAL_SRC_LVI_LOCK_TABLE_H_
#define RADICAL_SRC_LVI_LOCK_TABLE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/analysis/rw_set.h"
#include "src/common/inline_task.h"
#include "src/lvi/lock_core.h"
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
  bool IsWriteHeldBy(const Key& key, ExecutionId exec) const {
    return core_.IsWriteHeldBy(key, exec);
  }
  bool IsReadHeldBy(const Key& key, ExecutionId exec) const {
    return core_.IsReadHeldBy(key, exec);
  }
  size_t WaitingCount(const Key& key) const { return core_.WaitingCount(key); }
  size_t HeldKeyCount(ExecutionId exec) const { return core_.HeldKeyCount(exec); }
  size_t active_lock_count() const { return core_.lock_count(); }

  // --- Stats ---------------------------------------------------------------
  uint64_t acquisitions() const { return acquisitions_; }
  uint64_t waits() const { return waits_; }  // Acquisitions that queued.
  // AcquireAll calls that merged into an already-queued acquisition.
  uint64_t reacquire_merges() const { return reacquire_merges_; }

 private:
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
  // A release granted parked `exec` the key it waited on: continue.
  void OnGranted(ExecutionId exec);
  // Schedules a completed acquisition's continuation.
  void Grant(InlineTask&& granted);

  Simulator* sim_;
  LockCore core_;
  PendingMap pending_;  // Acquisitions parked on a contended key.
  uint64_t acquisitions_ = 0;
  uint64_t waits_ = 0;
  uint64_t reacquire_merges_ = 0;
};

}  // namespace radical

#endif  // RADICAL_SRC_LVI_LOCK_TABLE_H_
