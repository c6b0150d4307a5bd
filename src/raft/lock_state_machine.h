// LockStateMachine: the replicated lock table of the §5.6 LVI server.
//
// When the LVI server is replicated for high availability, its locks move
// into an etcd-like store: every acquire/release is a command committed
// through Raft, and each replica applies the same deterministic lock-table
// transitions. The service layer listens for grant events on the applied
// stream (grants may happen at apply time, or later when a release unblocks
// a queued waiter).
//
// Commands are single-key ("our implementation of the replicated server
// acquires all locks in series", §5.6); the multi-key in-memory table of the
// singleton server lives in src/lvi/lock_table.h.
//
// Commands and snapshots use a compact, bounds-checked binary format (an op
// byte, varint integers, length-prefixed keys; docs/raft.md "Lock command
// format"). Keys are arbitrary bytes. A command that fails to decode is
// ignored as a whole.

#ifndef RADICAL_SRC_RAFT_LOCK_STATE_MACHINE_H_
#define RADICAL_SRC_RAFT_LOCK_STATE_MACHINE_H_

#include <functional>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/analysis/rw_set.h"
#include "src/common/types.h"
#include "src/raft/log.h"

namespace radical {

class LockStateMachine {
 public:
  // Fired when `exec` is granted the lock on `key` (at apply time or when a
  // release unblocks it). Every replica fires it; listeners dedupe.
  using GrantListener = std::function<void(ExecutionId exec, const Key& key)>;

  void set_grant_listener(GrantListener listener) { grant_listener_ = std::move(listener); }

  // Applies a committed command. Unknown or malformed commands are ignored
  // (forward compatibility); duplicate acquires are idempotent.
  void Apply(LogIndex index, const std::string& command);

  // --- Command encoding -------------------------------------------------
  static std::string EncodeAcquire(ExecutionId exec, LockMode mode, const Key& key);
  // Batched acquisition (§5.6's proposed optimization): all of an LVI
  // request's locks in one Raft commit. Keys must be sorted; the batch is
  // applied atomically — available keys are granted, the rest queue.
  static std::string EncodeBatchAcquire(ExecutionId exec, const std::vector<Key>& keys,
                                        const std::vector<LockMode>& modes);
  static std::string EncodeRelease(ExecutionId exec);

  // --- Snapshotting (log compaction) --------------------------------------
  // Serializes the complete lock state (holders and wait queues). Restoring
  // replaces the machine's state; no grant notifications fire (grants are
  // edge-triggered and listeners deduplicate). Restoring data that does not
  // decode as a snapshot leaves an empty machine.
  std::string EncodeSnapshot() const;
  void RestoreSnapshot(const std::string& data);

  // --- Introspection (tests, lease-read gating) ---------------------------
  bool IsWriteHeldBy(const Key& key, ExecutionId exec) const;
  // Any writer at all holds `key` (the lease-read fast path refuses keys
  // with a committed writer).
  bool IsWriteLocked(const Key& key) const;
  bool IsReadHeldBy(const Key& key, ExecutionId exec) const;
  size_t WaitingCount(const Key& key) const;
  size_t HeldKeyCount(ExecutionId exec) const;
  // Keys held by anyone at all — zero once every execution has released.
  size_t TotalHeldKeys() const;
  LogIndex last_applied() const { return last_applied_; }

 private:
  struct Waiter {
    ExecutionId exec;
    LockMode mode;
  };

  struct KeyLock {
    ExecutionId writer = 0;          // 0 = none.
    std::set<ExecutionId> readers;
    std::vector<Waiter> queue;  // FIFO: the head is queue.front().

    bool Free() const { return writer == 0 && readers.empty(); }
  };

  void ApplyAcquire(ExecutionId exec, LockMode mode, std::string_view key_view);
  void ApplyRelease(ExecutionId exec);
  // Grants queued waiters on `key` while compatible.
  void DrainQueue(const Key& key, KeyLock& lock);
  void Grant(ExecutionId exec, LockMode mode, const Key& key, KeyLock& lock);

  // Transparent comparator: the apply path looks keys up by the view it
  // decoded, without building a Key.
  std::map<Key, KeyLock, std::less<>> locks_;
  std::map<ExecutionId, std::set<Key>> held_;
  GrantListener grant_listener_;
  LogIndex last_applied_ = 0;
};

}  // namespace radical

#endif  // RADICAL_SRC_RAFT_LOCK_STATE_MACHINE_H_
