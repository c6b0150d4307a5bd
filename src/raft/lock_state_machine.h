// LockStateMachine: the replicated lock table of the §5.6 LVI server.
//
// When the LVI server is replicated for high availability, its locks move
// into an etcd-like store: every acquire/release is a command committed
// through Raft, and each replica applies the same deterministic lock-table
// transitions. The service layer listens for grant events on the applied
// stream (grants may happen at apply time, or later when a release unblocks
// a queued waiter).
//
// An acquire command carries one key (§5.6 acquires "in series") or, batched,
// a sorted run of keys applied atomically. The lock semantics are LockCore's
// (src/lvi/lock_core.h), shared with the in-memory LockTable.
//
// Commands and snapshots use a compact, bounds-checked binary format (an op
// byte, varint integers, length-prefixed keys; docs/raft.md "Lock command
// format"). Keys are arbitrary bytes. A command that fails to decode is
// ignored as a whole.

#ifndef RADICAL_SRC_RAFT_LOCK_STATE_MACHINE_H_
#define RADICAL_SRC_RAFT_LOCK_STATE_MACHINE_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/analysis/rw_set.h"
#include "src/common/types.h"
#include "src/lvi/lock_core.h"
#include "src/raft/log.h"

namespace radical {

class LockStateMachine {
 public:
  // Fired when `exec` is granted the lock on `key` (at apply time or when a
  // release unblocks it). Every replica fires it; listeners dedupe.
  using GrantListener = std::function<void(ExecutionId exec, const Key& key)>;

  void set_grant_listener(GrantListener listener) { grant_listener_ = std::move(listener); }

  // Applies a committed command. Unknown or malformed commands are ignored
  // (forward compatibility); duplicate acquires are idempotent. A release
  // also cancels the execution's queued waits.
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
  bool IsWriteHeldBy(const Key& key, ExecutionId exec) const {
    return core_.IsWriteHeldBy(key, exec);
  }
  // Any writer at all holds `key` (the lease-read fast path refuses keys
  // with a committed writer).
  bool IsWriteLocked(const Key& key) const { return core_.IsWriteLocked(key); }
  bool IsReadHeldBy(const Key& key, ExecutionId exec) const {
    return core_.IsReadHeldBy(key, exec);
  }
  size_t WaitingCount(const Key& key) const { return core_.WaitingCount(key); }
  size_t HeldKeyCount(ExecutionId exec) const { return core_.HeldKeyCount(exec); }
  // Keys held by anyone at all — zero once every execution has released.
  size_t TotalHeldKeys() const { return core_.TotalHeldKeys(); }
  LogIndex last_applied() const { return last_applied_; }

 private:
  LockCore core_;
  GrantListener grant_listener_;
  LogIndex last_applied_ = 0;
};

}  // namespace radical

#endif  // RADICAL_SRC_RAFT_LOCK_STATE_MACHINE_H_
