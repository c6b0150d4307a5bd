// LockService: where the LVI server keeps its locks.
//
// Two implementations:
//
//  - ShardedLockService (§4): the singleton server's in-memory table (the
//    paper persists it to an EBS volume) as N >= 1 LockTables, one per
//    key-range shard (ShardRouter); one shard is the paper's server. An
//    acquisition spanning shards takes its per-shard groups strictly in
//    ascending shard index, keys in lexicographic order within each, so
//    every acquirer follows one total order (shard, key) and the single
//    table's resource-ordering deadlock-freedom argument carries over.
//    Group hand-off rides on the tables' zero-delay grant events, so
//    sharding adds no virtual time to an uncontended acquire.
//  - ReplicatedLockService (§5.6): the highly available variant stores locks
//    in a 3-node etcd (Raft) cluster across availability zones. Each lock
//    acquisition is one Raft commit (~2.3 ms) and the implementation
//    acquires locks in series, so an LVI request with L locks pays ~2.3·L ms
//    extra — the constant the paper reports. Batched mode instead commits
//    each same-shard run of keys at once; both modes walk the keys in runs
//    through one submit path. With `shards` > 1 it runs one independent
//    Raft group per key-range shard (multi-Raft): requests are re-ordered
//    into the same (shard, key) total order the in-memory service uses, so
//    deadlock freedom carries over, while unrelated shards commit in
//    parallel.
//
// Both keep their per-key lock state in LockCore (src/lvi/lock_core.h).

#ifndef RADICAL_SRC_LVI_LOCK_SERVICE_H_
#define RADICAL_SRC_LVI_LOCK_SERVICE_H_

#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "src/common/inline_task.h"
#include "src/lvi/lock_table.h"
#include "src/lvi/shard_router.h"
#include "src/raft/cluster.h"
#include "src/raft/lock_state_machine.h"

namespace radical {

class LockService {
 public:
  virtual ~LockService() = default;

  // Acquires locks on all `keys` (sorted lexicographically) with matching
  // `modes`; `granted` fires once every lock is held.
  virtual void AcquireAll(ExecutionId exec, std::vector<Key> keys, std::vector<LockMode> modes,
                          InlineTask granted) = 0;

  // Releases everything `exec` holds.
  virtual void ReleaseAll(ExecutionId exec) = 0;
};

// N >= 1 independent per-shard lock tables behind one LockService interface.
class ShardedLockService : public LockService {
 public:
  ShardedLockService(Simulator* sim, int shards);

  void AcquireAll(ExecutionId exec, std::vector<Key> keys, std::vector<LockMode> modes,
                  InlineTask granted) override;
  void ReleaseAll(ExecutionId exec) override;

  int shards() const { return router_.shards(); }
  const ShardRouter& router() const { return router_; }
  LockTable& table(int shard = 0) { return *tables_[static_cast<size_t>(shard)]; }

  // Aggregate statistics across shards.
  uint64_t total_acquisitions() const;
  uint64_t total_waits() const;

 private:
  struct ShardGroup {
    int shard = 0;
    std::vector<Key> keys;
    std::vector<LockMode> modes;
  };
  // One AcquireAll's per-shard groups, in ascending shard order, and the
  // continuation to fire once the last group is held.
  struct GroupChain {
    std::vector<ShardGroup> groups;
    InlineTask granted;
  };
  // Acquires `exec`'s group on `chain->groups[index]`, then chains to
  // index + 1; fires `chain->granted` after the last group.
  void AcquireGroup(ExecutionId exec, std::shared_ptr<GroupChain> chain, size_t index);

  ShardRouter router_;
  std::vector<std::unique_ptr<LockTable>> tables_;
};

// Locks behind Raft (etcd-like) groups. Owns the groups and their per-node
// lock state machines; grants are observed on the applied command stream.
class ReplicatedLockService : public LockService {
 public:
  // `node_count` is 3 in the paper's deployment (one per availability zone).
  // `batched` enables the §5.6 batching optimization: one Raft commit per
  // contiguous same-shard key run instead of one per lock (the paper
  // acquires in series and notes batching as future work). `shards` > 1
  // partitions the key space across that many independent Raft groups
  // (each `node_count` wide) keyed by ShardRouter.
  ReplicatedLockService(Simulator* sim, int node_count, RaftOptions raft_options = {},
                        LocalMeshOptions mesh_options = {}, bool batched = false,
                        int shards = 1);
  ~ReplicatedLockService() override;

  // Elects the initial leader of every group; call once before issuing
  // acquisitions. Returns false if any group failed to elect
  // (misconfiguration).
  bool Bootstrap();

  void AcquireAll(ExecutionId exec, std::vector<Key> keys, std::vector<LockMode> modes,
                  InlineTask granted) override;
  void ReleaseAll(ExecutionId exec) override;

  int shards() const { return router_.shards(); }
  const ShardRouter& router() const { return router_; }
  RaftCluster& cluster(int shard = 0) { return *groups_[static_cast<size_t>(shard)].cluster; }
  // The group leader's view of the lock state (tests).
  const LockStateMachine* LeaderState(int shard = 0) const;

  // Liveness counters.
  // Acquire proposals that timed out (e.g. a leaderless spell outlasting the
  // submit deadline) and were resubmitted instead of stalling forever.
  uint64_t acquire_resubmits() const { return acquire_resubmits_; }
  // Release proposals that timed out and were retried until committed
  // (dropping one would leak the lock in the replicated table).
  uint64_t release_retries() const { return release_retries_; }
  // Releases submitted because an acquire committed after its exec had
  // already released (a retried acquire landing late in the log).
  uint64_t compensating_releases() const { return compensating_releases_; }
  // (exec, key) grants reported and not yet released; 0 once every exec
  // has released.
  size_t held_grants() const { return held_grants_.size(); }

 private:
  struct LockGroup {
    std::vector<std::unique_ptr<LockStateMachine>> machines;  // One per node.
    std::unique_ptr<RaftCluster> cluster;
    // Grant-report high-water: the newest log index whose grants have been
    // reported, and the replica that applied it first (-1 once that
    // replica's machine is rebuilt).
    LogIndex reported_index = 0;
    NodeId reported_by = -1;
  };

  struct PendingAcquire {
    // Keys re-ordered into (shard, key) order; `shard_of` is parallel.
    std::vector<Key> keys;
    std::vector<LockMode> modes;
    std::vector<int> shard_of;
    // First key of the run being acquired: every key before it is granted.
    size_t next = 0;
    std::set<Key> granted_keys;
    InlineTask granted;
  };

  void BuildGroup(int g, int node_count, const RaftOptions& raft_options,
                  const LocalMeshOptions& mesh_options);
  // End of the run starting at `from`: the next key alone in serial mode,
  // the contiguous same-shard run when batched.
  size_t RunEnd(const PendingAcquire& acq, size_t from) const;
  // Moves `acq.next` past every run whose keys are all granted.
  void SkipGrantedRuns(PendingAcquire& acq) const;
  // Submits one acquire command for `exec`'s run at `next`; OnGrant submits
  // the following run once this one is granted.
  void SubmitRun(ExecutionId exec);
  // An acquire proposal timed out; resubmit once the dust settles.
  void OnAcquireSubmitFailed(ExecutionId exec);
  // A replica of `group` applying log `index` granted `exec` the lock on
  // `key`; acts only on the first replica to apply `index`.
  void OnGrant(LockGroup& group, NodeId node, LogIndex index, ExecutionId exec,
               const Key& key);
  // Submits (and retries until committed) `exec`'s release in `shard`.
  void SubmitRelease(ExecutionId exec, int shard);

  Simulator* sim_;
  bool batched_;
  RaftOptions raft_options_;
  ShardRouter router_;
  std::vector<LockGroup> groups_;
  std::unordered_map<ExecutionId, PendingAcquire> pending_;
  // Reported grants not yet released, ordered by exec so ReleaseAll finds
  // an exec's entries with one lower_bound. A grant for an exec with neither
  // a pending acquisition nor a held grant comes from an acquire that
  // committed after the exec released; it gets a compensating release.
  std::set<std::pair<ExecutionId, Key>> held_grants_;
  // Shards with a release submitted but not yet committed, per exec.
  std::unordered_map<ExecutionId, std::set<int>> releasing_;
  uint64_t acquire_resubmits_ = 0;
  uint64_t release_retries_ = 0;
  uint64_t compensating_releases_ = 0;
};

}  // namespace radical

#endif  // RADICAL_SRC_LVI_LOCK_SERVICE_H_
