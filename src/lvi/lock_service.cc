#include "src/lvi/lock_service.h"

#include <algorithm>
#include <cassert>

#include "src/common/logging.h"

namespace radical {

ShardedLockService::ShardedLockService(Simulator* sim, int shards) : router_(shards) {
  assert(shards >= 1);
  tables_.reserve(static_cast<size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    tables_.push_back(std::make_unique<LockTable>(sim));
  }
}

void ShardedLockService::AcquireAll(ExecutionId exec, std::vector<Key> keys,
                                    std::vector<LockMode> modes, InlineTask granted) {
  assert(std::is_sorted(keys.begin(), keys.end()) && "keys must be sorted");
  // An acquisition within one shard (with one shard: every acquisition, and
  // an empty key set) goes straight to that shard's table.
  const int home = keys.empty() ? 0 : router_.ShardOf(keys[0]);
  if (std::all_of(keys.begin(), keys.end(),
                  [this, home](const Key& key) { return router_.ShardOf(key) == home; })) {
    table(home).AcquireAll(exec, std::move(keys), std::move(modes), std::move(granted));
    return;
  }
  // Partition the sorted key set into per-shard groups, preserving key order
  // within each group: the acquisition order is (shard, key) — one total
  // order followed by every acquirer, hence deadlock-free.
  std::vector<ShardGroup> by_shard(static_cast<size_t>(router_.shards()));
  for (size_t i = 0; i < keys.size(); ++i) {
    ShardGroup& group = by_shard[static_cast<size_t>(router_.ShardOf(keys[i]))];
    group.keys.push_back(std::move(keys[i]));
    group.modes.push_back(modes[i]);
  }
  auto chain = std::make_shared<GroupChain>();
  for (int s = 0; s < router_.shards(); ++s) {
    if (!by_shard[static_cast<size_t>(s)].keys.empty()) {
      by_shard[static_cast<size_t>(s)].shard = s;
      chain->groups.push_back(std::move(by_shard[static_cast<size_t>(s)]));
    }
  }
  chain->granted = std::move(granted);
  AcquireGroup(exec, std::move(chain), 0);
}

void ShardedLockService::AcquireGroup(ExecutionId exec, std::shared_ptr<GroupChain> chain,
                                      size_t index) {
  if (index >= chain->groups.size()) {
    chain->granted();
    return;
  }
  ShardGroup& group = chain->groups[index];
  // A retried acquisition merges into the original inside the shard's table
  // (the new continuation replaces the queued one), exactly as with the
  // single table — the chain then resumes from wherever the retry reaches.
  table(group.shard).AcquireAll(exec, group.keys, group.modes,
                                [this, exec, chain = std::move(chain), index]() mutable {
                                  AcquireGroup(exec, std::move(chain), index + 1);
                                });
}

void ShardedLockService::ReleaseAll(ExecutionId exec) {
  for (auto& table : tables_) {
    table->ReleaseAll(exec);
  }
}

uint64_t ShardedLockService::total_acquisitions() const {
  uint64_t n = 0;
  for (const auto& table : tables_) {
    n += table->acquisitions();
  }
  return n;
}

uint64_t ShardedLockService::total_waits() const {
  uint64_t n = 0;
  for (const auto& table : tables_) {
    n += table->waits();
  }
  return n;
}

ReplicatedLockService::ReplicatedLockService(Simulator* sim, int node_count,
                                             RaftOptions raft_options,
                                             LocalMeshOptions mesh_options, bool batched,
                                             int shards)
    : sim_(sim),
      batched_(batched),
      raft_options_(raft_options),
      router_(std::max(1, shards)),
      groups_(static_cast<size_t>(router_.shards())) {
  for (int g = 0; g < router_.shards(); ++g) {
    BuildGroup(g, node_count, raft_options, mesh_options);
  }
}

void ReplicatedLockService::BuildGroup(int g, int node_count, const RaftOptions& raft_options,
                                       const LocalMeshOptions& mesh_options) {
  LockGroup& group = groups_[static_cast<size_t>(g)];
  group.machines.resize(static_cast<size_t>(node_count));  // Filled by the factory.
  // A single group keeps the historical "raft" metric scope; multi-group
  // deployments get one scope per shard so each group is observable.
  const std::string scope =
      router_.shards() == 1 ? "raft" : "raft.shard" + std::to_string(g);
  group.cluster = std::make_unique<RaftCluster>(
      sim_, node_count, raft_options,
      [this, g](NodeId id) -> RaftNode::ApplyFn {
        // On restart the machine is rebuilt from scratch and replayed; its
        // replay re-fires grants that were reported long ago.
        LockGroup& owner = groups_[static_cast<size_t>(g)];
        if (owner.reported_by == id) {
          owner.reported_by = -1;
        }
        auto& slot = owner.machines[static_cast<size_t>(id)];
        slot = std::make_unique<LockStateMachine>();
        LockStateMachine* raw = slot.get();
        raw->set_grant_listener([this, g, id, raw](ExecutionId exec, const Key& key) {
          OnGrant(groups_[static_cast<size_t>(g)], id, raw->last_applied(), exec, key);
        });
        return [raw](LogIndex index, const std::string& command) { raw->Apply(index, command); };
      },
      mesh_options, scope);
  // Snapshot hooks resolve the machine at call time, so they stay valid
  // across node restarts (which recreate the machines).
  for (NodeId id = 0; id < node_count; ++id) {
    group.cluster->node(id)->set_snapshot_hooks(
        [this, g, id]() {
          return groups_[static_cast<size_t>(g)].machines[static_cast<size_t>(id)]->EncodeSnapshot();
        },
        [this, g, id](const std::string& data) {
          groups_[static_cast<size_t>(g)].machines[static_cast<size_t>(id)]->RestoreSnapshot(data);
        });
  }
}

ReplicatedLockService::~ReplicatedLockService() = default;

bool ReplicatedLockService::Bootstrap() {
  for (auto& group : groups_) {
    if (group.cluster->StartAndElect() < 0) {
      return false;
    }
  }
  return true;
}

const LockStateMachine* ReplicatedLockService::LeaderState(int shard) const {
  const LockGroup& group = groups_[static_cast<size_t>(shard)];
  const NodeId id = group.cluster->LeaderId();
  return id < 0 ? nullptr : group.machines[static_cast<size_t>(id)].get();
}

void ReplicatedLockService::AcquireAll(ExecutionId exec, std::vector<Key> keys,
                                       std::vector<LockMode> modes,
                                       InlineTask granted) {
  assert(keys.size() == modes.size());
  if (keys.empty()) {
    sim_->Schedule(0, std::move(granted));
    return;
  }
  const auto pit = pending_.find(exec);
  if (pit != pending_.end()) {
    // Retried acquisition while the original is still working through Raft:
    // keep its progress, steer the grant to the retry's continuation.
    pit->second.granted = std::move(granted);
    return;
  }
  PendingAcquire acq;
  if (router_.shards() == 1) {
    acq.keys = std::move(keys);
    acq.modes = std::move(modes);
    acq.shard_of.assign(acq.keys.size(), 0);
  } else {
    // Re-order the (lexicographically sorted) key set into (shard, key)
    // order — the same total order ShardedLockService acquires in, so the
    // resource-ordering deadlock-freedom argument carries over.
    std::vector<size_t> order(keys.size());
    std::vector<int> shard(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      order[i] = i;
      shard[i] = router_.ShardOf(keys[i]);
    }
    std::stable_sort(order.begin(), order.end(), [&shard](size_t a, size_t b) {
      return shard[a] < shard[b];
    });
    acq.keys.reserve(keys.size());
    acq.modes.reserve(keys.size());
    acq.shard_of.reserve(keys.size());
    for (size_t i : order) {
      acq.keys.push_back(std::move(keys[i]));
      acq.modes.push_back(modes[i]);
      acq.shard_of.push_back(shard[i]);
    }
  }
  acq.granted = std::move(granted);
  // Grants this exec already received (a retry after a crash re-acquires
  // locks it still holds in the replicated table) count immediately.
  for (const Key& key : acq.keys) {
    if (held_grants_.count({exec, key}) > 0) {
      acq.granted_keys.insert(key);
    }
  }
  if (acq.granted_keys.size() == acq.keys.size()) {
    sim_->Schedule(0, std::move(acq.granted));
    return;
  }
  pending_.emplace(exec, std::move(acq));
  SubmitRun(exec);
}

size_t ReplicatedLockService::RunEnd(const PendingAcquire& acq, size_t from) const {
  if (from >= acq.keys.size() || !batched_) {
    return std::min(from + 1, acq.keys.size());
  }
  const int shard = acq.shard_of[from];
  size_t end = from;
  while (end < acq.keys.size() && acq.shard_of[end] == shard) {
    ++end;
  }
  return end;
}

void ReplicatedLockService::SkipGrantedRuns(PendingAcquire& acq) const {
  while (acq.next < acq.keys.size()) {
    const size_t end = RunEnd(acq, acq.next);
    for (size_t i = acq.next; i < end; ++i) {
      if (acq.granted_keys.count(acq.keys[i]) == 0) {
        return;
      }
    }
    acq.next = end;
  }
}

void ReplicatedLockService::SubmitRun(ExecutionId exec) {
  const auto it = pending_.find(exec);
  if (it == pending_.end()) {
    return;
  }
  PendingAcquire& acq = it->second;
  // Skip runs already granted (pre-grants from a retry after a crash).
  SkipGrantedRuns(acq);
  if (acq.next >= acq.keys.size()) {
    return;  // Completion is handled on the grant path.
  }
  // Locks are acquired in series (§5.6), one commit per key. Batched, one
  // commit carries a same-shard run's whole key set and the state machine
  // grants what is free and queues the rest atomically. Either way a run is
  // only submitted once the one before it is granted, in ascending (shard,
  // key) order — see OnGrant.
  const size_t end = RunEnd(acq, acq.next);
  std::string command;
  if (batched_) {
    const std::vector<Key> run_keys(acq.keys.begin() + acq.next, acq.keys.begin() + end);
    const std::vector<LockMode> run_modes(acq.modes.begin() + acq.next,
                                          acq.modes.begin() + end);
    command = LockStateMachine::EncodeBatchAcquire(exec, run_keys, run_modes);
  } else {
    command = LockStateMachine::EncodeAcquire(exec, acq.modes[acq.next], acq.keys[acq.next]);
  }
  cluster(acq.shard_of[acq.next])
      .SubmitToLeader(std::move(command), [this, exec](LogIndex index) {
        if (index == 0) {
          OnAcquireSubmitFailed(exec);
        }
      });
}

void ReplicatedLockService::OnAcquireSubmitFailed(ExecutionId exec) {
  if (pending_.count(exec) == 0) {
    return;  // Granted through another path or released meanwhile.
  }
  // The proposal outlived the submit deadline (a leaderless spell, or the
  // proposing leader lost its term). The command may or may not be in some
  // log; resubmitting is idempotent either way, and *not* resubmitting
  // would stall the acquisition forever.
  ++acquire_resubmits_;
  RLOG(kWarn) << "replicated acquire proposal timed out; resubmitting exec=" << exec;
  sim_->Schedule(raft_options_.election_timeout_min, [this, exec] { SubmitRun(exec); });
}

void ReplicatedLockService::OnGrant(LockGroup& group, NodeId node, LogIndex index,
                                    ExecutionId exec, const Key& key) {
  // Every replica applies every committed command and, the machines being
  // deterministic, fires the same grants for it. Only the first replica to
  // apply a log index reports them; grants from other replicas applying it
  // later, and from a restarted replica replaying its log, are echoes.
  if (index < group.reported_index ||
      (index == group.reported_index && node != group.reported_by)) {
    return;
  }
  group.reported_index = index;
  group.reported_by = node;
  const auto it = pending_.find(exec);
  if (it == pending_.end()) {
    const auto held = held_grants_.lower_bound({exec, Key()});
    if (held != held_grants_.end() && held->first == exec) {
      // A duplicate acquire re-granting a key of a completed acquisition.
      held_grants_.emplace(exec, key);
      return;
    }
    // Neither acquiring nor holding: the exec released before this (retried)
    // acquire committed. Submit a fresh release: it necessarily lands after
    // the acquire in the group's log, so the stray lock cannot leak.
    ++compensating_releases_;
    const int shard = router_.ShardOf(key);
    releasing_[exec].insert(shard);
    SubmitRelease(exec, shard);
    return;
  }
  held_grants_.emplace(exec, key);
  PendingAcquire& acq = it->second;
  const bool expected =
      std::find(acq.keys.begin(), acq.keys.end(), key) != acq.keys.end();
  if (!expected) {
    return;  // A grant for some other key (e.g. replayed after restart).
  }
  acq.granted_keys.insert(key);
  const size_t run = acq.next;
  SkipGrantedRuns(acq);
  if (acq.next != run && acq.next < acq.keys.size()) {
    // The current run is granted: submit the next one. Schedule rather than
    // recurse: grants fire inside Raft's apply path.
    sim_->Schedule(0, [this, exec] { SubmitRun(exec); });
  }
  if (acq.granted_keys.size() < acq.keys.size()) {
    return;
  }
  InlineTask granted = std::move(acq.granted);
  pending_.erase(it);
  if (granted) {
    sim_->Schedule(0, std::move(granted));
  }
}

void ReplicatedLockService::ReleaseAll(ExecutionId exec) {
  // Collect the groups that may hold state for this exec: those of every
  // granted key, plus those of every key at or before the submission
  // frontier of a still-pending acquire (submitted but ungranted commands
  // may be queued in the group's table).
  std::set<int> shards;
  for (auto it = held_grants_.lower_bound({exec, Key()});
       it != held_grants_.end() && it->first == exec;) {
    shards.insert(router_.ShardOf(it->second));
    it = held_grants_.erase(it);
  }
  const auto pit = pending_.find(exec);
  if (pit != pending_.end()) {
    const PendingAcquire& acq = pit->second;
    const size_t frontier = RunEnd(acq, acq.next);
    for (size_t i = 0; i < frontier; ++i) {
      shards.insert(acq.shard_of[i]);
    }
    pending_.erase(pit);
  }
  if (shards.empty()) {
    shards.insert(0);  // Stray release: route to group 0 (harmless no-op).
  }
  for (int shard : shards) {
    if (releasing_[exec].insert(shard).second) {
      SubmitRelease(exec, shard);
    }
  }
}

void ReplicatedLockService::SubmitRelease(ExecutionId exec, int shard) {
  cluster(shard).SubmitToLeader(
      LockStateMachine::EncodeRelease(exec), [this, exec, shard](LogIndex index) {
        const auto rit = releasing_.find(exec);
        if (rit == releasing_.end()) {
          return;
        }
        if (index != 0) {
          rit->second.erase(shard);
          if (rit->second.empty()) {
            releasing_.erase(rit);
          }
          return;
        }
        // The release outlived the submit deadline. Retry until it commits:
        // dropping it would leak the lock in the replicated table forever.
        ++release_retries_;
        RLOG(kWarn) << "replicated release timed out; retrying exec=" << exec;
        sim_->Schedule(raft_options_.election_timeout_min, [this, exec, shard] {
          const auto rit2 = releasing_.find(exec);
          if (rit2 != releasing_.end() && rit2->second.count(shard) > 0) {
            SubmitRelease(exec, shard);
          }
        });
      });
}

}  // namespace radical
