// RaftCluster: construction and client-side helpers for a Raft group.
//
// Owns the nodes and the AZ mesh, wires peer resolution, and provides the
// client API the replicated lock service uses: SubmitToLeader retries until
// the proposal lands on whoever currently leads.

#ifndef RADICAL_SRC_RAFT_CLUSTER_H_
#define RADICAL_SRC_RAFT_CLUSTER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/raft/node.h"

namespace radical {

class RaftCluster {
 public:
  // Creates an SM instance's apply callback for a node (called again after a
  // restart so the state machine can be rebuilt by replay).
  using ApplyFactory = std::function<RaftNode::ApplyFn(NodeId)>;

  // `metric_scope` prefixes the per-node health gauges (made unique via
  // UniqueScopeName); multi-group deployments pass "raft.shard<i>" so each
  // lock shard's group is separately observable.
  RaftCluster(Simulator* sim, int node_count, RaftOptions options, ApplyFactory apply_factory,
              LocalMeshOptions mesh_options = {}, const std::string& metric_scope = "raft");

  // Starts all nodes and runs the simulator until a leader emerges.
  // Returns the leader id, or -1 if none emerged within the deadline.
  NodeId StartAndElect(SimDuration deadline = Seconds(5));

  // Currently known leader (-1 if none alive claims leadership).
  NodeId LeaderId() const;
  RaftNode* leader();
  RaftNode* node(NodeId id) { return nodes_[static_cast<size_t>(id)].get(); }
  int size() const { return static_cast<int>(nodes_.size()); }
  LocalMesh& mesh() { return *mesh_; }
  Simulator* simulator() { return sim_; }

  // Proposes `command`, retrying against whichever node claims leadership
  // until it commits or `deadline` virtual time passes. `done(index)` fires
  // on commit; `done(0)` on deadline.
  void SubmitToLeader(std::string command, RaftNode::ProposeCallback done,
                      SimDuration deadline = Seconds(5));

  // Fault injection.
  void CrashNode(NodeId id);
  void RestartNode(NodeId id);

 private:
  void TrySubmit(std::string command, RaftNode::ProposeCallback done, SimTime deadline_at);

  Simulator* sim_;
  RaftOptions options_;
  ApplyFactory apply_factory_;
  std::unique_ptr<LocalMesh> mesh_;
  std::vector<std::unique_ptr<RaftNode>> nodes_;
};

}  // namespace radical

#endif  // RADICAL_SRC_RAFT_CLUSTER_H_
