#include "src/raft/cluster.h"

#include <string>

#include "src/obs/metrics.h"

namespace radical {

RaftCluster::RaftCluster(Simulator* sim, int node_count, RaftOptions options,
                         ApplyFactory apply_factory, LocalMeshOptions mesh_options,
                         const std::string& metric_scope)
    : sim_(sim), options_(options), apply_factory_(std::move(apply_factory)) {
  mesh_ = std::make_unique<LocalMesh>(sim, node_count, mesh_options);
  for (NodeId id = 0; id < node_count; ++id) {
    RaftNode::ApplyFn apply = apply_factory_ ? apply_factory_(id) : RaftNode::ApplyFn{};
    nodes_.push_back(
        std::make_unique<RaftNode>(id, node_count, mesh_.get(), options_, std::move(apply)));
  }
  for (auto& node : nodes_) {
    node->SetPeerResolver([this](NodeId id) { return nodes_[static_cast<size_t>(id)].get(); });
  }
  // Per-node health gauges, read off the node at snapshot time.
  obs::MetricsRegistry& reg = sim->metrics();
  const std::string prefix = reg.UniqueScopeName(metric_scope);
  for (NodeId id = 0; id < node_count; ++id) {
    const RaftNode* n = nodes_[static_cast<size_t>(id)].get();
    const std::string base = prefix + ".node" + std::to_string(id);
    reg.AddCallbackGauge(base + ".term", [n] { return static_cast<int64_t>(n->term()); });
    reg.AddCallbackGauge(base + ".commit_index",
                         [n] { return static_cast<int64_t>(n->commit_index()); });
    reg.AddCallbackGauge(base + ".is_leader", [n] { return n->is_leader() ? 1 : 0; });
    reg.AddCallbackGauge(base + ".alive", [n] { return n->alive() ? 1 : 0; });
  }
}

NodeId RaftCluster::StartAndElect(SimDuration deadline) {
  for (auto& node : nodes_) {
    node->Start();
  }
  const SimTime limit = sim_->Now() + deadline;
  while (sim_->Now() < limit) {
    const NodeId leader_id = LeaderId();
    if (leader_id >= 0) {
      return leader_id;
    }
    if (!sim_->Step()) {
      break;
    }
  }
  return LeaderId();
}

NodeId RaftCluster::LeaderId() const {
  // Highest term wins if multiple claim leadership transiently.
  NodeId best = -1;
  Term best_term = 0;
  for (const auto& node : nodes_) {
    if (node->is_leader() && node->term() >= best_term) {
      best = node->id();
      best_term = node->term();
    }
  }
  return best;
}

RaftNode* RaftCluster::leader() {
  const NodeId id = LeaderId();
  return id < 0 ? nullptr : nodes_[static_cast<size_t>(id)].get();
}

void RaftCluster::SubmitToLeader(std::string command, RaftNode::ProposeCallback done,
                                 SimDuration deadline) {
  TrySubmit(std::move(command), std::move(done), sim_->Now() + deadline);
}

void RaftCluster::TrySubmit(std::string command, RaftNode::ProposeCallback done,
                            SimTime deadline_at) {
  if (sim_->Now() >= deadline_at) {
    if (done) {
      done(0);
    }
    return;
  }
  RaftNode* lead = leader();
  if (lead == nullptr) {
    // No leader yet: back off one election timeout and retry.
    sim_->Schedule(options_.election_timeout_min,
                   [this, command = std::move(command), done = std::move(done), deadline_at]() mutable {
                     TrySubmit(std::move(command), std::move(done), deadline_at);
                   });
    return;
  }
  std::string command_copy = command;
  lead->Propose(std::move(command_copy),
                [this, command = std::move(command), done = std::move(done),
                 deadline_at](LogIndex index) mutable {
                  if (index != 0) {
                    if (done) {
                      done(index);
                    }
                    return;
                  }
                  // Leadership changed under us: retry.
                  sim_->Schedule(options_.heartbeat_interval,
                                 [this, command = std::move(command), done = std::move(done),
                                  deadline_at]() mutable {
                                   TrySubmit(std::move(command), std::move(done), deadline_at);
                                 });
                });
}

void RaftCluster::CrashNode(NodeId id) { nodes_[static_cast<size_t>(id)]->Crash(); }

void RaftCluster::RestartNode(NodeId id) {
  RaftNode* node = nodes_[static_cast<size_t>(id)].get();
  if (apply_factory_) {
    node->set_apply(apply_factory_(id));
  }
  node->Restart();
}

}  // namespace radical
