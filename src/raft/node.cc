#include "src/raft/node.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "src/common/logging.h"

namespace radical {
namespace {

// Approximate wire sizes of the Raft RPCs: fixed header fields (terms,
// indices, ids) plus per-entry payload. Exact enough for the fabric's byte
// accounting; Raft traffic never crosses the WAN so it does not affect the
// §5.7 cost numbers.
constexpr size_t kVoteWireSize = 40;
constexpr size_t kVoteReplyWireSize = 32;
constexpr size_t kAppendReplyWireSize = 40;

size_t AppendWireSize(const AppendEntriesArgs& args) {
  size_t size = 56;
  for (const LogEntry& entry : args.entries) {
    size += 16 + entry.command.size();
  }
  return size;
}

size_t SnapshotWireSize(const InstallSnapshotArgs& args) { return 56 + args.data.size(); }

// "Never heard from a leader": far enough in the virtual past that the
// leader-stickiness window has always expired (without underflowing when an
// election timeout is subtracted).
constexpr SimTime kNeverHeard = std::numeric_limits<SimTime>::min() / 2;

}  // namespace

const char* RaftRoleName(RaftRole role) {
  switch (role) {
    case RaftRole::kFollower:
      return "follower";
    case RaftRole::kCandidate:
      return "candidate";
    case RaftRole::kLeader:
      return "leader";
  }
  return "?";
}

RaftNode::RaftNode(NodeId id, int cluster_size, LocalMesh* mesh, RaftOptions options,
                   ApplyFn apply)
    : id_(id),
      cluster_size_(cluster_size),
      mesh_(mesh),
      options_(options),
      apply_(std::move(apply)),
      rng_(mesh->simulator()->rng().Fork()),
      last_leader_contact_(kNeverHeard) {}

void RaftNode::Start() {
  alive_ = true;
  role_ = RaftRole::kFollower;
  ResetElectionTimer();
}

void RaftNode::Crash() {
  alive_ = false;
  CancelTimers();
  // Volatile state is gone; persistent (term, votedFor, log) stays.
  commit_index_ = 0;
  last_applied_ = 0;
  votes_granted_.clear();
  pre_candidate_ = false;
  prevotes_granted_.clear();
  last_leader_contact_ = kNeverHeard;
  transfer_target_ = -1;
  leader_hint_ = -1;
  ack_anchor_.clear();
  proposal_busy_until_ = 0;
  next_index_.clear();
  match_index_.clear();
  sent_index_.clear();
  probing_.clear();
  FailPendingProposals();
}

void RaftNode::Restart() {
  assert(!alive_);
  // Rebuild the state machine: restore the persisted snapshot (if any), then
  // the apply loop replays the remaining log suffix as commit advances.
  if (!snapshot_data_.empty() && restore_) {
    restore_(snapshot_data_);
  }
  last_applied_ = log_.snapshot_index();
  commit_index_ = log_.snapshot_index();
  Start();
}

void RaftNode::CancelTimers() {
  Simulator* sim = mesh_->simulator();
  if (election_timer_ != kInvalidEventId) {
    sim->Cancel(election_timer_);
    election_timer_ = kInvalidEventId;
  }
  if (heartbeat_timer_ != kInvalidEventId) {
    sim->Cancel(heartbeat_timer_);
    heartbeat_timer_ = kInvalidEventId;
  }
}

void RaftNode::ResetElectionTimer() {
  Simulator* sim = mesh_->simulator();
  if (election_timer_ != kInvalidEventId) {
    sim->Cancel(election_timer_);
  }
  const SimDuration timeout = rng_.NextInRange(options_.election_timeout_min,
                                               options_.election_timeout_max);
  election_timer_ = sim->Schedule(timeout, [this] {
    election_timer_ = kInvalidEventId;
    if (alive_ && role_ != RaftRole::kLeader) {
      BecomeCandidate();
    }
  });
}

void RaftNode::BecomeFollower(Term term) {
  const bool was_leader = (role_ == RaftRole::kLeader);
  role_ = RaftRole::kFollower;
  pre_candidate_ = false;
  prevotes_granted_.clear();
  votes_granted_.clear();
  transfer_target_ = -1;
  if (term > current_term_) {
    current_term_ = term;
    voted_for_ = -1;
  }
  if (heartbeat_timer_ != kInvalidEventId) {
    mesh_->simulator()->Cancel(heartbeat_timer_);
    heartbeat_timer_ = kInvalidEventId;
  }
  if (was_leader) {
    FailPendingProposals();
  }
  ResetElectionTimer();
}

void RaftNode::BecomeCandidate() {
  if (options_.pre_vote) {
    // Pre-vote round: poll a majority at the term we *would* campaign at,
    // changing no persistent state. Only a successful poll starts the real
    // election — a node that cannot reach a majority (partitioned away)
    // keeps its term where it was.
    pre_candidate_ = true;
    prevotes_granted_.clear();
    prevotes_granted_.insert(id_);
    if (static_cast<int>(prevotes_granted_.size()) >= majority()) {
      StartRealElection();  // A one-node group: its own pre-vote suffices.
      return;
    }
    RLOG(kDebug) << "raft node " << id_ << " starts pre-vote, term " << current_term_ + 1;
    ResetElectionTimer();
    BroadcastVoteRequest(RequestVoteArgs{.term = current_term_ + 1,
                                         .candidate = id_,
                                         .last_log_index = log_.last_index(),
                                         .last_log_term = log_.last_term(),
                                         .pre_vote = true});
    return;
  }
  StartRealElection();
}

void RaftNode::StartRealElection() {
  pre_candidate_ = false;
  prevotes_granted_.clear();
  role_ = RaftRole::kCandidate;
  ++current_term_;
  voted_for_ = id_;
  votes_granted_.clear();
  votes_granted_.insert(id_);  // Own vote.
  if (static_cast<int>(votes_granted_.size()) >= majority()) {
    BecomeLeader();  // A one-node group: no reply will ever come.
    return;
  }
  RLOG(kDebug) << "raft node " << id_ << " starts election, term " << current_term_;
  ResetElectionTimer();
  BroadcastVoteRequest(RequestVoteArgs{.term = current_term_,
                                       .candidate = id_,
                                       .last_log_index = log_.last_index(),
                                       .last_log_term = log_.last_term(),
                                       .pre_vote = false});
}

void RaftNode::BroadcastVoteRequest(const RequestVoteArgs& args) {
  for (NodeId peer = 0; peer < mesh_->node_count(); ++peer) {
    if (peer == id_) {
      continue;
    }
    mesh_->endpoint(id_).Send(mesh_->endpoint(peer), net::MessageKind::kRaftVote,
                              kVoteWireSize, [this, peer, args] {
      RaftNode* node = peers_(peer);
      if (node == nullptr || !node->alive_) {
        return;
      }
      const RequestVoteReply reply = node->HandleRequestVote(args);
      mesh_->endpoint(peer).Send(mesh_->endpoint(id_), net::MessageKind::kRaftVoteReply,
                                 kVoteReplyWireSize, [this, reply] {
        if (alive_) {
          HandleVoteReply(reply);
        }
      });
    });
  }
}

void RaftNode::BecomeLeader() {
  role_ = RaftRole::kLeader;
  leader_hint_ = id_;
  pre_candidate_ = false;
  transfer_target_ = -1;
  RLOG(kInfo) << "raft node " << id_ << " becomes leader, term " << current_term_;
  // Every follower starts out probing at our log end: the first heartbeat
  // finds where its log actually stands before anything is pipelined.
  const auto nodes = static_cast<size_t>(mesh_->node_count());
  next_index_.assign(nodes, log_.last_index() + 1);
  match_index_.assign(nodes, 0);
  sent_index_.assign(nodes, log_.last_index());
  probing_.assign(nodes, 1);
  ack_anchor_.assign(static_cast<size_t>(mesh_->node_count()), kNeverHeard);
  if (options_.leader_lease) {
    // Commit a current-term entry right away: lease reads are only safe once
    // the leader's commit index has caught up to its own term (leader
    // completeness then guarantees its applied state is current). The state
    // machines ignore unknown commands.
    log_.Append(LogEntry{current_term_, "noop"});
  }
  match_index_[static_cast<size_t>(id_)] = log_.last_index();
  if (election_timer_ != kInvalidEventId) {
    mesh_->simulator()->Cancel(election_timer_);
    election_timer_ = kInvalidEventId;
  }
  SendHeartbeats();
}

void RaftNode::SendHeartbeats() {
  if (!alive_ || role_ != RaftRole::kLeader) {
    return;
  }
  // A leader is its own freshest leader contact: if deposed and asked for a
  // pre-vote moments later, it should refuse like any sticky follower.
  last_leader_contact_ = mesh_->simulator()->Now();
  // Each beat re-ships the unacknowledged window from next_index: it probes a
  // probing peer again and repairs an append the mesh lost.
  for (NodeId peer = 0; peer < mesh_->node_count(); ++peer) {
    if (peer != id_) {
      SendAppend(peer, next_index_[static_cast<size_t>(peer)] - 1);
    }
  }
  heartbeat_timer_ = mesh_->simulator()->Schedule(options_.heartbeat_interval, [this] {
    heartbeat_timer_ = kInvalidEventId;
    SendHeartbeats();
  });
}

void RaftNode::SendAppend(NodeId peer, LogIndex prev) {
  if (!alive_ || role_ != RaftRole::kLeader) {
    return;
  }
  const auto p = static_cast<size_t>(peer);
  if (prev < log_.snapshot_index()) {
    // The entries this follower needs were compacted away: ship the whole
    // state-machine snapshot instead, and pipeline nothing behind it until
    // the follower confirms the install.
    SendSnapshotTo(peer);
    probing_[p] = 1;
    next_index_[p] = log_.snapshot_index() + 1;
    sent_index_[p] = log_.snapshot_index();
    return;
  }
  AppendEntriesArgs args{.term = current_term_,
                         .leader = id_,
                         .prev_index = prev,
                         .prev_term = log_.TermAt(prev),
                         .entries = log_.EntriesAfter(prev, options_.max_entries_per_append),
                         .leader_commit = commit_index_};
  sent_index_[p] = std::max(sent_index_[p], prev + args.entries.size());
  const SimTime sent_at = mesh_->simulator()->Now();
  const size_t wire_size = AppendWireSize(args);
  // The follower fsyncs new entries to its WAL before acknowledging.
  const SimDuration handle_delay =
      options_.process_delay + (args.entries.empty() ? 0 : options_.fsync_delay);
  mesh_->endpoint(id_).Send(mesh_->endpoint(peer), net::MessageKind::kRaftAppend, wire_size,
                            [this, peer, args = std::move(args), sent_at,
                             handle_delay]() mutable {
    RaftNode* node = peers_(peer);
    if (node == nullptr || !node->alive_) {
      return;
    }
    mesh_->simulator()->Schedule(handle_delay, [this, peer, args = std::move(args), sent_at] {
      RaftNode* target = peers_(peer);
      if (target == nullptr || !target->alive_) {
        return;
      }
      const AppendEntriesReply reply = target->HandleAppendEntries(args);
      mesh_->endpoint(peer).Send(mesh_->endpoint(id_), net::MessageKind::kRaftAppendReply,
                                 kAppendReplyWireSize, [this, reply, sent_at] {
        if (alive_) {
          HandleAppendReply(reply, sent_at);
        }
      });
    });
  });
}

void RaftNode::ShipUnsent(NodeId peer) {
  const auto p = static_cast<size_t>(peer);
  if (!probing_[p] && sent_index_[p] < log_.last_index()) {
    SendAppend(peer, sent_index_[p]);
  }
}

void RaftNode::SendSnapshotTo(NodeId peer) {
  InstallSnapshotArgs args{.term = current_term_,
                           .leader = id_,
                           .last_included_index = log_.snapshot_index(),
                           .last_included_term = log_.snapshot_term(),
                           .data = snapshot_data_};
  const SimTime sent_at = mesh_->simulator()->Now();
  const size_t wire_size = SnapshotWireSize(args);
  mesh_->endpoint(id_).Send(mesh_->endpoint(peer), net::MessageKind::kRaftSnapshot, wire_size,
                            [this, peer, args = std::move(args), sent_at]() mutable {
    RaftNode* node = peers_(peer);
    if (node == nullptr || !node->alive_) {
      return;
    }
    // Installing a snapshot is a disk write on the follower.
    mesh_->simulator()->Schedule(options_.process_delay + options_.fsync_delay,
                                 [this, peer, args = std::move(args), sent_at] {
      RaftNode* target = peers_(peer);
      if (target == nullptr || !target->alive_) {
        return;
      }
      const AppendEntriesReply reply = target->HandleInstallSnapshot(args);
      mesh_->endpoint(peer).Send(mesh_->endpoint(id_), net::MessageKind::kRaftAppendReply,
                                 kAppendReplyWireSize, [this, reply, sent_at] {
        if (alive_) {
          HandleAppendReply(reply, sent_at);
        }
      });
    });
  });
}

AppendEntriesReply RaftNode::HandleInstallSnapshot(const InstallSnapshotArgs& args) {
  AppendEntriesReply reply{.term = current_term_, .success = false, .match_index = 0,
                           .from = id_};
  if (args.term < current_term_) {
    return reply;
  }
  if (args.term > current_term_ || role_ != RaftRole::kFollower) {
    BecomeFollower(args.term);
  } else {
    ResetElectionTimer();
  }
  leader_hint_ = args.leader;
  last_leader_contact_ = mesh_->simulator()->Now();
  reply.term = current_term_;
  if (args.last_included_index <= log_.snapshot_index()) {
    // Stale snapshot; we already have at least this much.
    reply.success = true;
    reply.match_index = log_.snapshot_index();
    return reply;
  }
  // If our log already contains the snapshot's last entry with the right
  // term, keep the suffix (Raft §7); otherwise discard everything.
  if (log_.HasEntry(args.last_included_index) &&
      log_.TermAt(args.last_included_index) == args.last_included_term) {
    log_.CompactTo(args.last_included_index);
  } else {
    log_.ResetToSnapshot(args.last_included_index, args.last_included_term);
  }
  snapshot_data_ = args.data;
  if (restore_) {
    restore_(args.data);
  }
  last_applied_ = args.last_included_index;
  commit_index_ = std::max(commit_index_, args.last_included_index);
  reply.success = true;
  reply.match_index = args.last_included_index;
  return reply;
}

void RaftNode::MaybeCompact() {
  if (options_.compaction_threshold == 0 || !snapshot_ ||
      last_applied_ - log_.snapshot_index() < options_.compaction_threshold) {
    return;
  }
  snapshot_data_ = snapshot_();
  log_.CompactTo(last_applied_);
}

bool RaftNode::HeardFromLeaderRecently() const {
  if (role_ == RaftRole::kLeader) {
    return true;
  }
  return mesh_->simulator()->Now() - last_leader_contact_ < options_.election_timeout_min;
}

RequestVoteReply RaftNode::HandleRequestVote(const RequestVoteArgs& args) {
  RequestVoteReply reply{.term = current_term_, .granted = false, .from = id_,
                         .pre_vote = args.pre_vote};
  const bool log_ok = args.last_log_term > log_.last_term() ||
                      (args.last_log_term == log_.last_term() &&
                       args.last_log_index >= log_.last_index());
  if (args.pre_vote) {
    // A pre-vote changes nothing on the voter — no term bump, no votedFor,
    // no timer reset. Grant only if the poll would beat our term, the
    // candidate's log qualifies, and we have not heard from a live leader
    // within the minimum election timeout (leader stickiness).
    reply.granted = args.term > current_term_ && log_ok && !HeardFromLeaderRecently();
    return reply;
  }
  if (args.term < current_term_) {
    return reply;
  }
  if (args.term > current_term_) {
    BecomeFollower(args.term);
  }
  reply.term = current_term_;
  if ((voted_for_ == -1 || voted_for_ == args.candidate) && log_ok) {
    voted_for_ = args.candidate;
    reply.granted = true;
    ResetElectionTimer();
  }
  return reply;
}

void RaftNode::HandleVoteReply(const RequestVoteReply& reply) {
  if (reply.term > current_term_) {
    // The peer is ahead (true for both real votes and pre-vote rejections
    // from a higher term): adopt its term.
    BecomeFollower(reply.term);
    return;
  }
  if (reply.pre_vote) {
    if (!pre_candidate_ || !reply.granted) {
      return;
    }
    prevotes_granted_.insert(reply.from);
    if (static_cast<int>(prevotes_granted_.size()) >= majority()) {
      StartRealElection();
    }
    return;
  }
  if (role_ != RaftRole::kCandidate || reply.term < current_term_ || !reply.granted) {
    return;
  }
  // Count each voter once: a duplicated or retried granted reply from the
  // same peer must not be able to fake a majority.
  votes_granted_.insert(reply.from);
  if (static_cast<int>(votes_granted_.size()) >= majority()) {
    BecomeLeader();
  }
}

AppendEntriesReply RaftNode::HandleAppendEntries(const AppendEntriesArgs& args) {
  AppendEntriesReply reply{.term = current_term_, .success = false, .match_index = 0,
                           .from = id_};
  if (args.term < current_term_) {
    return reply;
  }
  // Valid leader for this term (or newer): follow it.
  if (args.term > current_term_ || role_ != RaftRole::kFollower) {
    BecomeFollower(args.term);
  } else {
    ResetElectionTimer();
  }
  leader_hint_ = args.leader;
  last_leader_contact_ = mesh_->simulator()->Now();
  reply.term = current_term_;
  if (!log_.TryAppend(args.prev_index, args.prev_term, args.entries)) {
    reply.rejected_index = args.prev_index;
    // Fill the fast-backoff hint: where our log actually diverges, so the
    // leader can jump next_index over a whole conflicting term at once.
    if (args.prev_index > log_.last_index()) {
      reply.conflict_term = 0;
      reply.conflict_index = log_.last_index() + 1;
    } else {
      const Term conflicting = log_.TermAt(args.prev_index);
      if (conflicting == 0) {
        // prev_index sits below our snapshot base with a mismatching term
        // claim; everything we can say is where retained entries start.
        reply.conflict_term = 0;
        reply.conflict_index = log_.snapshot_index() + 1;
      } else {
        reply.conflict_term = conflicting;
        reply.conflict_index = log_.FirstIndexOfTerm(args.prev_index);
      }
    }
    return reply;
  }
  reply.success = true;
  reply.match_index = args.prev_index + args.entries.size();
  // Commit no further than this append verified (Raft Fig. 2: the index of
  // the last new entry). Entries past it may be a stale suffix of an older
  // term that a later append will still truncate.
  const LogIndex verified = std::min(args.leader_commit, reply.match_index);
  if (verified > commit_index_) {
    commit_index_ = verified;
    ApplyCommitted();
  }
  return reply;
}

void RaftNode::HandleAppendReply(const AppendEntriesReply& reply, SimTime sent_at) {
  if (reply.term > current_term_) {
    BecomeFollower(reply.term);
    return;
  }
  if (role_ != RaftRole::kLeader || reply.term < current_term_) {
    return;
  }
  const auto peer = static_cast<size_t>(reply.from);
  // Any current-term reply — success or not — proves the follower processed
  // an RPC of ours sent at `sent_at`; that send time anchors the lease.
  if (sent_at >= 0 && peer < ack_anchor_.size()) {
    ack_anchor_[peer] = std::max(ack_anchor_[peer], sent_at);
  }
  if (reply.success) {
    match_index_[peer] = std::max(match_index_[peer], reply.match_index);
    next_index_[peer] = match_index_[peer] + 1;
    sent_index_[peer] = std::max(sent_index_[peer], match_index_[peer]);
    probing_[peer] = 0;
    AdvanceCommit();
    // Leadership transfer: the successor just caught up — tell it to go.
    if (TransferInProgress() && transfer_target_ == reply.from &&
        match_index_[peer] == log_.last_index()) {
      SendTimeoutNow(reply.from);
      return;
    }
    // Entries left unsent (the max_entries_per_append cap, or a probe that
    // just succeeded)? Keep the pipe full without waiting for the next beat.
    ShipUnsent(reply.from);
    return;
  }
  // Consistency check failed. Appends pipelined before an earlier rewind
  // still answer; those rejections are stale. A pipelining peer's rejection
  // is stale once a success has covered it, a probing peer's unless it
  // answers the probe at next_index - 1.
  const LogIndex rejected = reply.rejected_index;
  if (rejected <= match_index_[peer] ||
      (probing_[peer] && rejected != next_index_[peer] - 1)) {
    return;
  }
  // Stop pipelining and probe backwards. With a conflict hint, jump straight
  // past the follower's divergent term — if we hold entries of
  // conflict_term, resume after our last one; otherwise start at the
  // follower's first index of that term. Without a hint, the classic
  // one-entry backoff. Never probe below what the follower acknowledged,
  // and never past the rejected index (progress).
  LogIndex next = rejected;
  if (reply.conflict_index > 0) {
    next = reply.conflict_index;
    if (reply.conflict_term != 0) {
      const LogIndex ours = log_.LastIndexOfTerm(reply.conflict_term, rejected);
      if (ours > 0) {
        next = ours + 1;
      }
    }
  }
  probing_[peer] = 1;
  next_index_[peer] = std::clamp(next, match_index_[peer] + 1, rejected);
  sent_index_[peer] = next_index_[peer] - 1;
  SendAppend(reply.from, sent_index_[peer]);
}

void RaftNode::AdvanceCommit() {
  // Largest N with a majority of matchIndex >= N and log[N].term == current.
  std::vector<LogIndex> matches = match_index_;
  matches[static_cast<size_t>(id_)] = log_.last_index();
  std::sort(matches.begin(), matches.end());
  // The (cluster_size - majority)-th smallest is replicated on a majority.
  const LogIndex candidate = matches[static_cast<size_t>(cluster_size_ - majority())];
  if (candidate > commit_index_ && log_.TermAt(candidate) == current_term_) {
    commit_index_ = candidate;
    ApplyCommitted();
  }
}

void RaftNode::ApplyCommitted() {
  while (last_applied_ < commit_index_) {
    ++last_applied_;
    if (apply_) {
      apply_(last_applied_, log_.At(last_applied_).command);
    }
    const auto it = pending_proposals_.find(last_applied_);
    if (it != pending_proposals_.end()) {
      ProposeCallback cb = std::move(it->second);
      pending_proposals_.erase(it);
      cb(last_applied_);
    }
  }
  MaybeCompact();
}

void RaftNode::Propose(std::string command, ProposeCallback done) {
  if (!alive_ || role_ != RaftRole::kLeader || TransferInProgress()) {
    // Not leading (or handing leadership off): clients retry elsewhere.
    if (done) {
      done(0);
    }
    return;
  }
  if (options_.proposal_capacity_rps > 0) {
    // The leader appends at a finite rate: this proposal queues behind the
    // ones already occupying it (busy-until, like the LVI server's capacity
    // model), then re-checks leadership when its turn comes.
    Simulator* sim = mesh_->simulator();
    const SimDuration service = std::max<SimDuration>(
        1, Seconds(1) / static_cast<SimDuration>(options_.proposal_capacity_rps));
    const SimTime start = std::max(sim->Now(), proposal_busy_until_);
    proposal_busy_until_ = start + service;
    sim->Schedule(proposal_busy_until_ - sim->Now(),
                  [this, command = std::move(command), done = std::move(done)]() mutable {
                    ProposeNow(std::move(command), std::move(done));
                  });
    return;
  }
  ProposeNow(std::move(command), std::move(done));
}

void RaftNode::ProposeNow(std::string command, ProposeCallback done) {
  if (!alive_ || role_ != RaftRole::kLeader) {
    if (done) {
      done(0);
    }
    return;
  }
  const LogIndex index = log_.Append(LogEntry{current_term_, std::move(command)});
  match_index_[static_cast<size_t>(id_)] = index;
  if (done) {
    pending_proposals_[index] = std::move(done);
  }
  // Replicate eagerly rather than waiting for the heartbeat; entries already
  // in flight are not shipped again.
  for (NodeId peer = 0; peer < mesh_->node_count(); ++peer) {
    if (peer != id_) {
      ShipUnsent(peer);
    }
  }
  // Single-node cluster: commit immediately.
  AdvanceCommit();
}

bool RaftNode::TransferInProgress() {
  if (transfer_target_ < 0) {
    return false;
  }
  if (mesh_->simulator()->Now() >= transfer_deadline_) {
    // The successor never took over; resume normal service.
    transfer_target_ = -1;
    return false;
  }
  return true;
}

bool RaftNode::TransferLeadership(NodeId target) {
  if (!is_leader() || target == id_ || target < 0 || target >= mesh_->node_count()) {
    return false;
  }
  transfer_target_ = target;
  transfer_deadline_ = mesh_->simulator()->Now() + options_.election_timeout_max;
  if (match_index_[static_cast<size_t>(target)] == log_.last_index()) {
    SendTimeoutNow(target);
  } else {
    // Catch the successor up first; HandleAppendReply fires TimeoutNow once
    // its match index reaches our last entry.
    SendAppend(target, next_index_[static_cast<size_t>(target)] - 1);
  }
  return true;
}

void RaftNode::SendTimeoutNow(NodeId peer) {
  const Term term = current_term_;
  transfer_target_ = -1;
  mesh_->endpoint(id_).Send(mesh_->endpoint(peer), net::MessageKind::kRaftVote,
                            kVoteWireSize, [this, peer, term] {
    RaftNode* node = peers_(peer);
    if (node != nullptr && node->alive_) {
      node->HandleTimeoutNow(term);
    }
  });
}

void RaftNode::HandleTimeoutNow(Term term) {
  if (!alive_ || term < current_term_ || role_ == RaftRole::kLeader) {
    return;
  }
  // The leader blessed this takeover: campaign immediately, skipping the
  // pre-vote poll (peers would refuse it — they heard from the leader
  // moments ago).
  StartRealElection();
}

bool RaftNode::HasLeaderLease() const {
  if (!options_.leader_lease || !is_leader()) {
    return false;
  }
  // The applied state is only provably current once an entry of our own term
  // has committed (leader completeness covers everything before it).
  if (log_.TermAt(commit_index_) != current_term_) {
    return false;
  }
  // Majority anchor: the send time of the oldest append among the newest
  // majority of acknowledged appends (counting ourselves as "now"). A rival
  // needs votes from a majority; every majority intersects ours, and each of
  // ours reset its election timer after the anchor — so no rival can finish
  // an election before anchor + election_timeout_min (pre-vote stickiness
  // keeps even polls from starting sooner).
  const SimTime now = mesh_->simulator()->Now();
  std::vector<SimTime> anchors;
  anchors.reserve(ack_anchor_.size());
  for (NodeId peer = 0; peer < mesh_->node_count(); ++peer) {
    anchors.push_back(peer == id_ ? now : ack_anchor_[static_cast<size_t>(peer)]);
  }
  std::sort(anchors.begin(), anchors.end(), std::greater<SimTime>());
  const SimTime majority_anchor = anchors[static_cast<size_t>(majority() - 1)];
  return now < majority_anchor + options_.election_timeout_min;
}

void RaftNode::FailPendingProposals() {
  auto pending = std::move(pending_proposals_);
  pending_proposals_.clear();
  for (auto& [index, cb] : pending) {
    (void)index;
    if (cb) {
      cb(0);
    }
  }
}

}  // namespace radical
