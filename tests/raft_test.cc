// Tests for the Raft substrate: election, replication, commitment, failover,
// restart replay, and log-matching properties.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <random>
#include <string>

#include "src/common/stats.h"
#include "src/raft/cluster.h"
#include "src/raft/lock_state_machine.h"

namespace radical {
namespace {

// Collects applied commands per node so tests can check state-machine
// equivalence.
struct Applied {
  std::map<NodeId, std::vector<std::string>> by_node;

  RaftCluster::ApplyFactory Factory() {
    return [this](NodeId id) -> RaftNode::ApplyFn {
      by_node[id].clear();  // Restart rebuilds the SM from scratch.
      return [this, id](LogIndex index, const std::string& command) {
        (void)index;
        by_node[id].push_back(command);
      };
    };
  }
};

TEST(RaftTest, ElectsExactlyOneLeader) {
  Simulator sim(7);
  Applied applied;
  RaftCluster cluster(&sim, 3, RaftOptions{}, applied.Factory());
  const NodeId leader = cluster.StartAndElect();
  ASSERT_GE(leader, 0);
  int leaders = 0;
  for (NodeId id = 0; id < cluster.size(); ++id) {
    leaders += cluster.node(id)->is_leader() ? 1 : 0;
  }
  EXPECT_EQ(leaders, 1);
}

TEST(RaftTest, FiveNodeClusterElects) {
  Simulator sim(11);
  Applied applied;
  RaftCluster cluster(&sim, 5, RaftOptions{}, applied.Factory());
  EXPECT_GE(cluster.StartAndElect(), 0);
}

// A one-node group is its own majority: it must elect itself within its
// first election timeout, with and without pre-vote, and commit at once. No
// vote reply ever comes, so the candidate's own vote must decide.
TEST(RaftTest, OneNodeClusterElectsItselfWithinFirstTimeout) {
  for (const bool pre_vote : {false, true}) {
    Simulator sim(5);
    Applied applied;
    RaftOptions options;
    options.pre_vote = pre_vote;
    RaftCluster cluster(&sim, 1, options, applied.Factory());
    EXPECT_EQ(cluster.StartAndElect(options.election_timeout_max), 0) << "pre_vote " << pre_vote;
    EXPECT_LE(sim.Now(), options.election_timeout_max) << "pre_vote " << pre_vote;
    EXPECT_EQ(cluster.node(0)->term(), 1u) << "pre_vote " << pre_vote;
    LogIndex committed = 0;
    cluster.SubmitToLeader("cmd-1", [&](LogIndex index) { committed = index; });
    EXPECT_EQ(committed, 1u) << "pre_vote " << pre_vote;
    EXPECT_EQ(applied.by_node[0], (std::vector<std::string>{"cmd-1"}));
  }
}

TEST(RaftTest, CommitsAndAppliesOnAllNodes) {
  Simulator sim(13);
  Applied applied;
  RaftCluster cluster(&sim, 3, RaftOptions{}, applied.Factory());
  ASSERT_GE(cluster.StartAndElect(), 0);
  LogIndex committed = 0;
  cluster.SubmitToLeader("cmd-1", [&](LogIndex index) { committed = index; });
  sim.RunFor(Seconds(1));
  EXPECT_EQ(committed, 1u);
  // Heartbeats propagate commit to followers.
  for (NodeId id = 0; id < cluster.size(); ++id) {
    EXPECT_EQ(applied.by_node[id], (std::vector<std::string>{"cmd-1"})) << "node " << id;
  }
}

TEST(RaftTest, CommitLatencyIsOneMeshRoundTripPlusFsync) {
  Simulator sim(17);
  Applied applied;
  RaftCluster cluster(&sim, 3, RaftOptions{}, applied.Factory());
  ASSERT_GE(cluster.StartAndElect(), 0);
  sim.RunFor(Millis(50));  // Settle heartbeats.
  LatencySampler samples;
  for (int i = 0; i < 100; ++i) {
    const SimTime start = sim.Now();
    bool done = false;
    cluster.SubmitToLeader("op", [&](LogIndex) {
      samples.Add(sim.Now() - start);
      done = true;
    });
    sim.RunFor(Millis(20));
    ASSERT_TRUE(done);
  }
  // ~ one AZ round trip (1.6 ms) + fsync (0.4 ms) + processing: the §5.6
  // 2.3 ms/lock constant.
  EXPECT_GT(samples.MedianMs(), 1.5);
  EXPECT_LT(samples.MedianMs(), 3.5);
}

TEST(RaftTest, OrderIsConsistentAcrossNodes) {
  Simulator sim(19);
  Applied applied;
  RaftCluster cluster(&sim, 3, RaftOptions{}, applied.Factory());
  ASSERT_GE(cluster.StartAndElect(), 0);
  for (int i = 0; i < 20; ++i) {
    cluster.SubmitToLeader("cmd-" + std::to_string(i), {});
  }
  sim.RunFor(Seconds(2));
  ASSERT_EQ(applied.by_node[0].size(), 20u);
  EXPECT_EQ(applied.by_node[0], applied.by_node[1]);
  EXPECT_EQ(applied.by_node[1], applied.by_node[2]);
  EXPECT_EQ(applied.by_node[0].front(), "cmd-0");
}

TEST(RaftTest, LeaderCrashTriggersReElectionAndProgress) {
  Simulator sim(23);
  Applied applied;
  RaftCluster cluster(&sim, 3, RaftOptions{}, applied.Factory());
  const NodeId first_leader = cluster.StartAndElect();
  ASSERT_GE(first_leader, 0);
  cluster.SubmitToLeader("before-crash", {});
  sim.RunFor(Millis(200));
  cluster.CrashNode(first_leader);
  sim.RunFor(Seconds(2));
  const NodeId second_leader = cluster.LeaderId();
  ASSERT_GE(second_leader, 0);
  EXPECT_NE(second_leader, first_leader);
  bool committed = false;
  cluster.SubmitToLeader("after-crash", [&](LogIndex index) { committed = index != 0; });
  sim.RunFor(Seconds(2));
  EXPECT_TRUE(committed);
  // Surviving nodes agree and retain the pre-crash entry.
  for (NodeId id = 0; id < 3; ++id) {
    if (id == first_leader) {
      continue;
    }
    ASSERT_EQ(applied.by_node[id].size(), 2u) << "node " << id;
    EXPECT_EQ(applied.by_node[id][0], "before-crash");
    EXPECT_EQ(applied.by_node[id][1], "after-crash");
  }
}

TEST(RaftTest, RestartedNodeCatchesUpByReplay) {
  Simulator sim(29);
  Applied applied;
  RaftCluster cluster(&sim, 3, RaftOptions{}, applied.Factory());
  const NodeId leader = cluster.StartAndElect();
  ASSERT_GE(leader, 0);
  const NodeId victim = (leader + 1) % 3;
  cluster.SubmitToLeader("one", {});
  sim.RunFor(Millis(300));
  cluster.CrashNode(victim);
  cluster.SubmitToLeader("two", {});
  sim.RunFor(Millis(300));
  cluster.RestartNode(victim);
  sim.RunFor(Seconds(2));
  EXPECT_EQ(applied.by_node[victim], (std::vector<std::string>{"one", "two"}));
}

TEST(RaftTest, MinorityPartitionCannotCommit) {
  Simulator sim(31);
  Applied applied;
  RaftCluster cluster(&sim, 3, RaftOptions{}, applied.Factory());
  const NodeId leader = cluster.StartAndElect();
  ASSERT_GE(leader, 0);
  // Isolate the leader: it keeps thinking it leads for a while but cannot
  // commit anything new.
  cluster.mesh().Isolate(leader, true);
  bool committed = false;
  cluster.node(leader)->Propose("doomed", [&](LogIndex index) { committed = index != 0; });
  sim.RunFor(Seconds(1));
  EXPECT_FALSE(committed);
  // Majority side elects a fresh leader and makes progress.
  const NodeId new_leader = cluster.LeaderId();
  ASSERT_GE(new_leader, 0);
  EXPECT_NE(new_leader, leader);
  bool ok = false;
  cluster.node(new_leader)->Propose("lives", [&](LogIndex index) { ok = index != 0; });
  sim.RunFor(Seconds(1));
  EXPECT_TRUE(ok);
  // Heal: the old leader steps down and converges (the doomed entry is
  // overwritten by the new leader's log).
  cluster.mesh().Isolate(leader, false);
  sim.RunFor(Seconds(2));
  EXPECT_FALSE(cluster.node(leader)->is_leader());
  std::vector<std::string> expect{"lives"};
  EXPECT_EQ(applied.by_node[leader], expect);
}

TEST(RaftTest, ProposeOnFollowerFailsFast) {
  Simulator sim(37);
  Applied applied;
  RaftCluster cluster(&sim, 3, RaftOptions{}, applied.Factory());
  const NodeId leader = cluster.StartAndElect();
  ASSERT_GE(leader, 0);
  const NodeId follower = (leader + 1) % 3;
  bool called = false;
  LogIndex result = 99;
  cluster.node(follower)->Propose("nope", [&](LogIndex index) {
    called = true;
    result = index;
  });
  EXPECT_TRUE(called);
  EXPECT_EQ(result, 0u);
}

TEST(RaftTest, LogMatchingAfterChaos) {
  Simulator sim(41);
  Applied applied;
  RaftCluster cluster(&sim, 5, RaftOptions{}, applied.Factory());
  ASSERT_GE(cluster.StartAndElect(), 0);
  Rng rng(5);
  for (int round = 0; round < 10; ++round) {
    cluster.SubmitToLeader("r" + std::to_string(round), {});
    if (round == 3) {
      cluster.mesh().set_drop_probability(0.2);
    }
    if (round == 7) {
      cluster.mesh().set_drop_probability(0.0);
    }
    sim.RunFor(Millis(200));
  }
  sim.RunFor(Seconds(3));
  // All alive nodes converge to the same applied prefix.
  const auto& reference = applied.by_node[0];
  EXPECT_GE(reference.size(), 1u);
  for (NodeId id = 1; id < 5; ++id) {
    const auto& other = applied.by_node[id];
    const size_t common = std::min(reference.size(), other.size());
    for (size_t i = 0; i < common; ++i) {
      EXPECT_EQ(reference[i], other[i]) << "divergence at index " << i << " on node " << id;
    }
  }
}

// Regression: a duplicated (retransmitted) vote reply must not count twice
// toward the majority. With the old scalar vote counter, three copies of one
// peer's grant elected a leader with only 2 of 5 distinct voters.
TEST(RaftTest, VoteReplyDuplicatesDoNotElect) {
  Simulator sim(43);
  Applied applied;
  RaftCluster cluster(&sim, 5, RaftOptions{}, applied.Factory());
  // Start only node 0: it times out and campaigns, but no real peer answers.
  cluster.node(0)->Start();
  while (cluster.node(0)->role() != RaftRole::kCandidate && sim.Step()) {
  }
  ASSERT_EQ(cluster.node(0)->role(), RaftRole::kCandidate);
  const Term term = cluster.node(0)->term();
  // Inject three copies of the same granted reply: self + one distinct peer
  // is 2 < 3 (the majority of 5), so node 0 must stay a candidate.
  for (int i = 0; i < 3; ++i) {
    RequestVoteReply reply;
    reply.term = term;
    reply.granted = true;
    reply.from = 1;
    cluster.node(0)->HandleVoteReply(reply);
  }
  EXPECT_FALSE(cluster.node(0)->is_leader());
  // A grant from a second distinct peer reaches the majority.
  RequestVoteReply reply;
  reply.term = term;
  reply.granted = true;
  reply.from = 2;
  cluster.node(0)->HandleVoteReply(reply);
  EXPECT_TRUE(cluster.node(0)->is_leader());
}

// Pre-vote: a partitioned follower polls instead of campaigning, so its term
// never inflates and the healthy leader is not deposed when it rejoins.
TEST(RaftTest, PreVotePreventsTermInflation) {
  Simulator sim(47);
  Applied applied;
  RaftOptions options;
  options.pre_vote = true;
  RaftCluster cluster(&sim, 3, options, applied.Factory());
  const NodeId leader = cluster.StartAndElect();
  ASSERT_GE(leader, 0);
  sim.RunFor(Millis(200));
  const Term stable_term = cluster.node(leader)->term();
  const NodeId isolated = (leader + 1) % 3;
  cluster.mesh().Isolate(isolated, true);
  // Two virtual seconds of election timeouts: without pre-vote the isolated
  // node would bump its term ~10+ times. Polling changes nothing.
  sim.RunFor(Seconds(2));
  EXPECT_EQ(cluster.node(isolated)->term(), stable_term);
  EXPECT_EQ(cluster.node(isolated)->role(), RaftRole::kFollower);
  cluster.mesh().Isolate(isolated, false);
  sim.RunFor(Seconds(1));
  // The healthy leader survived the rejoin at the same term.
  EXPECT_EQ(cluster.LeaderId(), leader);
  EXPECT_EQ(cluster.node(leader)->term(), stable_term);
}

// Regression: catching up a far-behind follower must cost O(divergence
// terms) round trips, not O(log length). A follower that missed ~300
// commits rejoins under a freshly elected leader (whose next_index starts
// at its own log end); the conflict hint must jump next_index straight to
// the follower's log end instead of decrementing one entry per round trip
// (~300 round trips at ~2 ms each would blow the deadline below).
TEST(RaftTest, FastBackoffCatchesUpLongDivergenceQuickly) {
  Simulator sim(61);
  Applied applied;
  RaftCluster cluster(&sim, 3, RaftOptions{}, applied.Factory());
  const NodeId leader = cluster.StartAndElect();
  ASSERT_GE(leader, 0);
  const NodeId laggard = (leader + 1) % 3;
  const NodeId survivor = (leader + 2) % 3;
  cluster.CrashNode(laggard);
  const int entries = 300;
  for (int i = 0; i < entries; ++i) {
    cluster.node(leader)->Propose("e" + std::to_string(i), {});
  }
  sim.RunFor(Seconds(2));
  ASSERT_EQ(applied.by_node[survivor].size(), static_cast<size_t>(entries));
  // Force a fresh election among {survivor, laggard}: the survivor wins (its
  // log is complete) with next_index[laggard] = 301.
  cluster.CrashNode(leader);
  cluster.RestartNode(laggard);
  sim.RunFor(Millis(600));
  EXPECT_EQ(cluster.LeaderId(), survivor);
  // 600 ms covers the election plus a handful of append rounds — enough with
  // the conflict hint, hopeless with one-entry-per-round-trip decrements.
  EXPECT_EQ(applied.by_node[laggard].size(), static_cast<size_t>(entries));
}

// --- Pipelined replication --------------------------------------------------------

// Proposes `count` unique commands on `leader`, one every `gap`, starting
// now; returns how many of them committed (filled in as the run proceeds).
std::shared_ptr<int> ProposeStream(Simulator& sim, RaftNode* leader, int count,
                                   SimDuration gap) {
  auto committed = std::make_shared<int>(0);
  for (int i = 0; i < count; ++i) {
    sim.Schedule(gap * i, [leader, i, committed] {
      leader->Propose("op" + std::to_string(i), [committed](LogIndex index) {
        *committed += index != 0 ? 1 : 0;
      });
    });
  }
  return committed;
}

// Regression for the perfbench hotel-replicated finding (1000 mesh messages
// per request at 100 req/s, growing with the offered rate): every proposal
// used to re-send the whole unacknowledged suffix to each follower, and
// every success reply that left a follower behind sent it again, so the
// appends in flight per follower ratcheted up with load. With per-peer
// sent_index a proposal ships only its own entry: appends per commit stay
// within 2 per follower (its ship plus one heartbeat re-ship of the window)
// plus the fixed heartbeat share, at every rate.
TEST(RaftPipelineTest, AppendsPerCommitStayFlatAcrossOfferedRate) {
  constexpr int kNodes = 3;
  const RaftOptions options;
  for (const int rate : {200, 1000, 4000}) {
    Simulator sim(83);
    Applied applied;
    RaftCluster cluster(&sim, kNodes, options, applied.Factory());
    const NodeId leader = cluster.StartAndElect();
    ASSERT_GE(leader, 0);
    sim.RunFor(Millis(100));  // Settle heartbeats.
    const net::Fabric& fabric = cluster.mesh().fabric();
    const uint64_t appends_before = fabric.messages_of(net::MessageKind::kRaftAppend);
    const SimDuration run = Seconds(1) + Millis(100);  // Stream plus drain.
    const auto committed = ProposeStream(sim, cluster.node(leader), rate, Seconds(1) / rate);
    sim.RunFor(run);
    ASSERT_EQ(*committed, rate) << "rate " << rate;
    ASSERT_EQ(cluster.LeaderId(), leader);
    const auto appends =
        static_cast<double>(fabric.messages_of(net::MessageKind::kRaftAppend) - appends_before);
    const double beats =
        static_cast<double>(run) / static_cast<double>(options.heartbeat_interval) + 1;
    const double heartbeats = (kNodes - 1) * beats;
    const double bound = 2.0 * (kNodes - 1) * rate + heartbeats;
    EXPECT_LE(appends, bound) << "rate " << rate << ": " << appends / rate
                              << " appends per commit";
  }
}

// Every node's applied command sequence equals `expected`.
void ExpectIdenticalLogs(Applied& applied, int nodes, const std::vector<std::string>& expected) {
  for (NodeId id = 0; id < nodes; ++id) {
    EXPECT_EQ(applied.by_node[id], expected) << "node " << id;
  }
}

std::vector<std::string> StreamCommands(int count) {
  std::vector<std::string> commands;
  for (int i = 0; i < count; ++i) {
    commands.push_back("op" + std::to_string(i));
  }
  return commands;
}

// A pipelined append the mesh loses is repaired by the next heartbeat, which
// re-ships the unacknowledged window from next_index: the loss rule ends
// with the stream, so the last losses have no later proposal (and its
// rejection) to expose them.
TEST(RaftPipelineTest, LostAppendsAreRepairedByHeartbeats) {
  Simulator sim(89);
  Applied applied;
  RaftCluster cluster(&sim, 3, RaftOptions{}, applied.Factory());
  const NodeId leader = cluster.StartAndElect();
  ASSERT_GE(leader, 0);
  sim.RunFor(Millis(100));
  net::Fabric& fabric = cluster.mesh().fabric();
  net::DropRule lossy;
  lossy.kind = net::MessageKind::kRaftAppend;
  lossy.probability = 0.1;
  const int rule = fabric.AddDropRule(lossy);
  constexpr int kCount = 300;
  const auto committed = ProposeStream(sim, cluster.node(leader), kCount, Millis(1));
  sim.RunFor(Millis(1) * kCount);
  fabric.RemoveDropRule(rule);
  EXPECT_GT(fabric.drops_of(net::MessageKind::kRaftAppend), 10u);
  sim.RunFor(Millis(200));  // Ten heartbeats, no new proposals.
  EXPECT_EQ(cluster.LeaderId(), leader);
  EXPECT_EQ(*committed, kCount);
  for (NodeId id = 0; id < 3; ++id) {
    EXPECT_EQ(cluster.node(id)->commit_index(), static_cast<LogIndex>(kCount)) << "node " << id;
  }
  ExpectIdenticalLogs(applied, 3, StreamCommands(kCount));
}

// A follower that crashes mid-stream misses appends the leader counts as
// sent. After its restart the next pipelined append (prev far past its log)
// is rejected; the conflict hint points the leader's probe at the
// follower's log end, and the pipeline resumes from there.
TEST(RaftPipelineTest, RestartedFollowerCatchesUpThroughConflictHintProbe) {
  Simulator sim(97);
  Applied applied;
  RaftCluster cluster(&sim, 3, RaftOptions{}, applied.Factory());
  const NodeId leader = cluster.StartAndElect();
  ASSERT_GE(leader, 0);
  sim.RunFor(Millis(100));
  const NodeId victim = (leader + 1) % 3;
  constexpr int kCount = 400;
  const auto committed = ProposeStream(sim, cluster.node(leader), kCount, Millis(1));
  sim.RunFor(Millis(100));
  cluster.CrashNode(victim);
  sim.RunFor(Millis(150));
  const LogIndex missed_from = cluster.node(victim)->log().last_index() + 1;
  EXPECT_LT(missed_from, cluster.node(leader)->log().last_index());
  cluster.RestartNode(victim);
  // Mid-stream: well before the stream ends the follower has the log the
  // leader held at its restart (no heartbeat-by-heartbeat crawl).
  const LogIndex leader_at_restart = cluster.node(leader)->log().last_index();
  sim.RunFor(Millis(20));
  EXPECT_GE(cluster.node(victim)->log().last_index(), leader_at_restart);
  sim.RunFor(Millis(1) * kCount);
  EXPECT_EQ(cluster.LeaderId(), leader);
  EXPECT_EQ(*committed, kCount);
  ExpectIdenticalLogs(applied, 3, StreamCommands(kCount));
}

// --- Snapshotting / log compaction -------------------------------------------------

// A snapshottable counter state machine for compaction tests.
struct Counters2 {
  std::map<NodeId, int64_t> value;
  RaftCluster::ApplyFactory Factory() {
    return [this](NodeId id) -> RaftNode::ApplyFn {
      value[id] = 0;
      return [this, id](LogIndex, const std::string& command) {
        value[id] += std::stoll(command);
      };
    };
  }
  void WireSnapshots(RaftCluster& cluster) {
    for (NodeId id = 0; id < cluster.size(); ++id) {
      cluster.node(id)->set_snapshot_hooks(
          [this, id] { return std::to_string(value[id]); },
          [this, id](const std::string& data) { value[id] = std::stoll(data); });
    }
  }
};

TEST(RaftSnapshotTest, CompactionShrinksTheLog) {
  Simulator sim(71);
  RaftOptions options;
  options.compaction_threshold = 10;
  Counters2 state;
  RaftCluster cluster(&sim, 3, options, state.Factory());
  state.WireSnapshots(cluster);
  ASSERT_GE(cluster.StartAndElect(), 0);
  for (int i = 0; i < 40; ++i) {
    cluster.SubmitToLeader("1", {});
    sim.RunFor(Millis(30));
  }
  sim.RunFor(Seconds(1));
  RaftNode* leader = cluster.leader();
  ASSERT_NE(leader, nullptr);
  // 40 entries committed, but the in-memory log holds < threshold + batch.
  EXPECT_EQ(leader->log().last_index(), 40u);
  EXPECT_LT(leader->log().size(), 15u);
  EXPECT_GE(leader->log().snapshot_index(), 30u);
  // State machines all agree on the sum.
  for (NodeId id = 0; id < 3; ++id) {
    EXPECT_EQ(state.value[id], 40) << "node " << id;
  }
}

TEST(RaftSnapshotTest, RestartRestoresFromSnapshotPlusSuffix) {
  Simulator sim(73);
  RaftOptions options;
  options.compaction_threshold = 8;
  Counters2 state;
  RaftCluster cluster(&sim, 3, options, state.Factory());
  state.WireSnapshots(cluster);
  const NodeId leader = cluster.StartAndElect();
  ASSERT_GE(leader, 0);
  for (int i = 0; i < 25; ++i) {
    cluster.SubmitToLeader("2", {});
    sim.RunFor(Millis(30));
  }
  sim.RunFor(Seconds(1));
  const NodeId victim = (leader + 1) % 3;
  ASSERT_GT(cluster.node(victim)->log().snapshot_index(), 0u);  // Compacted.
  cluster.CrashNode(victim);
  sim.RunFor(Millis(100));
  cluster.RestartNode(victim);
  sim.RunFor(Seconds(2));
  // The restarted node rebuilt from its snapshot + replayed the suffix: the
  // full sum is back even though early entries are gone from its log.
  EXPECT_EQ(state.value[victim], 50);
}

TEST(RaftSnapshotTest, LaggardCatchesUpViaInstallSnapshot) {
  Simulator sim(79);
  RaftOptions options;
  options.compaction_threshold = 6;
  Counters2 state;
  RaftCluster cluster(&sim, 3, options, state.Factory());
  state.WireSnapshots(cluster);
  const NodeId leader = cluster.StartAndElect();
  ASSERT_GE(leader, 0);
  const NodeId laggard = (leader + 1) % 3;
  // Partition the laggard, commit far past the compaction threshold, heal.
  cluster.mesh().Isolate(laggard, true);
  for (int i = 0; i < 30; ++i) {
    cluster.SubmitToLeader("3", {});
    sim.RunFor(Millis(30));
  }
  sim.RunFor(Millis(500));
  ASSERT_GT(cluster.node(leader)->log().snapshot_index(),
            cluster.node(laggard)->log().last_index());
  cluster.mesh().Isolate(laggard, false);
  sim.RunFor(Seconds(3));
  // The laggard cannot get the compacted entries; InstallSnapshot brings it
  // to the leader's state, then normal replication resumes.
  EXPECT_EQ(state.value[laggard], 90);
  EXPECT_GE(cluster.node(laggard)->log().snapshot_index(), 6u);
}

TEST(LockStateMachineSnapshotTest, RoundTripPreservesLocksAndQueues) {
  LockStateMachine sm;
  sm.Apply(1, LockStateMachine::EncodeAcquire(10, LockMode::kWrite, "alpha"));
  sm.Apply(2, LockStateMachine::EncodeAcquire(11, LockMode::kRead, "beta"));
  sm.Apply(3, LockStateMachine::EncodeAcquire(12, LockMode::kRead, "beta"));
  sm.Apply(4, LockStateMachine::EncodeAcquire(13, LockMode::kWrite, "beta"));  // Queued.
  sm.Apply(5, LockStateMachine::EncodeAcquire(14, LockMode::kRead, "beta"));   // Behind writer.
  const std::string snapshot = sm.EncodeSnapshot();

  LockStateMachine restored;
  restored.RestoreSnapshot(snapshot);
  EXPECT_TRUE(restored.IsWriteHeldBy("alpha", 10));
  EXPECT_TRUE(restored.IsReadHeldBy("beta", 11));
  EXPECT_TRUE(restored.IsReadHeldBy("beta", 12));
  EXPECT_EQ(restored.WaitingCount("beta"), 2u);
  EXPECT_EQ(restored.last_applied(), 5u);
  // Queue order and modes survive: releasing the readers grants the writer.
  std::vector<ExecutionId> grants;
  restored.set_grant_listener([&](ExecutionId exec, const Key&) { grants.push_back(exec); });
  restored.Apply(6, LockStateMachine::EncodeRelease(11));
  restored.Apply(7, LockStateMachine::EncodeRelease(12));
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_EQ(grants[0], 13u);
  EXPECT_TRUE(restored.IsWriteHeldBy("beta", 13));
}

TEST(LockStateMachineSnapshotTest, RoundTripKeepsWhitespaceKeysReadersWriterAndQueue) {
  LockStateMachine sm;
  sm.Apply(1, LockStateMachine::EncodeAcquire(20, LockMode::kWrite, "room 1"));
  sm.Apply(2, LockStateMachine::EncodeAcquire(21, LockMode::kRead, "room 2"));
  sm.Apply(3, LockStateMachine::EncodeAcquire(22, LockMode::kRead, "room 2"));
  sm.Apply(4, LockStateMachine::EncodeAcquire(23, LockMode::kWrite, "room 1"));  // Queued.
  sm.Apply(5, LockStateMachine::EncodeAcquire(24, LockMode::kRead, "room 1"));   // Queued.
  const std::string snapshot = sm.EncodeSnapshot();

  LockStateMachine restored;
  restored.RestoreSnapshot(snapshot);
  EXPECT_EQ(restored.EncodeSnapshot(), snapshot);
  EXPECT_EQ(restored.last_applied(), 5u);
  EXPECT_TRUE(restored.IsWriteHeldBy("room 1", 20));
  EXPECT_FALSE(restored.IsWriteLocked("room"));
  EXPECT_TRUE(restored.IsReadHeldBy("room 2", 21));
  EXPECT_TRUE(restored.IsReadHeldBy("room 2", 22));
  EXPECT_EQ(restored.WaitingCount("room 1"), 2u);
  EXPECT_EQ(restored.TotalHeldKeys(), 2u);
  // The queue keeps its order and modes: the writer goes first, and the
  // reader behind it only when the writer releases.
  std::vector<std::pair<ExecutionId, Key>> grants;
  restored.set_grant_listener(
      [&](ExecutionId exec, const Key& key) { grants.emplace_back(exec, key); });
  restored.Apply(6, LockStateMachine::EncodeRelease(20));
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_EQ(grants[0], (std::pair<ExecutionId, Key>{23, "room 1"}));
  restored.Apply(7, LockStateMachine::EncodeRelease(23));
  ASSERT_EQ(grants.size(), 2u);
  EXPECT_EQ(grants[1], (std::pair<ExecutionId, Key>{24, "room 1"}));
}

// The lock table is hash-indexed, but a snapshot lists its locks in
// ascending key order: machines that reach one lock state through different
// command orders (and different hash-table histories) encode it to the same
// bytes, and so does a machine restored from them. The bytes of this small
// state (a writer, two readers, a queued writer) are pinned, so a change to
// the format or the key order fails here.
TEST(LockStateMachineSnapshotTest, EncodingIsDeterministicAndPinned) {
  LockStateMachine a;
  a.Apply(1, LockStateMachine::EncodeAcquire(5, LockMode::kWrite, "w"));
  a.Apply(2, LockStateMachine::EncodeAcquire(6, LockMode::kRead, "r"));
  a.Apply(3, LockStateMachine::EncodeAcquire(7, LockMode::kRead, "r"));
  a.Apply(4, LockStateMachine::EncodeAcquire(8, LockMode::kWrite, "r"));  // Queued.

  LockStateMachine b;
  LogIndex index = 0;
  // Grow and empty the table first, so its buckets differ from a's.
  for (int i = 0; i < 300; ++i) {
    b.Apply(++index, LockStateMachine::EncodeAcquire(9, LockMode::kWrite,
                                                     "scratch" + std::to_string(i)));
  }
  b.Apply(++index, LockStateMachine::EncodeRelease(9));
  b.Apply(++index, LockStateMachine::EncodeAcquire(7, LockMode::kRead, "r"));
  b.Apply(++index, LockStateMachine::EncodeAcquire(5, LockMode::kWrite, "w"));
  b.Apply(++index, LockStateMachine::EncodeBatchAcquire(6, {"r"}, {LockMode::kRead}));
  b.Apply(++index, LockStateMachine::EncodeAcquire(8, LockMode::kWrite, "r"));
  b.Apply(4, "");  // Same last_applied as a.

  const std::string pinned("\x03\x04\x02\x01r\x00\x02\x06\x07\x01\x01\x08\x01w\x05\x00\x00", 17);
  EXPECT_EQ(a.EncodeSnapshot(), pinned);
  EXPECT_EQ(b.EncodeSnapshot(), pinned);
  LockStateMachine restored;
  restored.RestoreSnapshot(pinned);
  EXPECT_EQ(restored.EncodeSnapshot(), pinned);
  EXPECT_TRUE(restored.IsWriteHeldBy("w", 5));
  EXPECT_EQ(restored.WaitingCount("r"), 1u);
}

TEST(LockStateMachineSnapshotTest, GarbageSnapshotYieldsEmptyMachine) {
  LockStateMachine sm;
  sm.RestoreSnapshot("not a snapshot at all");
  EXPECT_EQ(sm.HeldKeyCount(1), 0u);
}

// --- RaftLog unit tests ---------------------------------------------------------

TEST(RaftLogTest, AppendAndTerms) {
  RaftLog log;
  EXPECT_EQ(log.last_index(), 0u);
  EXPECT_EQ(log.TermAt(0), 0u);
  log.Append({1, "a"});
  log.Append({2, "b"});
  EXPECT_EQ(log.last_index(), 2u);
  EXPECT_EQ(log.last_term(), 2u);
  EXPECT_EQ(log.TermAt(1), 1u);
  EXPECT_EQ(log.At(2).command, "b");
}

TEST(RaftLogTest, TryAppendConsistencyCheck) {
  RaftLog log;
  log.Append({1, "a"});
  EXPECT_FALSE(log.TryAppend(5, 1, {}));   // Gap.
  EXPECT_FALSE(log.TryAppend(1, 2, {}));   // Term mismatch.
  EXPECT_TRUE(log.TryAppend(1, 1, {{2, "b"}}));
  EXPECT_EQ(log.last_index(), 2u);
}

TEST(RaftLogTest, ConflictTruncatesSuffix) {
  RaftLog log;
  log.Append({1, "a"});
  log.Append({1, "b"});
  log.Append({1, "c"});
  // A new leader (term 2) overwrites from index 2.
  EXPECT_TRUE(log.TryAppend(1, 1, {{2, "B"}}));
  EXPECT_EQ(log.last_index(), 2u);
  EXPECT_EQ(log.At(2).command, "B");
  EXPECT_EQ(log.At(2).term, 2u);
}

TEST(RaftLogTest, DuplicateAppendIsIdempotent) {
  RaftLog log;
  log.Append({1, "a"});
  log.Append({1, "b"});
  EXPECT_TRUE(log.TryAppend(0, 0, {{1, "a"}, {1, "b"}}));
  EXPECT_EQ(log.last_index(), 2u);
}

TEST(RaftLogTest, CompactToKeepsSuffixAndBase) {
  RaftLog log;
  for (int i = 1; i <= 6; ++i) {
    log.Append({static_cast<Term>(i <= 3 ? 1 : 2), "c" + std::to_string(i)});
  }
  log.CompactTo(4);
  EXPECT_EQ(log.snapshot_index(), 4u);
  EXPECT_EQ(log.snapshot_term(), 2u);
  EXPECT_EQ(log.last_index(), 6u);
  EXPECT_EQ(log.size(), 2u);
  EXPECT_FALSE(log.HasEntry(4));
  EXPECT_TRUE(log.HasEntry(5));
  EXPECT_EQ(log.At(5).command, "c5");
  EXPECT_EQ(log.TermAt(4), 2u);   // Base term still known.
  EXPECT_EQ(log.TermAt(3), 0u);   // Compacted away.
}

TEST(RaftLogTest, TryAppendAcrossSnapshotBaseSkipsCoveredPrefix) {
  RaftLog log;
  for (int i = 1; i <= 5; ++i) {
    log.Append({1, "c" + std::to_string(i)});
  }
  log.CompactTo(4);
  // A leader replays from index 2: entries 3-4 are covered, 5 matches, 6 new.
  EXPECT_TRUE(log.TryAppend(2, 1, {{1, "c3"}, {1, "c4"}, {1, "c5"}, {1, "c6"}}));
  EXPECT_EQ(log.last_index(), 6u);
  EXPECT_EQ(log.At(6).command, "c6");
}

TEST(RaftLogTest, ResetToSnapshotDiscardsEverything) {
  RaftLog log;
  log.Append({1, "a"});
  log.Append({1, "b"});
  log.ResetToSnapshot(10, 3);
  EXPECT_EQ(log.last_index(), 10u);
  EXPECT_EQ(log.last_term(), 3u);
  EXPECT_EQ(log.size(), 0u);
  log.Append({4, "c"});
  EXPECT_EQ(log.last_index(), 11u);
  EXPECT_EQ(log.At(11).term, 4u);
}

TEST(RaftLogTest, EntriesAfterRespectsBatch) {
  RaftLog log;
  for (int i = 0; i < 10; ++i) {
    log.Append({1, std::to_string(i)});
  }
  EXPECT_EQ(log.EntriesAfter(0, 4).size(), 4u);
  EXPECT_EQ(log.EntriesAfter(8).size(), 2u);
  EXPECT_EQ(log.EntriesAfter(10).size(), 0u);
}

// --- LockStateMachine unit tests ---------------------------------------------------

TEST(LockStateMachineTest, AcquireReleaseCycle) {
  LockStateMachine sm;
  std::vector<std::pair<ExecutionId, Key>> grants;
  sm.set_grant_listener([&](ExecutionId exec, const Key& key) { grants.emplace_back(exec, key); });
  sm.Apply(1, LockStateMachine::EncodeAcquire(10, LockMode::kWrite, "k"));
  EXPECT_TRUE(sm.IsWriteHeldBy("k", 10));
  ASSERT_EQ(grants.size(), 1u);
  sm.Apply(2, LockStateMachine::EncodeAcquire(11, LockMode::kWrite, "k"));
  EXPECT_EQ(grants.size(), 1u);  // Queued.
  EXPECT_EQ(sm.WaitingCount("k"), 1u);
  sm.Apply(3, LockStateMachine::EncodeRelease(10));
  ASSERT_EQ(grants.size(), 2u);
  EXPECT_EQ(grants[1].first, 11u);
  EXPECT_TRUE(sm.IsWriteHeldBy("k", 11));
}

TEST(LockStateMachineTest, ReadersShareWritersQueue) {
  LockStateMachine sm;
  sm.Apply(1, LockStateMachine::EncodeAcquire(1, LockMode::kRead, "k"));
  sm.Apply(2, LockStateMachine::EncodeAcquire(2, LockMode::kRead, "k"));
  EXPECT_TRUE(sm.IsReadHeldBy("k", 1));
  EXPECT_TRUE(sm.IsReadHeldBy("k", 2));
  sm.Apply(3, LockStateMachine::EncodeAcquire(3, LockMode::kWrite, "k"));
  EXPECT_EQ(sm.WaitingCount("k"), 1u);
  sm.Apply(4, LockStateMachine::EncodeRelease(1));
  EXPECT_EQ(sm.WaitingCount("k"), 1u);  // Still one reader left.
  sm.Apply(5, LockStateMachine::EncodeRelease(2));
  EXPECT_TRUE(sm.IsWriteHeldBy("k", 3));
}

TEST(LockStateMachineTest, DuplicateCommandsIdempotent) {
  LockStateMachine sm;
  int grants = 0;
  sm.set_grant_listener([&](ExecutionId, const Key&) { ++grants; });
  const std::string acquire = LockStateMachine::EncodeAcquire(1, LockMode::kWrite, "k");
  sm.Apply(1, acquire);
  sm.Apply(2, acquire);  // Replay: re-notifies, does not double-hold.
  EXPECT_EQ(grants, 2);
  EXPECT_EQ(sm.HeldKeyCount(1), 1u);
  sm.Apply(3, LockStateMachine::EncodeRelease(1));
  sm.Apply(4, LockStateMachine::EncodeRelease(1));  // Idempotent.
  EXPECT_EQ(sm.HeldKeyCount(1), 0u);
}

// Regression: the text command format read keys with `>>`, so an acquire of
// "room 1" locked "room" and the service waited forever for its grant.
TEST(LockStateMachineTest, WhitespaceKeyIsHeldExactly) {
  LockStateMachine sm;
  std::vector<Key> granted;
  sm.set_grant_listener([&](ExecutionId, const Key& key) { granted.push_back(key); });
  sm.Apply(1, LockStateMachine::EncodeAcquire(1, LockMode::kWrite, "room 1"));
  EXPECT_TRUE(sm.IsWriteHeldBy("room 1", 1));
  EXPECT_FALSE(sm.IsWriteLocked("room"));
  EXPECT_EQ(granted, std::vector<Key>{"room 1"});
  sm.Apply(2, LockStateMachine::EncodeBatchAcquire(2, {"a b", "c\td"},
                                                   {LockMode::kRead, LockMode::kWrite}));
  EXPECT_TRUE(sm.IsReadHeldBy("a b", 2));
  EXPECT_TRUE(sm.IsWriteHeldBy("c\td", 2));
  EXPECT_EQ(sm.HeldKeyCount(2), 2u);
  sm.Apply(3, LockStateMachine::EncodeRelease(1));
  sm.Apply(4, LockStateMachine::EncodeRelease(2));
  EXPECT_EQ(sm.TotalHeldKeys(), 0u);
}

// Every strict prefix of a valid command, and random bytes, must decode as
// nothing: only last_applied() moves.
TEST(LockStateMachineTest, MalformedCommandsChangeNothing) {
  LockStateMachine base;
  base.Apply(1, LockStateMachine::EncodeAcquire(10, LockMode::kWrite, "room 1"));
  base.Apply(2, LockStateMachine::EncodeAcquire(11, LockMode::kRead, "beta"));
  base.Apply(3, LockStateMachine::EncodeAcquire(12, LockMode::kWrite, "beta"));  // Queued.
  base.Apply(4, LockStateMachine::EncodeAcquire(100000, LockMode::kRead, "gamma"));
  int grants = 0;
  base.set_grant_listener([&](ExecutionId, const Key&) { ++grants; });
  constexpr LogIndex kIndex = 200;  // Encodes as two varint bytes.
  // The state a command that decodes as nothing must leave.
  LockStateMachine ignored = base;
  ignored.Apply(kIndex, "");
  const std::string unchanged = ignored.EncodeSnapshot();

  const std::vector<std::string> valid = {
      LockStateMachine::EncodeAcquire(300, LockMode::kWrite, "fresh key"),
      LockStateMachine::EncodeAcquire(300, LockMode::kRead, "beta"),
      LockStateMachine::EncodeBatchAcquire(
          301, {"alpha", "beta", "room 1"},
          {LockMode::kWrite, LockMode::kRead, LockMode::kWrite}),
      LockStateMachine::EncodeRelease(10),
      LockStateMachine::EncodeRelease(100000),  // Multi-byte varint exec.
  };
  for (const std::string& command : valid) {
    // Applied whole, each command changes the lock state, or the test would
    // prove nothing.
    LockStateMachine whole = base;
    whole.Apply(kIndex, command);
    EXPECT_NE(whole.EncodeSnapshot(), unchanged);
    for (size_t len = 0; len < command.size(); ++len) {
      LockStateMachine sm = base;
      grants = 0;
      sm.Apply(kIndex, command.substr(0, len));
      EXPECT_EQ(sm.last_applied(), kIndex);
      EXPECT_EQ(sm.EncodeSnapshot(), unchanged) << "prefix of length " << len;
      EXPECT_EQ(grants, 0);
    }
  }
  // Fixed-seed random byte strings; half start with a real op byte (1 or 2)
  // so decoding gets past the first byte.
  std::mt19937_64 rng(20261017);
  for (int i = 0; i < 500; ++i) {
    std::string bytes(1 + rng() % 40, '\0');
    for (char& c : bytes) {
      c = static_cast<char>(rng() & 0xff);
    }
    if (i % 2 == 0) {
      bytes[0] = static_cast<char>(1 + rng() % 2);
    }
    LockStateMachine sm = base;
    grants = 0;
    sm.Apply(kIndex, bytes);
    EXPECT_EQ(sm.last_applied(), kIndex);
    EXPECT_EQ(sm.EncodeSnapshot(), unchanged) << "random string " << i;
    EXPECT_EQ(grants, 0);
  }
}

TEST(LockStateMachineTest, UnknownCommandsIgnored) {
  LockStateMachine sm;
  sm.Apply(1, "garbage");
  sm.Apply(2, "");
  EXPECT_EQ(sm.last_applied(), 2u);
}

}  // namespace
}  // namespace radical
