// QuorumStore: a strongly consistent geo-replicated store.
//
// Models DynamoDB global tables with strong consistency, the baseline the
// paper's Figure 1 measures (replicas in Virginia, Columbus OH, and Portland
// OR). Strong consistency across replicas is subject to the PRAM lower
// bound: the sum of read and write latencies must exceed the distance
// between replicas (§2), which this implementation exhibits naturally —
// every operation routes to the nearest replica and then coordinates a
// majority quorum over real (simulated) WAN messages.
//
// Both reads and writes serialize at the key's *home* replica (the per-item
// leader — DynamoDB's multi-region strong consistency similarly routes
// strong operations through a per-item leader plus witness acknowledgements).
// The home replica gathers a majority of acknowledgements before replying:
// for writes this makes the update durable across replicas, for reads it
// confirms the leader's copy is current. Because every operation on a key
// passes through its single home replica, the per-key history is trivially
// linearizable (tests/quorum_store_test.cc checks histories with the
// Wing-Gong checker), while every operation still pays the inter-replica
// coordination the PRAM bound demands.

#ifndef RADICAL_SRC_KV_QUORUM_STORE_H_
#define RADICAL_SRC_KV_QUORUM_STORE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/kv/item.h"
#include "src/net/network.h"

namespace radical {

// Options for the quorum-replicated store.
struct QuorumStoreOptions {
    // Per-message processing at a replica.
    SimDuration replica_process = Micros(500);
  // Retry timeout for an operation that lost messages.
  SimDuration op_timeout = Millis(500);
  int max_retries = 3;
};

class QuorumStore {
 public:
  using ReadCallback = std::function<void(std::optional<Item>)>;
  using WriteCallback = std::function<void(Version)>;

  QuorumStore(Network* network, std::vector<Region> replica_regions,
              QuorumStoreOptions options = {});

  QuorumStore(const QuorumStore&) = delete;
  QuorumStore& operator=(const QuorumStore&) = delete;

  // Strongly consistent read issued from `client` region: routed to the
  // key's home replica, acknowledged by a majority. The callback runs back
  // at the client (nullopt if the key is absent).
  void Read(Region client, const Key& key, ReadCallback done);

  // Strongly consistent write; callback receives the committed version.
  void Write(Region client, const Key& key, const Value& value, WriteCallback done);

  // Seeds an item on all replicas with version 1 (dataset load; no latency).
  void Seed(const Key& key, const Value& value);

  // Replica placement helpers (exposed for tests and the Figure 1 analysis).
  Region NearestReplica(Region from) const;
  Region HomeReplica(const Key& key) const;
  int majority() const { return static_cast<int>(replica_regions_.size()) / 2 + 1; }
  const std::vector<Region>& replica_regions() const { return replica_regions_; }

  // Analytic expectation for a strong read's latency from `client` for a
  // key homed at `home`, ignoring jitter: client->home RTT + majority
  // coordination RTT + processing. Tests compare simulated latency to this.
  SimDuration ExpectedStrongReadLatency(Region client, Region home) const;

  uint64_t reads_completed() const { return reads_completed_; }
  uint64_t writes_completed() const { return writes_completed_; }
  uint64_t retries() const { return retries_; }

 private:
  struct PendingOp {
    bool is_write = false;
    Region client{};
    Region coordinator{};
    Key key;
    Value value;                // Writes only.
    int acks = 0;               // Quorum replies received.
    Item best;                  // Freshest item seen (reads).
    bool found = false;         // Any replica had the key (reads).
    Version committed_version = 0;  // Writes.
    bool done = false;
    int attempts = 0;
    ReadCallback read_done;
    WriteCallback write_done;
    EventId timeout_event = kInvalidEventId;
  };

  ItemTable& ReplicaData(Region r) { return replica_data_[static_cast<int>(r)]; }

  // Second-phase quorum coordination at the coordinator replica.
  void CoordinateRead(uint64_t op_id);
  void CoordinateWrite(uint64_t op_id);
  void OnQuorumReached(uint64_t op_id);
  void ArmTimeout(uint64_t op_id);
  void Retry(uint64_t op_id);

  // RTT-sorted list of replicas other than `self`.
  std::vector<Region> PeersByDistance(Region self) const;

  // Typed send between the region-anchor endpoints of two replicas (or a
  // client region and a replica).
  void SendBetween(Region from, Region to, net::MessageKind kind, size_t size_bytes,
                   std::function<void()> deliver);

  Network* network_;
  std::vector<Region> replica_regions_;
  QuorumStoreOptions options_;
  std::array<ItemTable, kNumRegions> replica_data_;
  std::unordered_map<uint64_t, PendingOp> pending_;
  uint64_t reads_completed_ = 0;
  uint64_t writes_completed_ = 0;
  uint64_t retries_ = 0;
};

}  // namespace radical

#endif  // RADICAL_SRC_KV_QUORUM_STORE_H_
