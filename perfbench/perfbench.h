// perfbench: one benchmark for Radical, measured from outside the library.
//
// A run executes one workload against a real RadicalDeployment several
// times ("passes") within its time budget. Virtual-time results are what the
// modelled system's users would see and are deterministic for a seed; host
// results are what the simulator costs and are noisy, so they are reported
// as medians over passes. Every figure comes from calls this harness makes
// into public APIs, plus counters, gauges and spans the library already
// exposes. perfbench/README.md documents each metric and workload.

#ifndef RADICAL_PERFBENCH_PERFBENCH_H_
#define RADICAL_PERFBENCH_PERFBENCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/apps/app_spec.h"
#include "src/common/stats.h"
#include "src/radical/client.h"
#include "src/radical/deployment.h"
#include "src/radical/load_generator.h"

namespace perfbench {

using radical::AppSpec;
using radical::LatencySampler;
using radical::Region;
using radical::RequestSpec;
using radical::RequestStatus;
using radical::SimDuration;
using radical::SimTime;
using radical::Value;

// --- Workloads ----------------------------------------------------------------

struct Workload {
  std::string name;
  std::string app;  // "social", "forum" or "hotel".
  bool open_loop = false;
  // Closed loop: logical clients in each of the five deployment regions.
  int clients_per_region = 0;
  SimDuration think_time = 0;
  uint64_t requests_per_client = 0;
  // Open loop: fixed arrival-rate steps, a fresh deployment per step.
  std::vector<int> steps_rps;
  SimDuration step_duration = 0;
  // Step whose latency is the workload's headline p50/p99/p99.9.
  int headline_step = 0;
  // Virtual time allowed after the last arrival for replies to come back.
  // 0 drains the event queue instead (impossible with Raft heartbeats).
  SimDuration drain = 0;
  uint64_t serving_capacity_rps = 0;  // 0 = unlimited server.
  bool retries = true;
  int replicated_locks = 0;  // > 0: the §5.6 Raft-replicated lock plane.
};

// The four workloads, in documentation order.
const std::vector<Workload>& AllWorkloads();
const Workload* FindWorkload(const std::string& name);
AppSpec MakeApp(const Workload& workload);

// --- Host clock -------------------------------------------------------------------

// Host seconds of one sample of a fixed reference computation that shares no
// code with the library (the median of five loops, so a momentary stall does
// not count). On a shared host the machine's speed drifts by 10-20% over
// minutes as other tenants come and go, and this sample drifts with it.
double ReferenceSeconds();

// The reference sample's host time on the nominal machine: a 4-vCPU VM, the
// one perfbench/README.md's baselines were taken on. Gated host times are
// nominal seconds: wall seconds times this over the reference time measured
// around them, which cancels most of the drift.
inline constexpr double kNominalReferenceSeconds = 0.004;

// --- Results of one deployment run ---------------------------------------------

// One issued request: its inputs (replays and invariant checks) and ending.
struct Issued {
  Region region = Region::kVA;
  std::string function;
  std::vector<Value> inputs;
  SimTime due = 0;
  bool answered = false;
  RequestStatus status = RequestStatus::kOk;
  Value result;
};

// Work counts read from the library's counters, gauges and accessors after a
// deployment run. All are virtual-time facts: identical for a seed.
struct LayerCounts {
  uint64_t requests = 0;
  uint64_t events = 0;
  uint64_t messages = 0;      // Every fabric, WAN and Raft mesh alike.
  uint64_t wan_messages = 0;  // LVI protocol messages on the WAN fabric.
  uint64_t wan_bytes = 0;
  uint64_t speculations = 0;
  uint64_t backups = 0;       // Validation failures: one backup execution each.
  uint64_t reexecutions = 0;  // Intent-timer deterministic re-executions.
  uint64_t direct_execs = 0;  // Near-storage direct executions.
  uint64_t predicts = 0;      // f^rw runs (analyzable requests).
  uint64_t unanalyzable = 0;
  uint64_t validate_ok = 0;
  uint64_t validate_fail = 0;
  uint64_t lock_acquisitions = 0;
  uint64_t lock_waits = 0;
  uint64_t queued_arrivals = 0;
  uint64_t primary_reads = 0;
  uint64_t primary_writes = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t raft_commits = 0;
  uint64_t raft_terms = 0;
  uint64_t acquire_resubmits = 0;
  uint64_t retries = 0;
  uint64_t counter_incs = 0;

  void Add(const LayerCounts& other);
};

// Virtual-time span and trace aggregates of a traced run.
struct TraceAggregate {
  LatencySampler admission;
  LatencySampler lock_wait;
  LatencySampler validate;
  LatencySampler intent_write;
  LatencySampler backup_exec;
  // §5.5 components, summed over traces (µs of virtual time).
  uint64_t traces = 0;
  double instantiation_us = 0;
  double frw_us = 0;
  double overlap_us = 0;
  double completion_us = 0;
  double lvi_stall_us = 0;
  double total_us = 0;
  uint64_t spans = 0;
};

struct StepResult {
  int rps = 0;  // Open-loop arrival rate; 0 for closed loop.
  LatencySampler latency;  // Executed requests, virtual end to end.
  uint64_t issued = 0;
  uint64_t failed = 0;  // Rejected, deadline exceeded, or never answered.
  double setup_s = 0;
  double register_ms = 0;
  double seed_warm_ms = 0;
  double run_wall_s = 0;  // First submit until drain, host seconds.
  // The same host time in nominal seconds, and the reference samples it was
  // converted with (seconds).
  double run_nominal_s = 0;
  std::vector<double> reference_s;
  LayerCounts counts;
  // Fingerprint of every virtual-time output of the run: latencies in
  // completion order, outcomes, event count, end time and the metrics
  // registry snapshot.
  uint64_t digest = 0;
  std::vector<std::string> violations;  // Broken app invariants.
};

// Simulator, network and deployment of one run, torn down in reverse order.
struct World {
  explicit World(uint64_t seed);
  radical::Simulator sim;
  radical::Network net;
  std::unique_ptr<radical::RadicalDeployment> dep;
};

// Constructs the workload's deployment, registers the app's functions (this
// runs the analyzer), seeds it and warms its caches; records the host time of
// the whole and of each phase in `timings` (setup_s, register_ms,
// seed_warm_ms).
std::unique_ptr<World> BuildWorld(const Workload& workload, const AppSpec& app, uint64_t seed,
                                  StepResult* timings);

struct PassResult {
  std::vector<StepResult> steps;
  TraceAggregate trace;  // Traced passes only.
  std::vector<Issued> sample;  // Issued requests kept for the host replay.

  uint64_t Digest() const;
  uint64_t IssuedCount() const;
  uint64_t FailedCount() const;
  double RunWallSeconds() const;
  double RunNominalSeconds() const;
  LayerCounts Counts() const;
};

struct PassOptions {
  uint64_t seed = 1;
  bool traced = false;
  // Traced passes: where to write the first spans as Chrome trace JSON
  // (empty = do not write).
  std::string trace_path;
  size_t replay_sample = 0;  // Issued requests to keep for the replay.
};

PassResult RunPass(const Workload& workload, const PassOptions& options);

// --- Host-cost replay ------------------------------------------------------------

// Host cost of one operation of each layer, timed on this harness's own calls
// into the layer's public functions with the run's requests and seeded data.
struct LayerCosts {
  double sim_ns_per_event = 0;
  double net_ns_encode = 0;
  double net_ns_decode = 0;
  double func_us_per_exec = 0;
  double analysis_us_per_predict = 0;
  double kv_ns_get = 0;
  double kv_ns_put = 0;
  double lvi_ns_lock_cycle = 0;
  double obs_ns_per_inc = 0;
  double radical_us_submit = 0;
};

LayerCosts ReplayLayerCosts(const Workload& workload, uint64_t seed,
                            const std::vector<Issued>& sample);

}  // namespace perfbench

#endif  // RADICAL_PERFBENCH_PERFBENCH_H_
