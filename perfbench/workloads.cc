// Workload definitions and the pass driver: builds a deployment, drives the
// generated requests into it, checks application invariants, and collects
// virtual latencies, host times and per-layer work counts.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <queue>

#include "perfbench/perfbench.h"
#include "src/apps/apps.h"
#include "src/radical/deployment.h"
#include "src/radical/trace.h"

namespace perfbench {

using radical::Seconds;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// FNV-1a over 64-bit words: the determinism fingerprint.
struct Fnv {
  uint64_t h = 1469598103934665603ULL;
  void Word(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
  void Bytes(const std::string& s) {
    for (const unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ULL;
    }
    Word(s.size());
  }
};

uint64_t CounterSum(const std::map<std::string, uint64_t>& before,
                    const std::map<std::string, uint64_t>& after,
                    const std::function<bool(const std::string&)>& pick) {
  uint64_t sum = 0;
  for (const auto& [name, value] : after) {
    if (!pick(name)) {
      continue;
    }
    const auto it = before.find(name);
    sum += value - (it == before.end() ? 0 : it->second);
  }
  return sum;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// Point-in-time reading of the counters and gauges a step's counts are
// differences of (set-up traffic such as Raft elections is excluded).
struct Reading {
  std::map<std::string, uint64_t> counters;
  uint64_t events = 0;
  uint64_t primary_reads = 0;
  uint64_t primary_writes = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t raft_commits = 0;
  uint64_t lock_acquisitions = 0;
  uint64_t lock_waits = 0;
};

Reading Read(World& world) {
  radical::RadicalDeployment& dep = *world.dep;
  const radical::obs::MetricsRegistry& reg = world.sim.metrics();
  Reading r;
  r.counters = reg.CountersWithPrefix("");
  r.events = world.sim.events_fired();
  r.primary_reads = static_cast<uint64_t>(reg.GaugeValue("store.primary.reads"));
  r.primary_writes = static_cast<uint64_t>(reg.GaugeValue("store.primary.writes"));
  for (const Region region : dep.regions()) {
    r.cache_hits += dep.runtime(region).cache().hits();
    r.cache_misses += dep.runtime(region).cache().misses();
  }
  if (radical::ReplicatedLockService* raft = dep.replicated_locks()) {
    for (int g = 0; g < raft->shards(); ++g) {
      radical::RaftCluster& cluster = raft->cluster(g);
      uint64_t commit = 0;
      for (int n = 0; n < cluster.size(); ++n) {
        commit = std::max<uint64_t>(commit, cluster.node(n)->commit_index());
      }
      r.raft_commits += commit;
    }
  }
  if (dep.local_locks() != nullptr) {
    r.lock_acquisitions = dep.local_locks()->table().acquisitions();
    r.lock_waits = dep.local_locks()->table().waits();
  } else if (dep.sharded_locks() != nullptr) {
    r.lock_acquisitions = dep.sharded_locks()->total_acquisitions();
    r.lock_waits = dep.sharded_locks()->total_waits();
  }
  return r;
}

LayerCounts CountsBetween(World& world, const Reading& a, const Reading& b, uint64_t requests) {
  radical::RadicalDeployment& dep = *world.dep;
  const auto named = [&](const std::string& suffix) {
    return CounterSum(a.counters, b.counters,
                      [&](const std::string& name) { return EndsWith(name, suffix); });
  };
  const auto runtime = [&](const std::string& metric) {
    return CounterSum(a.counters, b.counters, [&](const std::string& name) {
      return name.rfind("runtime.", 0) == 0 && EndsWith(name, "." + metric);
    });
  };
  const std::string server = dep.server().counters().prefix() + ".";
  const auto server_counter = [&](const std::string& metric) {
    const std::string full = server + metric;
    return CounterSum(a.counters, b.counters,
                      [&](const std::string& name) { return name == full; });
  };
  LayerCounts c;
  c.requests = requests;
  c.events = b.events - a.events;
  c.messages = named(".messages_sent");
  c.wan_bytes = named(".wan_bytes_sent");
  c.speculations = runtime("speculations");
  c.backups = server_counter("validate_fail");
  c.reexecutions = server_counter("reexecute");
  c.direct_execs = server_counter("direct_requests");
  c.unanalyzable = runtime("direct_unanalyzable");
  c.predicts = runtime("requests") - c.unanalyzable - runtime("direct_requested");
  c.validate_ok = server_counter("validate_success");
  c.validate_fail = c.backups;
  c.lock_acquisitions = b.lock_acquisitions - a.lock_acquisitions;
  c.lock_waits = b.lock_waits - a.lock_waits;
  c.queued_arrivals = server_counter("queued_arrivals");
  c.primary_reads = b.primary_reads - a.primary_reads;
  c.primary_writes = b.primary_writes - a.primary_writes;
  c.cache_hits = b.cache_hits - a.cache_hits;
  c.cache_misses = b.cache_misses - a.cache_misses;
  c.raft_commits = b.raft_commits - a.raft_commits;
  if (radical::ReplicatedLockService* raft = dep.replicated_locks()) {
    for (int g = 0; g < raft->shards(); ++g) {
      radical::RaftCluster& cluster = raft->cluster(g);
      for (int n = 0; n < cluster.size(); ++n) {
        c.raft_terms = std::max<uint64_t>(c.raft_terms, cluster.node(n)->term());
      }
    }
    c.acquire_resubmits = raft->acquire_resubmits();
  }
  c.retries = runtime("retries");
  c.wan_messages = named("fabric.wan.messages_sent");
  // Runtime and LviServer counters are the ones bumped through string-named
  // MetricsScope::Increment calls on the request path.
  c.counter_incs = CounterSum(a.counters, b.counters, [](const std::string& name) {
    return name.rfind("runtime.", 0) == 0 || name.rfind("lvi_server.", 0) == 0;
  });
  return c;
}

// --- Application invariants, read back from the primary ------------------------

void CheckInvariants(const std::string& app_name, const std::vector<Issued>& issued,
                     radical::RadicalDeployment& dep, std::vector<std::string>* violations) {
  const auto fail = [&](const std::string& what) {
    if (violations->size() < 8) {
      violations->push_back(what);
    }
  };
  const auto executed = [](const Issued& r) {
    return r.answered &&
           (r.status == RequestStatus::kOk || r.status == RequestStatus::kAborted);
  };
  const radical::VersionedStore& primary = dep.primary();
  const Value yes(static_cast<int64_t>(1));
  std::map<std::string, int64_t> bookings;  // avail key -> executed bookings
  for (const Issued& r : issued) {
    if (!executed(r)) {
      continue;
    }
    const std::string& fn = r.function;
    if (fn == "social_login" || fn == "hotel_login" || fn == "forum_login") {
      // Every generated login uses the user's seeded password.
      if (r.result != yes) {
        fail(fn + " rejected a correct password: " + r.result.ToString());
      }
    } else if (fn == "social_post") {
      const std::string key = "post:" + r.inputs[1].AsString();
      const Value want(r.inputs[0].AsString() + ": " + r.inputs[2].AsString());
      const auto item = primary.Peek(key);
      if (!item || item->value != want || r.result != r.inputs[1]) {
        fail("social_post did not leave " + key);
      }
    } else if (fn == "social_follow") {
      const auto following = primary.Peek("following:" + r.inputs[0].AsString());
      const auto followers = primary.Peek("followers:" + r.inputs[1].AsString());
      const auto contains = [](const std::optional<radical::Item>& list, const Value& v) {
        if (!list || !list->value.is_list()) {
          return false;
        }
        const radical::ValueList& l = list->value.AsList();
        return std::find(l.begin(), l.end(), v) != l.end();
      };
      if (!contains(following, r.inputs[1]) || !contains(followers, r.inputs[0])) {
        fail("social_follow " + r.inputs[0].AsString() + "->" + r.inputs[1].AsString() +
             " lost an edge");
      }
    } else if (fn == "forum_interact") {
      const std::string key = "vote:" + r.inputs[1].AsString() + ":" + r.inputs[0].AsString();
      const auto item = primary.Peek(key);
      if (!item || item->value != yes) {
        fail("forum_interact did not leave " + key);
      }
    } else if (fn == "hotel_book") {
      const std::string& user = r.inputs[0].AsString();
      const std::string& hotel = r.inputs[1].AsString();
      const std::string& date = r.inputs[2].AsString();
      ++bookings["avail:" + hotel + ":" + date];
      if (!primary.Peek("booking:" + user + ":" + r.inputs[3].AsString())) {
        fail("hotel_book left no booking record for " + user);
      }
    }
  }
  if (app_name == "hotel") {
    // Bookings decrement unconditionally: every availability counter equals
    // its seeded value minus the bookings that executed against it.
    const radical::HotelOptions seeded;
    for (uint64_t h = 0; h < seeded.num_hotels; ++h) {
      for (int d = 0; d < seeded.num_dates; ++d) {
        const std::string key = "avail:h" + std::to_string(h) + ":d" + std::to_string(d);
        const auto item = primary.Peek(key);
        const int64_t want = seeded.initial_availability - bookings[key];
        if (!item || !item->value.is_int() || item->value.AsInt() != want) {
          fail(key + " is " + (item ? item->value.ToString() : "missing") + ", want " +
               std::to_string(want));
        }
      }
    }
  }
}

// --- Tracing -------------------------------------------------------------------

void Aggregate(const radical::obs::SpanCollector& spans, const radical::TraceCollector& tracer,
               TraceAggregate* agg) {
  for (const radical::obs::Span& s : spans.spans()) {
    if (s.name == "server.admission") {
      agg->admission.Add(s.duration);
    } else if (s.name == "server.lock_wait") {
      agg->lock_wait.Add(s.duration);
    } else if (s.name == "server.validate") {
      agg->validate.Add(s.duration);
    } else if (s.name == "server.intent_write") {
      agg->intent_write.Add(s.duration);
    } else if (s.name == "server.backup_exec") {
      agg->backup_exec.Add(s.duration);
    }
  }
  agg->spans += spans.size();
  for (const radical::RequestTrace& t : tracer.traces()) {
    ++agg->traces;
    agg->instantiation_us += static_cast<double>(t.Instantiation());
    agg->frw_us += static_cast<double>(t.FrwTime());
    agg->overlap_us += static_cast<double>(t.OverlapWindow());
    agg->completion_us += static_cast<double>(t.Completion());
    agg->lvi_stall_us += static_cast<double>(t.LviStall());
    agg->total_us += static_cast<double>(t.Total());
  }
}

// Spans kept for the Chrome trace file of a traced run.
constexpr size_t kSpansWritten = 20000;
// Traced runs fold spans and request traces into the aggregate every this
// many completions, so memory stays bounded however long the run.
constexpr uint64_t kTraceDrainEvery = 4096;

// One closed-loop client: its region, random stream and requests left.
struct ClientLoop {
  Region region;
  radical::Rng rng;
  uint64_t remaining;
};

// --- Host clock -----------------------------------------------------------------

// Host seconds of a fixed computation that shares nothing with the library:
// string-keyed ordered-map updates and lookups plus a bounded binary heap, the
// operation mix that dominates the simulator's own profile.
double ReferenceLoopSeconds() {
  const Clock::time_point start = Clock::now();
  std::map<std::string, uint64_t> table;
  std::priority_queue<uint64_t, std::vector<uint64_t>, std::greater<>> heap;
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  uint64_t found = 0;
  for (int i = 0; i < 6000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    table["key:" + std::to_string(x % 4096) + ":" + std::to_string(i % 7)] += x;
    const auto it = table.find("key:" + std::to_string((x >> 20) % 4096) + ":3");
    found += it == table.end() ? 0 : 1;
    heap.push(x % 100000);
    if (heap.size() > 1024) {
      heap.pop();
    }
  }
  const double seconds = SecondsSince(start);
  // Consume the result so the loop cannot be optimized away.
  return found == ~uint64_t{0} ? 0 : seconds;
}

}  // namespace

double ReferenceSeconds() {
  std::vector<double> loops;
  for (int i = 0; i < 5; ++i) {
    loops.push_back(ReferenceLoopSeconds());
  }
  std::sort(loops.begin(), loops.end());
  return loops[loops.size() / 2];
}

namespace {

// Virtual time per slice of a run. Slicing changes nothing in the schedule:
// running to t1 and then to t2 fires exactly the events that running to t2
// fires.
constexpr SimDuration kSlice = Seconds(1);
// Host time between reference samples.
constexpr double kSampleEverySeconds = 1.0;

// Runs the simulation until `stop_at`, or until no event is left when
// `stop_at` is 0. Between slices, about once per host second, it samples the
// reference loop and converts the segment's wall time to nominal seconds with
// the samples at its two ends. Sampling time is excluded from both clocks.
void Drive(radical::Simulator& sim, SimTime stop_at, StepResult* out) {
  double reference = ReferenceSeconds();
  out->reference_s.push_back(reference);
  Clock::time_point segment_start = Clock::now();
  const auto close_segment = [&] {
    const double wall = SecondsSince(segment_start);
    const double next = ReferenceSeconds();
    out->run_wall_s += wall;
    out->run_nominal_s += wall * kNominalReferenceSeconds / ((reference + next) / 2);
    out->reference_s.push_back(next);
    reference = next;
    segment_start = Clock::now();
  };
  while (stop_at == 0 ? !sim.idle() : sim.Now() < stop_at) {
    const SimTime slice_end = sim.Now() + kSlice;
    sim.RunUntil(stop_at == 0 ? slice_end : std::min(slice_end, stop_at));
    if (SecondsSince(segment_start) >= kSampleEverySeconds) {
      close_segment();
    }
  }
  close_segment();
}

// --- One step: build, drive, drain, check ----------------------------------------

StepResult RunStep(const Workload& w, const AppSpec& app, const PassOptions& options,
                   int step_index, TraceAggregate* trace, std::vector<Issued>* sample) {
  StepResult out;
  const uint64_t step_seed = options.seed * 7919 + static_cast<uint64_t>(step_index);
  std::unique_ptr<World> world = BuildWorld(w, app, step_seed, &out);
  radical::Simulator& sim = world->sim;
  radical::RadicalDeployment& dep = *world->dep;

  radical::obs::SpanCollector spans;
  radical::TraceCollector tracer;
  radical::obs::SpanCollector head;  // The first spans, for the trace file.
  // Runs inside completion callbacks, never as an event of its own, so a
  // traced run schedules exactly what an untraced one does.
  const auto drain_trace = [&] {
    for (size_t i = 0; i < spans.size() && head.size() < kSpansWritten; ++i) {
      head.Add(spans.spans()[i]);
    }
    Aggregate(spans, tracer, trace);
    spans.Clear();
    tracer.Clear();
  };
  uint64_t completed = 0;
  if (options.traced) {
    dep.AttachSpans(&spans);
    for (const Region region : dep.regions()) {
      dep.runtime(region).set_tracer(&tracer);
    }
  }

  // The generator's randomness is its own stream; the deployment only ever
  // sees the requests it produces.
  radical::Rng gen(step_seed ^ 0x5eed5eed5eed5eedULL);
  radical::WorkloadFn next_request = app.make_workload();
  const std::vector<Region>& regions = dep.regions();
  std::vector<Issued> issued;
  Fnv completions;
  radical::RequestOptions request_options;
  if (!w.retries) {
    request_options.retry = radical::RetryPolicy{};
    request_options.retry->enabled = false;
  }

  // Records the final ending of request `index`; previews are not endings.
  const auto record = [&](size_t index, const radical::Outcome& outcome) {
    Issued& done = issued[index];
    done.answered = true;
    done.status = outcome.status;
    done.result = outcome.result;
    const SimDuration latency = sim.Now() - done.due;
    if (outcome.executed()) {
      out.latency.Add(latency);
    }
    completions.Word(index);
    completions.Word(static_cast<uint64_t>(latency));
    completions.Word(static_cast<uint64_t>(outcome.status));
    completions.Word(outcome.result.StableHash());
    if (options.traced && ++completed % kTraceDrainEvery == 0) {
      drain_trace();
    }
  };
  // Appends a generated request and submits it; `then` runs after its ending.
  const auto issue = [&](Region region, RequestSpec spec, std::function<void()> then) {
    Issued r;
    r.region = region;
    r.function = std::move(spec.function);
    r.inputs = std::move(spec.inputs);
    r.due = sim.Now();
    issued.push_back(std::move(r));
    const size_t index = issued.size() - 1;
    dep.client(region).Submit(radical::Request{issued[index].function, issued[index].inputs},
                              request_options,
                              [&record, index, then](radical::Outcome outcome) {
                                if (outcome.preview()) {
                                  return;
                                }
                                record(index, outcome);
                                if (then) {
                                  then();
                                }
                              });
  };

  // Generators; they outlive the run below.
  std::vector<std::unique_ptr<ClientLoop>> clients;
  std::function<void(ClientLoop*)> issue_next;
  std::function<void(uint64_t)> arrive;
  SimTime stop_at = 0;  // 0: run until no event is left.
  const Reading before = Read(*world);
  if (!w.open_loop) {
    // Closed loop: each client waits for its reply, thinks, then sends the
    // next request.
    issue_next = [&](ClientLoop* c) {
      if (c->remaining == 0) {
        return;
      }
      --c->remaining;
      issue(c->region, next_request(c->rng), [&sim, &w, &issue_next, c] {
        // Think time: uniform within +/-50% of the mean.
        const double frac = 0.5 + c->rng.NextDouble();
        const auto think = static_cast<SimDuration>(static_cast<double>(w.think_time) * frac);
        sim.Schedule(think, [&issue_next, c] { issue_next(c); });
      });
    };
    for (const Region region : regions) {
      for (int i = 0; i < w.clients_per_region; ++i) {
        clients.push_back(
            std::make_unique<ClientLoop>(ClientLoop{region, gen.Fork(), w.requests_per_client}));
        ClientLoop* c = clients.back().get();
        // Stagger client starts across one think time.
        const auto stagger = static_cast<SimDuration>(
            c->rng.NextBelow(static_cast<uint64_t>(w.think_time) + 1));
        sim.Schedule(stagger, [&issue_next, c] { issue_next(c); });
      }
    }
  } else {
    // Open loop: arrivals at fixed instants regardless of completions.
    // Latency runs from each request's due time; in virtual time the
    // generator is never late.
    const int rps = w.steps_rps[static_cast<size_t>(step_index)];
    out.rps = rps;
    const auto count = static_cast<uint64_t>(
        static_cast<double>(rps) * static_cast<double>(w.step_duration) / 1e6);
    issued.reserve(count);
    // Raft bootstrap has already advanced the clock; arrivals start now.
    const SimTime origin = sim.Now();
    arrive = [&, origin, rps, count](uint64_t i) {
      RequestSpec spec = next_request(gen);
      issue(regions[gen.NextBelow(regions.size())], std::move(spec), nullptr);
      if (i + 1 < count) {
        const auto next_due =
            origin + static_cast<SimTime>(static_cast<double>(i + 1) * 1e6 / rps);
        sim.ScheduleAt(next_due, [&arrive, i] { arrive(i + 1); });
      }
    };
    sim.Schedule(0, [&arrive] { arrive(0); });
    if (w.drain > 0) {
      // Raft heartbeats never let the event queue drain.
      stop_at = origin + w.step_duration + w.drain;
    }
  }
  Drive(sim, stop_at, &out);
  const Reading after = Read(*world);

  out.issued = issued.size();
  for (const Issued& r : issued) {
    if (!r.answered || r.status == RequestStatus::kRejected ||
        r.status == RequestStatus::kDeadlineExceeded) {
      ++out.failed;
    }
  }
  out.counts = CountsBetween(*world, before, after, out.issued);
  CheckInvariants(w.app, issued, dep, &out.violations);

  Fnv digest;
  digest.Word(completions.h);
  digest.Word(out.issued);
  digest.Word(out.failed);
  digest.Word(out.counts.events);
  digest.Word(static_cast<uint64_t>(sim.Now()));
  digest.Bytes(sim.metrics().SnapshotJson());
  out.digest = digest.h;

  if (options.traced) {
    drain_trace();
    if (!options.trace_path.empty() && step_index == w.headline_step &&
        !head.WriteChromeTrace(options.trace_path)) {
      std::fprintf(stderr, "perfbench: could not write %s\n", options.trace_path.c_str());
    }
    dep.AttachSpans(nullptr);
    for (const Region region : dep.regions()) {
      dep.runtime(region).set_tracer(nullptr);
    }
  }
  for (size_t i = 0; i < issued.size() && sample->size() < options.replay_sample; ++i) {
    sample->push_back(issued[i]);
  }
  return out;
}

}  // namespace

// --- Workloads --------------------------------------------------------------------

const std::vector<Workload>& AllWorkloads() {
  static const std::vector<Workload> workloads = [] {
    std::vector<Workload> all;
    // Read-mostly social app (Table 1 mix, zipf 0.99 users): host time goes to
    // the interpreter, analysis, kv caches and the codec; the lock plane idles.
    Workload social;
    social.name = "social-closed";
    social.app = "social";
    social.clients_per_region = 10;
    social.think_time = Seconds(4);
    social.requests_per_client = 1000;
    all.push_back(social);
    // Hot narrow writes on zipf-selected posts: lock waits, validation
    // failures and backup executions.
    Workload forum;
    forum.name = "forum-contended";
    forum.app = "forum";
    forum.clients_per_region = 20;
    forum.think_time = Seconds(1);
    forum.requests_per_client = 2000;
    all.push_back(forum);
    // Fixed arrival-rate steps against the singleton server's capacity model:
    // LVI admission queueing dominates.
    Workload openloop;
    openloop.name = "hotel-openloop";
    openloop.app = "hotel";
    openloop.open_loop = true;
    openloop.steps_rps = {300, 540, 600, 660};
    openloop.step_duration = Seconds(60);
    openloop.headline_step = 1;
    openloop.serving_capacity_rps = 600;
    openloop.retries = false;
    all.push_back(openloop);
    // The §5.6 deployment: the only workload that runs Raft.
    Workload replicated;
    replicated.name = "hotel-replicated";
    replicated.app = "hotel";
    replicated.open_loop = true;
    replicated.steps_rps = {100};
    replicated.step_duration = Seconds(100);
    replicated.drain = Seconds(10);
    replicated.replicated_locks = 3;
    all.push_back(replicated);
    return all;
  }();
  return workloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : AllWorkloads()) {
    if (w.name == name) {
      return &w;
    }
  }
  return nullptr;
}

AppSpec MakeApp(const Workload& workload) {
  if (workload.app == "social") {
    return radical::MakeSocialApp();
  }
  if (workload.app == "forum") {
    return radical::MakeForumApp();
  }
  return radical::MakeHotelApp();
}

// --- Pass ----------------------------------------------------------------------

World::World(uint64_t seed) : sim(seed), net(&sim, radical::LatencyMatrix::PaperDefault()) {}

std::unique_ptr<World> BuildWorld(const Workload& w, const AppSpec& app, uint64_t seed,
                                  StepResult* timings) {
  const Clock::time_point start = Clock::now();
  auto world = std::make_unique<World>(seed);
  radical::RadicalConfig config;
  config.server.serving_capacity_rps = w.serving_capacity_rps;
  world->dep = std::make_unique<radical::RadicalDeployment>(
      &world->sim, &world->net, config, radical::DeploymentRegions(), w.replicated_locks);
  const Clock::time_point registered = Clock::now();
  app.RegisterAll(world->dep.get());
  const Clock::time_point seeded = Clock::now();
  app.seed(world->dep.get());
  world->dep->WarmCaches();
  timings->register_ms = std::chrono::duration<double, std::milli>(seeded - registered).count();
  timings->seed_warm_ms = SecondsSince(seeded) * 1e3;
  timings->setup_s = SecondsSince(start);
  return world;
}


void LayerCounts::Add(const LayerCounts& o) {
  requests += o.requests;
  events += o.events;
  messages += o.messages;
  wan_messages += o.wan_messages;
  wan_bytes += o.wan_bytes;
  speculations += o.speculations;
  backups += o.backups;
  reexecutions += o.reexecutions;
  direct_execs += o.direct_execs;
  predicts += o.predicts;
  unanalyzable += o.unanalyzable;
  validate_ok += o.validate_ok;
  validate_fail += o.validate_fail;
  lock_acquisitions += o.lock_acquisitions;
  lock_waits += o.lock_waits;
  queued_arrivals += o.queued_arrivals;
  primary_reads += o.primary_reads;
  primary_writes += o.primary_writes;
  cache_hits += o.cache_hits;
  cache_misses += o.cache_misses;
  raft_commits += o.raft_commits;
  raft_terms = std::max(raft_terms, o.raft_terms);
  acquire_resubmits += o.acquire_resubmits;
  retries += o.retries;
  counter_incs += o.counter_incs;
}

uint64_t PassResult::Digest() const {
  Fnv fnv;
  for (const StepResult& s : steps) {
    fnv.Word(s.digest);
  }
  return fnv.h;
}

uint64_t PassResult::IssuedCount() const {
  uint64_t n = 0;
  for (const StepResult& s : steps) {
    n += s.issued;
  }
  return n;
}

uint64_t PassResult::FailedCount() const {
  uint64_t n = 0;
  for (const StepResult& s : steps) {
    n += s.failed;
  }
  return n;
}

double PassResult::RunNominalSeconds() const {
  double t = 0;
  for (const StepResult& s : steps) {
    t += s.run_nominal_s;
  }
  return t;
}

double PassResult::RunWallSeconds() const {
  double t = 0;
  for (const StepResult& s : steps) {
    t += s.run_wall_s;
  }
  return t;
}

LayerCounts PassResult::Counts() const {
  LayerCounts c;
  for (const StepResult& s : steps) {
    c.Add(s.counts);
  }
  return c;
}

PassResult RunPass(const Workload& workload, const PassOptions& options) {
  const AppSpec app = MakeApp(workload);
  PassResult pass;
  const int steps = workload.open_loop ? static_cast<int>(workload.steps_rps.size()) : 1;
  for (int i = 0; i < steps; ++i) {
    pass.steps.push_back(RunStep(workload, app, options, i, &pass.trace, &pass.sample));
  }
  return pass;
}

}  // namespace perfbench
