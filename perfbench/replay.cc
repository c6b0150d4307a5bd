// Host-cost replay: times this harness's own calls into each layer's public
// functions, fed with the run's requests against the same seeded data, so a
// traced run can say which layer burns the host CPU without instrumenting
// the library.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>

#include "perfbench/perfbench.h"
#include "src/analysis/analyzer.h"
#include "src/kv/write_buffer.h"
#include "src/lvi/codec.h"
#include "src/lvi/lock_table.h"
#include "src/radical/deployment.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double NsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start).count();
}

// One sample request with its analysed function and predicted read/write set.
struct Shaped {
  const Issued* request = nullptr;
  const radical::AnalyzedFunction* fn = nullptr;
  radical::RwSet rw;
  std::vector<radical::Key> keys;
  std::vector<radical::LockMode> modes;
  radical::LviRequest lvi;
};

// Repeats `round` until at least `min_ns` of host time has been spent, and
// returns the host time per operation (`ops_per_round` operations a round).
template <typename Round>
double PerOp(size_t ops_per_round, double min_ns, Round round) {
  if (ops_per_round == 0) {
    return 0;
  }
  double spent = 0;
  size_t ops = 0;
  do {
    spent += round();
    ops += ops_per_round;
  } while (spent < min_ns);
  return spent / static_cast<double>(ops);
}

constexpr double kMinNs = 50e6;  // 50 ms of timed work per layer.

double SimNsPerEvent(uint64_t seed) {
  // Steady-state event traffic: a fixed population of in-flight events, each
  // rescheduling itself after a random delay, as request pipelines do.
  constexpr int kChains = 1024;
  constexpr uint64_t kEvents = 200000;
  return PerOp(kEvents, kMinNs, [seed] {
    radical::Simulator sim(seed);
    radical::Rng rng(seed);
    uint64_t fired = 0;
    struct Chain {
      radical::Simulator* sim;
      radical::Rng* rng;
      uint64_t* fired;
      void Next() {
        if (++*fired >= kEvents) {
          return;
        }
        sim->Schedule(static_cast<SimDuration>(rng->NextBelow(2000)), [this] { Next(); });
      }
    };
    std::vector<Chain> chains(kChains, Chain{&sim, &rng, &fired});
    const Clock::time_point start = Clock::now();
    for (Chain& c : chains) {
      sim.Schedule(static_cast<SimDuration>(rng.NextBelow(2000)), [&c] { c.Next(); });
    }
    sim.Run();
    return NsSince(start);
  });
}

double ObsNsPerIncrement() {
  // The request path's string-named increments, as Runtime and LviServer
  // issue them through their prefixed scopes.
  static const char* const kNames[] = {"requests", "speculations", "validated_speculative",
                                       "replies"};
  constexpr size_t kIncs = 100000;
  radical::obs::MetricsRegistry registry;
  radical::obs::MetricsScope scope(&registry, "runtime.VA");
  return PerOp(kIncs, kMinNs, [&scope] {
    const Clock::time_point start = Clock::now();
    for (size_t i = 0; i < kIncs; ++i) {
      scope.Increment(kNames[i % 4]);
    }
    return NsSince(start);
  });
}

}  // namespace

LayerCosts ReplayLayerCosts(const Workload& workload, uint64_t seed,
                            const std::vector<Issued>& sample) {
  LayerCosts costs;
  // A freshly seeded deployment shaped like the workload's is the replay data.
  const AppSpec app = MakeApp(workload);
  StepResult unused;
  const std::unique_ptr<World> world = BuildWorld(workload, app, seed, &unused);
  radical::RadicalDeployment& dep = *world->dep;
  const radical::Interpreter interpreter(&radical::HostRegistry::Standard());
  const radical::ExecLimits limits = dep.config().exec_limits;

  // Shape every sample request the way the runtime would: f^rw against the
  // origin's cache, then the LVI request carrying the cached versions.
  std::vector<Shaped> shaped;
  shaped.reserve(sample.size());
  for (const Issued& r : sample) {
    Shaped s;
    s.request = &r;
    s.fn = dep.registry().Find(r.function);
    if (s.fn == nullptr || !s.fn->analyzable) {
      continue;
    }
    radical::CacheStore& cache = dep.runtime(r.region).cache();
    radical::RwPrediction prediction = radical::PredictRwSet(*s.fn, r.inputs, &cache, interpreter);
    if (!prediction.ok()) {
      continue;
    }
    s.rw = std::move(prediction.rw);
    s.keys = s.rw.AllKeysSorted();
    s.lvi.exec_id = shaped.size() + 1;
    s.lvi.origin = r.region;
    s.lvi.function = r.function;
    s.lvi.inputs = r.inputs;
    for (const radical::Key& key : s.keys) {
      s.modes.push_back(s.rw.ModeFor(key));
      s.lvi.items.push_back(radical::LviItem{key, cache.VersionOf(key), s.modes.back(), 0});
    }
    shaped.push_back(std::move(s));
  }
  if (shaped.empty()) {
    return costs;
  }

  costs.sim_ns_per_event = SimNsPerEvent(seed);
  costs.obs_ns_per_inc = ObsNsPerIncrement();

  costs.analysis_us_per_predict =
      PerOp(shaped.size(), kMinNs, [&] {
        const Clock::time_point start = Clock::now();
        for (const Shaped& s : shaped) {
          radical::CacheStore& cache = dep.runtime(s.request->region).cache();
          const radical::RwPrediction p =
              radical::PredictRwSet(*s.fn, s.request->inputs, &cache, interpreter);
          if (!p.ok()) {
            std::fprintf(stderr, "perfbench: replayed f^rw failed\n");
          }
        }
        return NsSince(start);
      }) / 1e3;

  costs.func_us_per_exec =
      PerOp(shaped.size(), kMinNs, [&] {
        const Clock::time_point start = Clock::now();
        for (const Shaped& s : shaped) {
          // Speculative shape: the function runs against the origin's cache
          // through a write buffer, leaving the cache untouched.
          radical::WriteBuffer buffer(&dep.runtime(s.request->region).cache());
          const radical::ExecEnv env{s.lvi.exec_id, &dep.externals()};
          const radical::ExecResult result =
              interpreter.Execute(s.fn->original, s.request->inputs, &buffer, limits, &env);
          if (!result.ok()) {
            std::fprintf(stderr, "perfbench: replayed execution failed\n");
          }
        }
        return NsSince(start);
      }) / 1e3;

  std::vector<radical::WireBuffer> wire(shaped.size());
  costs.net_ns_encode = PerOp(shaped.size(), kMinNs, [&] {
    const Clock::time_point start = Clock::now();
    for (size_t i = 0; i < shaped.size(); ++i) {
      wire[i].clear();
      radical::EncodeLviRequestTo(shaped[i].lvi, &wire[i]);
    }
    return NsSince(start);
  });
  costs.net_ns_decode = PerOp(shaped.size(), kMinNs, [&] {
    size_t bad = 0;
    const Clock::time_point start = Clock::now();
    for (const radical::WireBuffer& buffer : wire) {
      bad += radical::DecodeLviRequest(buffer).ok() ? 0 : 1;
    }
    const double ns = NsSince(start);
    if (bad > 0) {
      std::fprintf(stderr, "perfbench: %zu replayed LVI requests failed to decode\n", bad);
    }
    return ns;
  });

  size_t keys_total = 0;
  for (const Shaped& s : shaped) {
    keys_total += s.keys.size();
  }
  std::vector<radical::Value> read_back(keys_total);
  radical::VersionedStore& primary = dep.primary();
  costs.kv_ns_get = PerOp(keys_total, kMinNs, [&] {
    size_t i = 0;
    radical::SimDuration latency = 0;
    const Clock::time_point start = Clock::now();
    for (const Shaped& s : shaped) {
      for (const radical::Key& key : s.keys) {
        const std::optional<radical::Item> item = primary.Get(key, &latency);
        read_back[i++] = item ? item->value : radical::Value();
      }
    }
    return NsSince(start);
  });
  costs.kv_ns_put = PerOp(keys_total, kMinNs, [&] {
    size_t i = 0;
    radical::SimDuration latency = 0;
    const Clock::time_point start = Clock::now();
    for (const Shaped& s : shaped) {
      for (const radical::Key& key : s.keys) {
        primary.Put(key, read_back[i++], &latency);
      }
    }
    return NsSince(start);
  });

  costs.lvi_ns_lock_cycle = PerOp(shaped.size(), kMinNs, [&] {
    radical::Simulator sim(seed);
    radical::LockTable table(&sim);
    uint64_t granted = 0;
    const Clock::time_point start = Clock::now();
    for (const Shaped& s : shaped) {
      table.AcquireAll(s.lvi.exec_id, s.keys, s.modes, [&granted] { ++granted; });
      sim.Run();
      table.ReleaseAll(s.lvi.exec_id);
    }
    const double ns = NsSince(start);
    if (granted != shaped.size()) {
      std::fprintf(stderr, "perfbench: replayed lock cycles were not all granted\n");
    }
    return ns;
  });

  // Client::Submit on a fresh deployment: the synchronous host cost of
  // handing a request to the runtime (the request itself runs later).
  {
    const std::unique_ptr<World> fresh = BuildWorld(workload, app, seed + 1, &unused);
    constexpr size_t kSubmits = 2000;
    const size_t n = std::min(kSubmits, shaped.size());
    double ns = 0;
    for (size_t i = 0; i < n; ++i) {
      const Issued& r = *shaped[i].request;
      radical::Request request{r.function, r.inputs};
      radical::Client client = fresh->dep->client(r.region);
      const Clock::time_point start = Clock::now();
      client.Submit(std::move(request), [](radical::Outcome) {});
      ns += NsSince(start);
    }
    costs.radical_us_submit = n == 0 ? 0 : ns / static_cast<double>(n) / 1e3;
  }
  return costs;
}

}  // namespace perfbench
