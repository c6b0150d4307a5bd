// radical_cli: run a configurable Radical experiment from the command line.
//
//   radical_cli [--app social|hotel|forum]
//               [--deploy radical|baseline|ideal]
//               [--regions VA,CA,IE,DE,JP]
//               [--clients N] [--requests N] [--think-ms N] [--seed S]
//               [--replicated-locks N] [--no-speculation] [--two-rtt]
//               [--per-function] [--per-region]
//
// Examples:
//   radical_cli --app hotel --deploy radical --per-region
//   radical_cli --app forum --deploy baseline --clients 20 --requests 500
//   radical_cli --app social --replicated-locks 3 --per-function
//
// Every run is deterministic for its --seed. Flag values are validated: an
// unknown app, region, deployment or flag, a non-integer number, --clients or
// --requests below 1, or --think-ms, --seed or --replicated-locks below 0
// prints the usage and exits 2.

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "bench/bench_util.h"
#include "src/common/string_util.h"

namespace radical {
namespace {

struct CliOptions {
  std::string app = "social";
  std::string deploy = "radical";
  RunOptions run;
  bool per_function = false;
  bool per_region = false;
  int replicated_locks = 0;
};

void Usage(std::FILE* out) {
  std::fprintf(out,
               "usage: radical_cli [--app social|hotel|forum] [--deploy radical|baseline|ideal]\n"
               "                   [--regions VA,CA,IE,DE,JP] [--clients N] [--requests N]\n"
               "                   [--think-ms N] [--seed S] [--replicated-locks N]\n"
               "                   [--no-speculation] [--two-rtt] [--per-function] "
               "[--per-region]\n");
}

bool ParseRegions(const std::string& spec, std::vector<Region>* out) {
  out->clear();
  size_t pos = 0;
  while (pos < spec.size()) {
    const size_t comma = spec.find(',', pos);
    const std::string name = spec.substr(pos, comma == std::string::npos ? spec.size() - pos
                                                                         : comma - pos);
    bool found = false;
    for (int r = 0; r < kNumRegions; ++r) {
      if (name == RegionName(static_cast<Region>(r))) {
        out->push_back(static_cast<Region>(r));
        found = true;
      }
    }
    if (!found) {
      std::fprintf(stderr, "unknown region: %s\n", name.c_str());
      return false;
    }
    if (comma == std::string::npos) {
      break;
    }
    pos = comma + 1;
  }
  return !out->empty();
}

// Parses all of `text` as a base-10 integer in [min, max]. On failure,
// names the flag and the accepted range on stderr.
bool ParseInt(const char* flag, const char* text, int64_t min, int64_t max, int64_t* out) {
  const char* end = text + std::strlen(text);
  int64_t value = 0;
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end || value < min || value > max) {
    std::fprintf(stderr, "%s expects an integer in [%lld, %lld], got '%s'\n", flag,
                 static_cast<long long>(min), static_cast<long long>(max), text);
    return false;
  }
  *out = value;
  return true;
}

bool Parse(int argc, char** argv, CliOptions* options) {
  constexpr int64_t kIntMax = std::numeric_limits<int>::max();
  constexpr int64_t kInt64Max = std::numeric_limits<int64_t>::max();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      Usage(stdout);
      std::exit(0);
    } else if (arg == "--app") {
      const char* v = next("--app");
      if (v == nullptr) {
        return false;
      }
      options->app = v;
      if (options->app != "social" && options->app != "hotel" && options->app != "forum") {
        std::fprintf(stderr, "unknown app: %s\n", v);
        return false;
      }
    } else if (arg == "--deploy") {
      const char* v = next("--deploy");
      if (v == nullptr) {
        return false;
      }
      options->deploy = v;
      if (options->deploy != "radical" && options->deploy != "baseline" &&
          options->deploy != "ideal") {
        std::fprintf(stderr, "unknown deployment: %s\n", v);
        return false;
      }
    } else if (arg == "--regions") {
      const char* v = next("--regions");
      if (v == nullptr || !ParseRegions(v, &options->run.regions)) {
        return false;
      }
    } else if (arg == "--clients") {
      const char* v = next("--clients");
      int64_t n = 0;
      if (v == nullptr || !ParseInt("--clients", v, 1, kIntMax, &n)) {
        return false;
      }
      options->run.clients_per_region = static_cast<int>(n);
    } else if (arg == "--requests") {
      const char* v = next("--requests");
      int64_t n = 0;
      if (v == nullptr || !ParseInt("--requests", v, 1, kInt64Max, &n)) {
        return false;
      }
      options->run.requests_per_client = static_cast<uint64_t>(n);
    } else if (arg == "--think-ms") {
      const char* v = next("--think-ms");
      int64_t n = 0;
      // Capped so the conversion to virtual microseconds cannot overflow.
      if (v == nullptr || !ParseInt("--think-ms", v, 0, kInt64Max / Millis(1), &n)) {
        return false;
      }
      options->run.think_time = Millis(n);
    } else if (arg == "--seed") {
      const char* v = next("--seed");
      int64_t n = 0;
      if (v == nullptr || !ParseInt("--seed", v, 0, kInt64Max, &n)) {
        return false;
      }
      options->run.seed = static_cast<uint64_t>(n);
    } else if (arg == "--replicated-locks") {
      const char* v = next("--replicated-locks");
      int64_t n = 0;
      if (v == nullptr || !ParseInt("--replicated-locks", v, 0, kIntMax, &n)) {
        return false;
      }
      options->replicated_locks = static_cast<int>(n);
    } else if (arg == "--no-speculation") {
      options->run.config.speculation_enabled = false;
    } else if (arg == "--two-rtt") {
      options->run.config.single_request_commit = false;
    } else if (arg == "--per-function") {
      options->per_function = true;
    } else if (arg == "--per-region") {
      options->per_region = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

// `name` is one of the apps Parse accepts.
AppSpec PickApp(const std::string& name) {
  if (name == "hotel") {
    return MakeHotelApp();
  }
  if (name == "forum") {
    return MakeForumApp();
  }
  return MakeSocialApp();
}

int Run(const CliOptions& options) {
  DeployKind kind = DeployKind::kRadical;
  if (options.deploy == "baseline") {
    kind = DeployKind::kBaseline;
  } else if (options.deploy == "ideal") {
    kind = DeployKind::kIdeal;
  }
  const AppSpec app = PickApp(options.app);

  // The replicated-lock configuration needs a bespoke deployment; everything
  // else goes through the shared harness.
  ExperimentResult result;
  if (options.replicated_locks > 0 && kind == DeployKind::kRadical) {
    Simulator sim(options.run.seed);
    Network net(&sim, LatencyMatrix::PaperDefault());
    RadicalDeployment radical(&sim, &net, options.run.config, options.run.regions,
                              options.replicated_locks);
    app.RegisterAll(&radical);
    app.seed(&radical);
    radical.WarmCaches();
    LoadGeneratorOptions load;
    load.clients_per_region = options.run.clients_per_region;
    load.requests_per_client = options.run.requests_per_client;
    load.think_time = options.run.think_time;
    LoadGenerator generator(&sim, &radical, options.run.regions, app.make_workload(), load);
    generator.Start();
    // Raft heartbeats run forever; drive the simulator until the clients
    // finish, plus a grace period for trailing followups and lock releases.
    while (!generator.finished() && sim.Step()) {
    }
    sim.RunFor(Seconds(10));
    result.overall = generator.Overall().Summarize();
    result.total_requests = generator.total_requests();
    result.validation_success_rate = radical.server().ValidationSuccessRate();
    for (const Region region : options.run.regions) {
      result.per_region[region] = generator.ForRegion(region).Summarize();
    }
    for (const FunctionSpec& fn : app.functions) {
      result.per_function[fn.def.name] = generator.ForFunction(fn.def.name).Summarize();
    }
  } else {
    result = RunApp(app, kind, options.run);
  }

  std::printf("app=%s deploy=%s%s regions=%zu clients=%d x %llu requests seed=%llu\n",
              options.app.c_str(), options.deploy.c_str(),
              options.replicated_locks > 0 ? " (replicated locks)" : "",
              options.run.regions.size(), options.run.clients_per_region,
              static_cast<unsigned long long>(options.run.requests_per_client),
              static_cast<unsigned long long>(options.run.seed));
  std::printf("requests completed: %llu\n",
              static_cast<unsigned long long>(result.total_requests));
  std::printf("latency: p50=%.1fms p90=%.1fms p99=%.1fms mean=%.1fms\n",
              result.overall.p50_ms, result.overall.p90_ms, result.overall.p99_ms,
              result.overall.mean_ms);
  if (kind == DeployKind::kRadical) {
    std::printf("validation success: %.1f%%\n", 100.0 * result.validation_success_rate);
  }
  if (options.per_region) {
    std::printf("\nper region:\n");
    for (const auto& [region, summary] : result.per_region) {
      std::printf("  %-3s p50=%.1fms p99=%.1fms (n=%zu)\n", RegionName(region), summary.p50_ms,
                  summary.p99_ms, summary.count);
    }
  }
  if (options.per_function) {
    std::printf("\nper function:\n");
    for (const auto& [name, summary] : result.per_function) {
      if (summary.count > 0) {
        std::printf("  %-20s p50=%.1fms p99=%.1fms (n=%zu)\n", name.c_str(), summary.p50_ms,
                    summary.p99_ms, summary.count);
      }
    }
  }
  return 0;
}

}  // namespace
}  // namespace radical

int main(int argc, char** argv) {
  radical::CliOptions options;
  if (!radical::Parse(argc, argv, &options)) {
    radical::Usage(stderr);
    return 2;
  }
  return radical::Run(options);
}
