// radical_perfbench: runs one workload for a time budget and prints its
// metrics, ending with one JSON line:
//
//   radical_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                     [--trace-out <spans.json>]
//
// --trace 0 reports the end-to-end metrics from untraced passes, with host
// times in nominal seconds (see kNominalReferenceSeconds). --trace 1
// alternates untraced and traced passes (spans and request traces attached),
// checks that both give identical virtual-time output, runs the host-cost
// replay, and reports the per-layer metrics. Exit status is nonzero when a
// correctness, determinism or environment check fails.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/perfbench.h"
#include "src/obs/json.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0') {
        return false;
      }
    } else if (flag == "--trace") {
      args->trace = value == "0" ? 0 : value == "1" ? 1 : -1;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && args->seconds > 0 && args->trace >= 0 &&
         !args->workload.empty();
}

// Library-level overrides RadicalDeployment reads from the environment; any
// of them would silently change what is measured.
const char* const kOverrides[] = {"RADICAL_SHARDS",          "RADICAL_BATCH_WINDOW_US",
                                  "RADICAL_REPLICATED_SHARDS", "RADICAL_FORCE_SESSIONS",
                                  "RADICAL_SIM_THREADS",     "RADICAL_BENCH_SMOKE"};

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void Add(std::string name, double value, std::string unit) {
    metrics_.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  // Printed for reading only; not part of the JSON result.
  void Note(std::string name, double value, std::string unit) {
    notes_.push_back(Metric{std::move(name), value, std::move(unit)});
  }

  void Print() const {
    for (const Metric& m : metrics_) {
      std::printf("  %-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    for (const Metric& m : notes_) {
      std::printf("  %-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }

  std::string Json(bool correct, uint64_t attempted, uint64_t failed) const {
    radical::obs::JsonWriter w;
    w.BeginObject();
    w.Key("correct");
    w.Bool(correct);
    w.Key("attempted");
    w.Uint(attempted);
    w.Key("failed");
    w.Uint(failed);
    w.Key("metrics");
    w.BeginObject();
    for (const Metric& m : metrics_) {
      w.Key(m.name);
      w.BeginObject();
      w.Key("value");
      w.Double(m.value, 9);
      w.Key("unit");
      w.String(m.unit);
      w.EndObject();
    }
    w.EndObject();
    w.EndObject();
    return w.str();
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<Metric> notes_;
};

// Virtual-time latency of the workload's headline step.
const StepResult& Headline(const Workload& w, const PassResult& pass) {
  return pass.steps[static_cast<size_t>(w.open_loop ? w.headline_step : 0)];
}

// Highest arrival step whose p99 meets the 400 ms limit with every request
// answered; 0 when none does.
constexpr double kSloMs = 400.0;

double MaxRpsUnderSlo(const PassResult& pass) {
  double best = 0;
  for (const StepResult& s : pass.steps) {
    if (s.failed == 0 && s.latency.PercentileMs(99) <= kSloMs) {
      best = std::max(best, static_cast<double>(s.rps));
    }
  }
  return best;
}

double P99AtRate(const PassResult& pass, int rps) {
  for (const StepResult& s : pass.steps) {
    if (s.rps == rps) {
      return s.latency.PercentileMs(99);
    }
  }
  return 0;
}

}  // namespace

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: radical_perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <path>]\n");
    return 2;
  }
  for (const char* var : kOverrides) {
    const char* value = std::getenv(var);
    if (value != nullptr && value[0] != '\0') {
      std::fprintf(stderr, "perfbench: refusing to run with %s=%s set in the environment\n", var,
                   value);
      return 3;
    }
  }
  const Workload* workload = FindWorkload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'; known:", args.workload.c_str());
    for (const Workload& w : AllWorkloads()) {
      std::fprintf(stderr, " %s", w.name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  const bool traced = args.trace == 1;
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n", workload->name.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace);
  std::fflush(stdout);

  // --- Passes ------------------------------------------------------------------
  const Clock::time_point start = Clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  // A traced run keeps a quarter of its budget for the host-cost replay.
  const double pass_budget = traced ? args.seconds * 0.75 : args.seconds;
  // Set-up alone takes milliseconds, so it is repeated on its own for a steady
  // median, between two reference samples that convert it to nominal seconds.
  constexpr int kSetUps = 15;
  const AppSpec app = MakeApp(*workload);
  const double reference_before_set_up = ReferenceSeconds();
  std::vector<StepResult> set_ups(kSetUps);
  for (StepResult& s : set_ups) {
    BuildWorld(*workload, app, args.seed, &s);
  }
  const double set_up_to_nominal =
      kNominalReferenceSeconds / ((reference_before_set_up + ReferenceSeconds()) / 2);
  std::vector<PassResult> plain;
  std::vector<PassResult> with_trace;
  double longest_pass = 0;
  double peak_rss_mb = 0;
  for (;;) {
    const bool take_traced = traced && with_trace.size() < plain.size();
    PassOptions options;
    options.seed = args.seed;
    options.traced = take_traced;
    if (take_traced && with_trace.empty()) {
      options.trace_path = args.trace_out;
      options.replay_sample = 5000;
    }
    const double before = elapsed();
    PassResult pass = RunPass(*workload, options);
    longest_pass = std::max(longest_pass, elapsed() - before);
    (take_traced ? with_trace : plain).push_back(std::move(pass));
    if (plain.size() == 1 && with_trace.empty()) {
      // Later passes reuse a heap the first one grew, so the peak is read
      // after one pass of the workload.
      peak_rss_mb = PeakRssMb();
    }
    const bool enough = traced ? !with_trace.empty() : plain.size() >= 2;
    if (enough && elapsed() + longest_pass > pass_budget) {
      break;
    }
  }

  // --- Checks -------------------------------------------------------------------
  std::vector<std::string> problems;
  const PassResult& first = plain.front();
  for (const StepResult& s : first.steps) {
    for (const std::string& v : s.violations) {
      problems.push_back("invariant: " + v);
    }
  }
  if (first.FailedCount() > 0) {
    problems.push_back("fault-free workload failed " + std::to_string(first.FailedCount()) +
                       " requests");
  }
  for (size_t i = 1; i < plain.size(); ++i) {
    if (plain[i].Digest() != first.Digest()) {
      problems.push_back("determinism: untraced pass " + std::to_string(i) +
                         " differs from pass 0 at the same seed");
    }
  }
  for (size_t i = 0; i < with_trace.size(); ++i) {
    if (with_trace[i].Digest() != first.Digest()) {
      problems.push_back("determinism: traced pass " + std::to_string(i) +
                         " differs from the untraced run");
    }
  }

  // --- Metrics ------------------------------------------------------------------
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> setup_s;
  std::vector<double> register_ms;
  std::vector<double> seed_warm_ms;
  std::vector<double> req_per_s;
  std::vector<double> req_per_nominal_s;
  std::vector<double> reference_s;
  std::vector<double> plain_wall;
  for (const StepResult& s : set_ups) {
    setup_s.push_back(s.setup_s);
    register_ms.push_back(s.register_ms);
    seed_warm_ms.push_back(s.seed_warm_ms);
  }
  for (const PassResult& p : plain) {
    attempted += p.IssuedCount();
    failed += p.FailedCount();
    req_per_s.push_back(Ratio(static_cast<double>(p.IssuedCount()), p.RunWallSeconds()));
    req_per_nominal_s.push_back(
        Ratio(static_cast<double>(p.IssuedCount()), p.RunNominalSeconds()));
    for (const StepResult& s : p.steps) {
      reference_s.insert(reference_s.end(), s.reference_s.begin(), s.reference_s.end());
    }
    plain_wall.push_back(p.RunWallSeconds());
  }
  const double host_req_per_wall_s = Median(req_per_s);
  const StepResult& headline = Headline(*workload, first);
  const LatencySampler& latency = headline.latency;

  Report report;
  if (!traced) {
    // Host times in nominal seconds (kNominalReferenceSeconds).
    report.Add("setup_s", Median(setup_s) * set_up_to_nominal, "s");
    report.Add("host_req_per_s", Median(req_per_nominal_s), "1/s");
    report.Add("peak_rss_mb", peak_rss_mb, "MB");
    report.Add("mean_ms", latency.MeanMs(), "ms");
    report.Add("p99_ms", latency.PercentileMs(99), "ms");
    report.Add("p999_ms", latency.PercentileMs(99.9), "ms");
    // Printed only: the median request's latency is pure function compute
    // and reads the same for every seed (perfbench/README.md).
    report.Note("p50_ms", latency.PercentileMs(50), "ms");
    report.Note("setup_wall_s", Median(setup_s), "s");
    report.Note("host_req_per_wall_s", host_req_per_wall_s, "1/s");
    report.Note("reference_ms", Median(reference_s) * 1e3, "ms");
    report.Note("fail_pct",
                100.0 * Ratio(static_cast<double>(first.FailedCount()),
                              static_cast<double>(first.IssuedCount())),
                "%");
    report.Note("latency_samples", static_cast<double>(latency.count()), "count");
    report.Note("passes", static_cast<double>(plain.size()), "count");
    if (workload->open_loop && workload->steps_rps.size() > 1) {
      report.Note("p99_ms.r600", P99AtRate(first, 600), "ms");
      report.Note("p99_ms.r660", P99AtRate(first, 660), "ms");
      report.Note("max_rps_under_slo", MaxRpsUnderSlo(first), "1/s");
    }
    if (workload->open_loop) {
      // Arrivals fire at their due instants in virtual time.
      report.Note("generator_lateness_ms", 0.0, "ms");
    }
  } else {
    const PassResult& t = with_trace.front();
    const LayerCounts c = t.Counts();
    const TraceAggregate& agg = t.trace;
    const LayerCosts costs = ReplayLayerCosts(*workload, args.seed, t.sample);
    const double r = static_cast<double>(c.requests);
    const auto per_req = [r](uint64_t n) { return Ratio(static_cast<double>(n), r); };
    const auto pct = [](uint64_t num, uint64_t den) {
      return 100.0 * Ratio(static_cast<double>(num), static_cast<double>(den));
    };
    const auto mean_ms = [&agg](double total_us) {
      return Ratio(total_us, static_cast<double>(agg.traces)) / 1e3;
    };
    const uint64_t execs = c.speculations + c.backups + c.reexecutions + c.direct_execs;
    const bool raft = workload->replicated_locks > 0;

    report.Add("sim.events_per_req", per_req(c.events), "count");
    report.Add("sim.host_ns_per_event", costs.sim_ns_per_event, "ns");
    report.Add("net.msgs_per_req", per_req(c.messages), "count");
    report.Add("net.wan_bytes_per_req", per_req(c.wan_bytes), "B");
    report.Add("net.host_ns_encode", costs.net_ns_encode, "ns");
    report.Add("net.host_ns_decode", costs.net_ns_decode, "ns");
    report.Add("func.execs_per_req", per_req(execs), "count");
    report.Add("func.host_us_per_exec", costs.func_us_per_exec, "us");
    report.Add("analysis.host_us_per_predict", costs.analysis_us_per_predict, "us");
    report.Add("analysis.register_ms", Median(register_ms), "ms");
    report.Add("analysis.unanalyzable_pct", pct(c.unanalyzable, c.requests), "%");
    report.Add("kv.cache_hit_pct", pct(c.cache_hits, c.cache_hits + c.cache_misses), "%");
    report.Add("kv.primary_ops_per_req", per_req(c.primary_reads + c.primary_writes), "count");
    report.Add("kv.host_ns_get", costs.kv_ns_get, "ns");
    report.Add("kv.host_ns_put", costs.kv_ns_put, "ns");
    report.Add("kv.seed_warm_ms", Median(seed_warm_ms), "ms");
    report.Add("lvi.validation_ok_pct", pct(c.validate_ok, c.validate_ok + c.validate_fail), "%");
    report.Add("lvi.lock_waits_per_1k", 1e3 * per_req(c.lock_waits), "count");
    report.Add("lvi.lock_wait_ms.p99", agg.lock_wait.PercentileMs(99), "ms");
    report.Add("lvi.backup_exec_ms.p99", agg.backup_exec.PercentileMs(99), "ms");
    report.Add("lvi.admission_wait_ms.p99", agg.admission.PercentileMs(99), "ms");
    report.Add("lvi.queued_arrivals_per_req", per_req(c.queued_arrivals), "count");
    report.Add("lvi.validate_ms.mean", agg.validate.MeanMs(), "ms");
    report.Add("lvi.intent_write_ms.mean", agg.intent_write.MeanMs(), "ms");
    report.Add("lvi.host_ns_lock_cycle", costs.lvi_ns_lock_cycle, "ns");
    report.Add("raft.commits_per_req", per_req(c.raft_commits), "count");
    // With replicated locks the server's lock-wait span is the Raft grant.
    report.Add("raft.lock_grant_ms.p50", raft ? agg.lock_wait.PercentileMs(50) : 0.0, "ms");
    report.Add("raft.lock_grant_ms.p99", raft ? agg.lock_wait.PercentileMs(99) : 0.0, "ms");
    report.Add("raft.terms", static_cast<double>(c.raft_terms), "count");
    report.Add("raft.acquire_resubmits", static_cast<double>(c.acquire_resubmits), "count");
    report.Add("radical.instantiation_ms", mean_ms(agg.instantiation_us), "ms");
    report.Add("radical.frw_ms", mean_ms(agg.frw_us), "ms");
    report.Add("radical.overlap_ms", mean_ms(agg.overlap_us), "ms");
    report.Add("radical.completion_ms", mean_ms(agg.completion_us), "ms");
    report.Add("radical.lvi_stall_ms", mean_ms(agg.lvi_stall_us), "ms");
    report.Add("radical.retries_per_1k", 1e3 * per_req(c.retries), "count");
    report.Add("radical.host_us_submit", costs.radical_us_submit, "us");
    report.Add("obs.counter_incs_per_req", per_req(c.counter_incs), "count");
    report.Add("obs.host_ns_per_inc", costs.obs_ns_per_inc, "ns");

    // Host µs per request, measured untraced, against the sum of the layer
    // estimates (cost per operation times operations per request).
    const double measured_us = Ratio(1e6, host_req_per_wall_s);
    const double estimated_us =
        per_req(c.events) * costs.sim_ns_per_event / 1e3 +
        per_req(c.wan_messages) * (costs.net_ns_encode + costs.net_ns_decode) / 1e3 +
        per_req(execs) * costs.func_us_per_exec +
        per_req(c.predicts) * costs.analysis_us_per_predict +
        (per_req(c.primary_reads) * costs.kv_ns_get +
         per_req(c.primary_writes) * costs.kv_ns_put) / 1e3 +
        per_req(c.lock_acquisitions) * costs.lvi_ns_lock_cycle / 1e3 +
        per_req(c.counter_incs) * costs.obs_ns_per_inc / 1e3 + costs.radical_us_submit;
    report.Add("host.unattributed_us_per_req", measured_us - estimated_us, "us");
    std::vector<double> traced_wall;
    for (const PassResult& p : with_trace) {
      traced_wall.push_back(p.RunWallSeconds());
    }
    report.Add("trace_overhead_pct", 100.0 * (Ratio(Median(traced_wall), Median(plain_wall)) - 1),
               "%");
    // The §5.5 components sum to the mean end-to-end latency.
    report.Note("radical.total_ms", mean_ms(agg.total_us), "ms");
    report.Note("host.measured_us_per_req", measured_us, "us");
    report.Note("spans", static_cast<double>(agg.spans), "count");
    report.Note("traced_passes", static_cast<double>(with_trace.size()), "count");
    report.Note("untraced_passes", static_cast<double>(plain.size()), "count");
    report.Note("peak_rss_mb", PeakRssMb(), "MB");
    const double parts = agg.instantiation_us + agg.frw_us + agg.overlap_us + agg.completion_us;
    if (agg.traces != first.IssuedCount() || parts != agg.total_us) {
      problems.push_back("trace: §5.5 components do not cover every request exactly");
    }
  }

  for (const std::string& p : problems) {
    std::printf("  FAIL %s\n", p.c_str());
  }
  report.Print();
  const bool correct = problems.empty();
  std::printf("%s\n", report.Json(correct, attempted, failed).c_str());
  return correct ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
