// GridMarket benchmark: command-line entry point.
//
//   gmbench --workload paper_jobs|busy_market|audit_1m --seed N
//           --seconds S --trace 0|1 [--out-dir DIR]
//   gmbench --self-test
//
// Each workload runs whole rounds, each on a freshly set-up system, until
// S seconds have passed, then checks its outputs and prints one JSON line
// last: {"correct", "attempted", "failed", "metrics"}. --trace 1 alternates
// untraced and traced rounds: the traced ones record spans around every
// layer call, print a self-time table and the tracing overhead, write the
// spans as JSONL under DIR and report the per-layer metrics instead of the
// end-to-end ones. --self-test runs every workload at a small size twice,
// once as is and once against deliberately wrong expectations, and fails
// unless each check passes the first time and fires the second.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/log.hpp"
#include "harness.hpp"

namespace gmb {
namespace {

// Every run reports every metric of its mode; a workload that does not
// enter a layer reports that layer's figure as 0.
const char* const kEndToEnd[][2] = {
    {"setup_s", "s"},          {"peak_rss_mb", "MB"},
    {"jobs_per_s", "1/s"},     {"submit_ms_p50", "ms"},
    {"submit_ms_p99", "ms"},   {"ticks_per_s", "1/s"},
    {"advise_ms_p50", "ms"},   {"arrivals_per_s", "1/s"},
};

const char* const kPerLayer[][2] = {
    {"core.pay_broker_ms_p50", "ms"},
    {"grid.broker_submit_ms_p50", "ms"},
    {"sim.run_s", "s"},
    {"store.journal_bytes", "bytes"},
    {"grid.xrsl_parse_us_p50", "us"},
    {"crypto.token_verify_us_p50", "us"},
    {"bank.verify_receipt_us_p50", "us"},
    {"market.sls_query_us_p50", "us"},
    {"bestresponse.solve_us_p50", "us"},
    {"market.vm_tick_ns", "ns"},
    {"market.set_bid_ns", "ns"},
    {"telemetry.collect_ms_p50", "ms"},
    {"predict.host_stats_us_p50", "us"},
    {"predict.normal_budget_us_p50", "us"},
    {"predict.ar_forecast_ms_p50", "ms"},
    {"scenario.epoch_ms_p50", "ms"},
    {"bank.ledger_hash_ms_p50", "ms"},
    {"bank.reconcile_ms_p50", "ms"},
    {"host.runner_ms_p50", "ms"},
    {"bank.applied_settlements", "count"},
    {"bank.account_create_us", "us"},
};

// Per-layer "<span>_ms_p50" / "<span>_us_p50" figures a workload does not
// set itself are the median duration of that span over its traced rounds.
void FillSpanMedians(Outcome& outcome) {
  for (const auto& entry : kPerLayer) {
    const std::string name = entry[0];
    if (outcome.per_layer.count(name) != 0) continue;
    for (const auto& [suffix, scale] :
         {std::pair<const char*, double>{"_ms_p50", 1e3},
          std::pair<const char*, double>{"_us_p50", 1e6}}) {
      const std::string tail = suffix;
      if (name.size() <= tail.size() ||
          name.compare(name.size() - tail.size(), tail.size(), tail) != 0)
        continue;
      const auto durations =
          GlobalTracer().Durations(name.substr(0, name.size() - tail.size()));
      if (!durations.empty())
        outcome.per_layer[name] = {scale * Median(durations), entry[1]};
    }
  }
}

Outcome RunWorkload(const Options& options, Checker& checker, bool* known) {
  *known = true;
  if (options.workload == "paper_jobs") return RunPaperJobs(options, checker);
  if (options.workload == "busy_market")
    return RunBusyMarket(options, checker);
  if (options.workload == "audit_1m") return RunAudit1m(options, checker);
  *known = false;
  return {};
}

void PrintTraceReport(const Options& options, const Outcome& outcome) {
  const Tracer& tracer = GlobalTracer();
  if (outcome.traced_root < 0) return;
  const Tracer::Span& root =
      tracer.spans()[static_cast<std::size_t>(outcome.traced_root)];
  const double wall = root.end - root.start;
  const auto self = tracer.SelfTimes(outcome.traced_root);
  std::printf("\nper-layer self time, traced round (run phase %.3f s):\n",
              wall);
  std::printf("  %-28s %12s %8s\n", "span", "self_s", "share");
  for (const auto& [name, seconds] : self)
    std::printf("  %-28s %12.6f %7.2f%%\n", name.c_str(), seconds,
                100.0 * seconds / wall);
  const auto root_self = self.find(root.name);
  const double attributed =
      1.0 - (root_self == self.end() ? 0.0 : root_self->second / wall);
  std::printf("  attributed to layer spans: %.2f%%\n", 100.0 * attributed);
  double probes = 0.0;
  for (const std::string& name : outcome.probe_spans) {
    const auto it = self.find(name);
    if (it != self.end()) probes += it->second;
  }
  const double untraced = Median(outcome.untraced_run_s);
  std::printf(
      "  tracing overhead: %+.2f%% (this round less its standalone layer "
      "calls, %.3f s, against the median of %zu untraced rounds, %.3f s)\n",
      100.0 * ((wall - probes) / untraced - 1.0), probes,
      outcome.untraced_run_s.size(), untraced);
  const std::string path = options.out_dir + "/spans-" + options.workload +
                           "-seed" + std::to_string(options.seed) + ".jsonl";
  if (tracer.WriteJsonl(path))
    std::printf("  spans: %zu written to %s\n", tracer.spans().size(),
                path.c_str());
}

int RunOnce(const Options& options) {
  Checker checker(options.inject);
  bool known = false;
  Outcome outcome = RunWorkload(options, checker, &known);
  if (!known) {
    std::fprintf(stderr, "unknown workload: %s\n", options.workload.c_str());
    return 2;
  }
  outcome.end_to_end["peak_rss_mb"] = {PeakRssMb(), "MB"};
  const bool correct = checker.ok();

  std::printf("\nworkload %s seed %llu: %s\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              correct ? "outputs correct" : "OUTPUTS WRONG");
  for (const auto& [name, counts] : checker.counts())
    std::printf("  check %-36s evaluated %8llu failed %llu\n", name.c_str(),
                static_cast<unsigned long long>(counts.first),
                static_cast<unsigned long long>(counts.second));
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const auto& [kind, op] : outcome.ops) {
    std::printf("  ops %-20s attempted %8llu failed %llu\n", kind.c_str(),
                static_cast<unsigned long long>(op.attempted),
                static_cast<unsigned long long>(op.failed));
    attempted += op.attempted;
    failed += op.failed;
  }
  if (options.trace) {
    PrintTraceReport(options, outcome);
    FillSpanMedians(outcome);
  }

  const auto& names = options.trace ? kPerLayer : kEndToEnd;
  const std::size_t count = options.trace ? std::size(kPerLayer)
                                          : std::size(kEndToEnd);
  auto& values = options.trace ? outcome.per_layer : outcome.end_to_end;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  std::printf("\nmetrics:\n");
  for (std::size_t i = 0; i < count; ++i) {
    const char* name = names[i][0];
    const char* unit = names[i][1];
    const auto it = values.find(name);
    const double value = it == values.end() ? 0.0 : it->second.value;
    std::printf("  %-30s %18.9g %s\n", name, value, unit);
    char entry[256];
    std::snprintf(entry, sizeof entry,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", name, value, unit);
    json += entry;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

int SelfTest(const Options& base) {
  int status = 0;
  for (const char* workload : {"paper_jobs", "busy_market", "audit_1m"}) {
    Options options = base;
    options.workload = workload;
    options.small = true;
    // One untraced and one traced round: every check runs.
    options.trace = true;

    Checker clean(false);
    bool known = false;
    (void)RunWorkload(options, clean, &known);
    std::printf("self-test %s: clean run %s (%llu checks)\n", workload,
                clean.ok() ? "passes" : "FAILS",
                static_cast<unsigned long long>(clean.counts().size()));
    if (!clean.ok()) status = 1;

    options.inject = true;
    Checker injected(true);
    (void)RunWorkload(options, injected, &known);
    for (const auto& [name, counts] : clean.counts()) {
      const auto it = injected.counts().find(name);
      const bool fired = it != injected.counts().end() && it->second.second > 0;
      std::printf("  %-36s %s\n", name.c_str(),
                  fired ? "fires on a wrong expectation" : "DID NOT FIRE");
      if (!fired) status = 1;
    }
  }
  std::printf("self-test: %s\n", status == 0 ? "PASS" : "FAIL");
  return status;
}

}  // namespace
}  // namespace gmb

int main(int argc, char** argv) {
  gmb::Options options;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--self-test") {
      self_test = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--out-dir" && has_value) {
      options.out_dir = argv[++i];
    } else {
      std::fprintf(stderr, "usage: gmbench --workload W --seed N --seconds S "
                           "--trace 0|1 [--out-dir DIR] | --self-test\n");
      return 2;
    }
  }
  // Quiet during timed phases: a log line costs more than most layers.
  gm::Logger::Instance().set_level(gm::LogLevel::kOff);
  (void)gmb::Now();
  if (self_test) return gmb::SelfTest(options);
  if (options.workload.empty()) {
    std::fprintf(stderr, "--workload is required\n");
    return 2;
  }
  return gmb::RunOnce(options);
}
