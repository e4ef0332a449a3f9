// audit_1m: the federation audit at a million users.
//
// ScenarioEngine over ParallelScenarioBackend in serial mode: 1M users,
// 16 hosts, 8 bank shards, telemetry attached, and scenario_sweep's
// traffic (diurnal Poisson arrivals, Pareto sizes, a 10x flash crowd) and
// adversary mix (snipers, flooders, replayers). Every epoch the backend
// sweeps the Reconciler and the engine hashes the ledger; both walk every
// account and every applied settlement, so the audit does most of the
// work here and almost none elsewhere. Each epoch ends with price-advice
// queries on every host.
#include <cstdio>

#include "core/grid_market.hpp"
#include "harness.hpp"
#include "scenario/engine.hpp"
#include "scenario/parallel_backend.hpp"

namespace gmb {
namespace {

namespace scn = gm::scenario;

struct Sizes {
  std::uint64_t users = 1'000'000;
  int hosts = 16;
  int shards = 8;
  int epochs = 4;
};

constexpr int kAdviceRepeats = 4;

scn::ScenarioConfig MakeScenario(std::uint64_t seed, const Sizes& sizes) {
  scn::ScenarioConfig config;
  config.seed = seed;
  config.epochs = sizes.epochs;
  config.epoch_duration = 2 * gm::sim::kMinute;
  config.traffic.users = sizes.users;
  config.traffic.base_arrivals_per_sec = 8.0;
  // The flash crowd covers the first half of the third epoch.
  config.traffic.flash_start = 4 * gm::sim::kMinute;
  config.traffic.flash_duration = gm::sim::kMinute;
  config.traffic.flash_multiplier = 10.0;
  config.adversary.snipers = 64;
  config.adversary.snipe_rate_per_sec = 1.0;
  config.adversary.flood_rate_per_sec = 2.0;
  config.adversary.replay_rate_per_sec = 0.5;
  config.slo.enforce_settle_p99 = false;
  config.slo.max_queue_depth = 100'000;
  return config;
}

gm::GridMarket::Config MakeGrid(std::uint64_t seed, int hosts, int shards) {
  gm::GridMarket::Config config;
  config.hosts = hosts;
  config.cpus_per_host = 2;
  config.bank_shards = shards;
  config.telemetry.enabled = true;
  config.seed = seed;
  return config;
}

/// Times the engine's two calls into the backend from outside and checks
/// each epoch's signed reconciliation report. Traced rounds also run a
/// standalone Reconcile and CollectMetrics after each epoch, so the
/// epoch's time can be split into audit, telemetry and runner.
class TimedBackend : public scn::ScenarioBackend {
 public:
  TimedBackend(scn::ParallelScenarioBackend& inner, gm::GridMarket& grid,
               bool traced, Checker& checker)
      : inner_(inner), grid_(grid), traced_(traced), checker_(checker) {}

  void RunEpoch(int epoch, scn::EpochTelemetry& out) override {
    const auto id = static_cast<std::uint64_t>(epoch);
    Timed span("scenario.epoch", id);
    inner_.RunEpoch(epoch, out);
    const double epoch_s = span.Stop();
    epoch_s_.push_back(epoch_s);
    admitted_.push_back(static_cast<double>(out.arrivals +
                                            out.hostile_arrivals));

    const double extra_start = Now();
    {
      Timed verify("bank.verify_report", id);
      const auto report = grid_.reconciler()->LastReport();
      checker_.EqInt("audit.report_conserved",
                     report.ok() && report->conserved ? 1 : 0, 1);
      checker_.EqInt(
          "audit.report_signature_verifies",
          report.ok() && grid_.reconciler()->VerifyReport(*report).ok() ? 1
                                                                        : 0,
          1);
      if (report.ok()) {
        checker_.EqInt("audit.report_totals_balance",
                       (report->total_balances + report->total_holds -
                        report->in_flight)
                           .micros(),
                       report->total_minted.micros());
        applied_.push_back(static_cast<double>(report->applied_settlements));
      }
    }
    checker_.EqInt("audit.replays_refused",
                   static_cast<std::int64_t>(out.replays_rejected),
                   static_cast<std::int64_t>(out.replay_attempts));
    if (traced_) {
      double reconcile_s = 0.0;
      double collect_s = 0.0;
      {
        Timed probe("bank.reconcile", id);
        const auto report = grid_.Reconcile();
        reconcile_s = probe.Stop();
        checker_.EqInt("audit.standalone_sweep_conserved",
                       report.ok() && report->conserved ? 1 : 0, 1);
      }
      {
        Timed probe("telemetry.collect", id);
        const auto metrics = grid_.CollectMetrics();
        collect_s = probe.Stop();
        checker_.EqInt("telemetry.collects", metrics.ok() ? 1 : 0, 1);
      }
      reconcile_s_.push_back(reconcile_s);
      runner_s_.push_back(epoch_s - reconcile_s - collect_s);
    }
    // Each host's query is asked kAdviceRepeats times: at 16 hosts and 4
    // epochs a round, one query each gives too few samples of a ~10 us
    // call for a steady median.
    for (std::size_t h = 0; h < grid_.host_count(); ++h)
      for (int k = 0; k < kAdviceRepeats; ++k)
        advice_.push_back(PriceAdvice(grid_, h, id, checker_));
    extra_s_ += Now() - extra_start;
  }

  std::string LedgerHash() override {
    Timed span("bank.ledger_hash");
    std::string hash = inner_.LedgerHash();
    hash_s_.push_back(span.Stop());
    return hash;
  }

  std::vector<double> epoch_s_, admitted_, applied_, hash_s_;
  std::vector<double> reconcile_s_, runner_s_;  // traced rounds only
  std::vector<AdviceResult> advice_;
  double extra_s_ = 0.0;  // benchmark calls made inside Run

 private:
  scn::ParallelScenarioBackend& inner_;
  gm::GridMarket& grid_;
  const bool traced_;
  Checker& checker_;
};

// The benchmark's own sum of every federation balance and open hold
// against the stakes it minted.
void CheckStakes(gm::GridMarket& grid, std::uint64_t users,
                 const scn::ParallelScenarioBackend::Options& options,
                 Checker& checker) {
  const gm::bank::federation::FederationRouter& fed = *grid.federation();
  gm::Micros total = 0;
  for (std::uint64_t u = 0; u < users; ++u) {
    const auto balance = fed.Balance("scen:u" + std::to_string(u));
    total += balance.ok() ? balance->micros() : 0;
  }
  const auto adversary = fed.Balance("scen:adversary");
  total += adversary.ok() ? adversary->micros() : 0;
  for (std::size_t h = 0; h < grid.host_count(); ++h) {
    const auto host =
        fed.Balance("host:" + grid.auctioneer(h).physical_host().id());
    total += host.ok() ? host->micros() : 0;
  }
  for (std::size_t k = 0; k < fed.num_shards(); ++k)
    for (const auto& hold : fed.shard(k)->OpenHolds())
      total += hold.amount.micros();
  checker.EqInt("audit.balances_and_holds_are_stakes", total,
                options.user_stake.micros() * static_cast<gm::Micros>(users) +
                    options.adversary_stake.micros());
}

// Serial and 2-thread runs of one short scenario must agree bit for bit.
void CheckDeterminism(std::uint64_t seed, Checker& checker) {
  Sizes sizes;
  sizes.users = 20'000;
  sizes.epochs = 3;
  scn::ScenarioConfig config = MakeScenario(seed, sizes);
  config.epoch_duration = gm::sim::kMinute;
  config.traffic.flash_start = gm::sim::kMinute;
  config.traffic.flash_duration = 30 * gm::sim::kSecond;
  const scn::ScenarioEngine engine(config);
  std::string digests[2];
  for (int threaded = 0; threaded < 2; ++threaded) {
    gm::GridMarket grid(MakeGrid(seed, 4, 4));
    scn::ParallelScenarioBackend::Options options;
    options.serial = threaded == 0;
    options.threads = 2;
    scn::ParallelScenarioBackend backend(grid, config, options);
    digests[threaded] = engine.Run(backend).digest + backend.LedgerHash();
  }
  checker.EqStr("audit.serial_matches_2_threads", digests[1], digests[0]);
}

}  // namespace

Outcome RunAudit1m(const Options& options, Checker& checker) {
  Sizes sizes;
  if (options.small) {
    sizes.users = 10'000;
    sizes.hosts = 4;
    sizes.shards = 4;
    sizes.epochs = 2;
  }
  const scn::ScenarioConfig config = MakeScenario(options.seed, sizes);
  const scn::ScenarioEngine engine(config);
  scn::ParallelScenarioBackend::Options backend_options;
  backend_options.serial = true;
  backend_options.threads = 1;

  std::vector<double> setup_s, account_us, jobs_per_s, ticks_per_s;
  std::vector<double> arrivals_per_s, submit_p50, submit_p99, advise_p50;
  std::vector<double> runner_s, applied;
  Outcome outcome;
  outcome.probe_spans = {"bank.reconcile", "telemetry.collect"};
  OpCount& arrivals = outcome.ops["arrivals"];
  OpCount& replays = outcome.ops["replays"];
  OpCount& advice_ops = outcome.ops["advice"];

  const double start = Now();
  for (int round = 0; MoreRounds(options, start, round); ++round) {
    const bool traced = TracedRound(options, round);
    GlobalTracer().set_enabled(false);

    // -- set-up: the market, then the million-account population --
    const double setup_start = Now();
    auto grid = std::make_unique<gm::GridMarket>(
        MakeGrid(options.seed, sizes.hosts, sizes.shards));
    const double population_start = Now();
    auto backend = std::make_unique<scn::ParallelScenarioBackend>(
        *grid, config, backend_options);
    const double setup_end = Now();
    setup_s.push_back(setup_end - setup_start);
    account_us.push_back(1e6 * (setup_end - population_start) /
                         static_cast<double>(sizes.users));

    // -- run phase --
    GlobalTracer().set_enabled(traced);
    TimedBackend timed(*backend, *grid, traced, checker);
    Timed root("run", static_cast<std::uint64_t>(round));
    const scn::ScenarioResult result = engine.Run(timed);
    const double run_wall = root.Stop();
    GlobalTracer().set_enabled(false);
    if (!traced) outcome.untraced_run_s.push_back(run_wall);
    ReportRound(options, round, traced, setup_s.back(), run_wall);
    if (traced) outcome.traced_root = root.index();

    // -- checks and accounting, outside the timed phase --
    std::uint64_t admitted = 0;
    std::uint64_t completions = 0;
    for (const scn::EpochTelemetry& epoch : result.epochs) {
      admitted += epoch.arrivals + epoch.hostile_arrivals;
      completions += epoch.completions;
      arrivals.attempted +=
          epoch.arrivals + epoch.hostile_arrivals + epoch.rejected;
      arrivals.failed += epoch.rejected;
      replays.attempted += epoch.replay_attempts;
      replays.failed += epoch.replay_attempts - epoch.replays_rejected;
    }
    for (const AdviceResult& advice : timed.advice_) {
      ++advice_ops.attempted;
      if (!advice.ok) ++advice_ops.failed;
    }
    checker.EqInt("audit.slo_passes", result.slo.passed ? 1 : 0, 1);
    if (!result.slo.passed)
      std::fprintf(stderr, "%s\n", result.slo.Summary().c_str());

    // Every round replays the same inputs, so the first one is checked.
    if (round == 0) {
      CheckStakes(*grid, sizes.users, backend_options, checker);
      CheckDeterminism(options.seed, checker);
    }

    const double engine_s = run_wall - timed.extra_s_;
    if (traced) {
      // Audit cost per epoch against the settlements it walks.
      for (std::size_t e = 0; e < timed.runner_s_.size(); ++e)
        std::printf(
            "epoch %zu: %8.0f applied settlements, reconcile %8.1f ms, "
            "ledger hash %8.1f ms, runner %8.1f ms\n",
            e, timed.applied_[e], 1e3 * timed.reconcile_s_[e],
            1e3 * timed.hash_s_[e], 1e3 * timed.runner_s_[e]);
      runner_s.insert(runner_s.end(), timed.runner_s_.begin(),
                      timed.runner_s_.end());
      applied.insert(applied.end(), timed.applied_.begin(),
                     timed.applied_.end());
    } else {
      const double rounds_per_epoch =
          static_cast<double>(config.epoch_duration) /
          (10.0 * gm::sim::kSecond);
      double epochs_s = 0.0;
      for (const double s : timed.epoch_s_) epochs_s += s;
      jobs_per_s.push_back(static_cast<double>(completions) / engine_s);
      ticks_per_s.push_back(static_cast<double>(sizes.hosts) *
                            rounds_per_epoch * sizes.epochs / epochs_s);
      arrivals_per_s.push_back(static_cast<double>(admitted) / engine_s);
      std::vector<double> submit_s, advise_s;
      for (std::size_t e = 0; e < timed.epoch_s_.size(); ++e)
        if (timed.admitted_[e] > 0)
          submit_s.push_back(timed.epoch_s_[e] / timed.admitted_[e]);
      for (const AdviceResult& advice : timed.advice_)
        advise_s.push_back(advice.host_stats_s + advice.budget_s +
                           advice.forecast_s);
      submit_p50.push_back(Median(submit_s));
      submit_p99.push_back(Quantile(submit_s, 0.99));
      advise_p50.push_back(Median(advise_s));
    }
    backend.reset();
    grid.reset();
  }

  outcome.end_to_end["setup_s"] = {Median(setup_s), "s"};
  outcome.end_to_end["jobs_per_s"] = {Median(jobs_per_s), "1/s"};
  outcome.end_to_end["submit_ms_p50"] = {1e3 * Median(submit_p50), "ms"};
  outcome.end_to_end["submit_ms_p99"] = {1e3 * Median(submit_p99), "ms"};
  outcome.end_to_end["ticks_per_s"] = {Median(ticks_per_s), "1/s"};
  outcome.end_to_end["advise_ms_p50"] = {1e3 * Median(advise_p50), "ms"};
  outcome.end_to_end["arrivals_per_s"] = {Median(arrivals_per_s), "1/s"};
  outcome.per_layer["host.runner_ms_p50"] = {1e3 * Median(runner_s), "ms"};
  outcome.per_layer["bank.applied_settlements"] = {Median(applied), "count"};
  outcome.per_layer["bank.account_create_us"] = {Median(account_us), "us"};
  return outcome;
}

}  // namespace gmb
