// busy_market: a Tycoon market with no Grid jobs and telemetry attached.
//
// 64 hosts carry 60 background tenants each, set up the way
// workload::BackgroundLoad does it: a host-local account, a standing bid
// at a log-uniform rate and an always-busy VM (here fed an endless
// stream of finite tasks, so completed tasks can be counted). Every 10
// sim-minutes a quarter of each host's tenants re-bid; every sim-hour the
// benchmark collects telemetry and asks price advice once per host. The
// auction tick's per-VM loop, the proportional share, price history,
// window statistics and predict/math do the work; crypto, bank and audit
// do none.
#include <cmath>
#include <random>

#include "core/grid_market.hpp"
#include "harness.hpp"

namespace gmb {
namespace {

struct Sizes {
  int hosts = 64;
  int tenants = 60;  // per host
  int run_hours = 6;
};

constexpr double kMinRatePerHour = 0.05;
constexpr double kMaxRatePerHour = 10.0;
constexpr gm::Cycles kTaskCycles = 2e10;
constexpr gm::sim::SimTime kForever = 1000 * gm::sim::kDay;

/// Keeps a VM busy: each finished task enqueues the next one.
struct Feeder {
  gm::host::VirtualMachine* vm;
  void operator()(gm::sim::SimTime) const {
    vm->Enqueue({0, kTaskCycles, *this});
  }
};

struct Tenant {
  std::string name;
  gm::Micros rate = 0;        // micro-dollars per second, as bid
  gm::sim::SimTime since = 0; // when the current bid was placed
  gm::Micros bid_cost = 0;    // sum of rate * seconds held, closed bids
  gm::host::VirtualMachine* vm = nullptr;
};

gm::Micros DrawRate(std::mt19937_64& rng) {
  std::uniform_real_distribution<double> log_rate(std::log(kMinRatePerHour),
                                                  std::log(kMaxRatePerHour));
  const double per_hour = std::exp(log_rate(rng));
  return std::max<gm::Micros>(1, gm::DollarsToMicros(per_hour) / 3600);
}

gm::GridMarket::Config MakeConfig(std::uint64_t seed, const Sizes& sizes) {
  gm::GridMarket::Config config;
  config.hosts = sizes.hosts;
  config.cpus_per_host = 2;
  config.max_vms_per_host = sizes.tenants + 4;
  config.telemetry.enabled = true;
  config.seed = seed;
  return config;
}

// The auctioneer's smoothed window moments (paper Section 4.5), computed
// apart from the program from its raw price history.
void OwnMoments(const gm::market::PriceHistory& history, std::size_t n,
                double* mean, double* stddev) {
  const double alpha = 1.0 - 1.0 / static_cast<double>(n);
  double m1 = 0.0;
  double m2 = 0.0;
  for (std::size_t i = 0; i < history.size(); ++i) {
    const double x = history.at(i).price;
    if (i == 0) {
      m1 = x;
      m2 = x * x;
    } else {
      m1 = alpha * m1 + (1.0 - alpha) * x;
      m2 = alpha * m2 + (1.0 - alpha) * x * x;
    }
  }
  *mean = m1;
  *stddev = std::sqrt(std::max(0.0, m2 - m1 * m1));
}

}  // namespace

Outcome RunBusyMarket(const Options& options, Checker& checker) {
  Sizes sizes;
  if (options.small) {
    sizes.hosts = 4;
    sizes.tenants = 12;
    sizes.run_hours = 2;
  }
  const gm::Money funding = gm::Money::Dollars(kMaxRatePerHour * 48);
  const gm::sim::SimDuration kRebidEvery = gm::sim::Minutes(10);
  const int rebid_per_host = sizes.tenants / 4;

  std::vector<double> setup_s, jobs_per_s, ticks_per_s, arrivals_per_s;
  std::vector<double> submit_p50, submit_p99, advise_p50;
  std::vector<double> run_s, vm_tick_ns, set_bid_ns;
  Outcome outcome;
  OpCount& rebids = outcome.ops["rebids"];
  OpCount& advice_ops = outcome.ops["advice"];

  const double start = Now();
  for (int round = 0; MoreRounds(options, start, round); ++round) {
    const bool traced = TracedRound(options, round);
    GlobalTracer().set_enabled(false);
    // Same seed, same inputs: every round replays the same market.
    std::mt19937_64 rng(options.seed);

    // -- set-up: construction, tenant funding, two warm-up sim-hours --
    const double setup_start = Now();
    auto grid = std::make_unique<gm::GridMarket>(
        MakeConfig(options.seed, sizes));
    std::vector<std::vector<Tenant>> tenants(
        static_cast<std::size_t>(sizes.hosts));
    for (int h = 0; h < sizes.hosts; ++h) {
      gm::market::Auctioneer& auctioneer =
          grid->auctioneer(static_cast<std::size_t>(h));
      for (int t = 0; t < sizes.tenants; ++t) {
        Tenant tenant;
        tenant.name = "bg-" + std::to_string(h) + "-" + std::to_string(t);
        tenant.rate = DrawRate(rng);
        tenant.since = grid->now();
        bool ok = auctioneer.OpenAccount(tenant.name).ok() &&
                  auctioneer.Fund(tenant.name, funding).ok() &&
                  auctioneer
                      .SetBid(tenant.name,
                              gm::Rate::MicrosPerSec(tenant.rate), kForever)
                      .ok();
        auto vm = auctioneer.AcquireVm(tenant.name);
        ok = ok && vm.ok();
        checker.EqInt("setup.tenant", ok ? 1 : 0, 1);
        if (vm.ok()) {
          tenant.vm = *vm;
          Feeder{tenant.vm}(0);
        }
        tenants[static_cast<std::size_t>(h)].push_back(std::move(tenant));
      }
    }
    grid->RunFor(gm::sim::Hours(2));
    setup_s.push_back(Now() - setup_start);

    std::uint64_t tasks_before = 0;
    for (const auto& host : tenants)
      for (const Tenant& tenant : host)
        if (tenant.vm != nullptr) tasks_before += tenant.vm->completed_items();

    // -- run phase --
    GlobalTracer().set_enabled(traced);
    const gm::sim::SimTime t0 = grid->now();
    double round_sim = 0.0;
    std::uint64_t round_rebids = 0;
    std::vector<double> set_bid_s, advise_s;
    std::uniform_int_distribution<int> pick(0, sizes.tenants - 1);
    std::vector<Tenant*> picks(static_cast<std::size_t>(rebid_per_host));
    std::vector<gm::Micros> rates(picks.size());
    std::vector<gm::Status> statuses(picks.size());
    Timed root("run", static_cast<std::uint64_t>(round));
    const int batches = sizes.run_hours * 6;
    for (int batch = 1; batch <= batches; ++batch) {
      {
        Timed span("sim.run", static_cast<std::uint64_t>(batch));
        grid->RunFor(kRebidEvery);
        round_sim += span.Stop();
      }
      const gm::sim::SimTime now = grid->now();
      for (int h = 0; h < sizes.hosts; ++h) {
        gm::market::Auctioneer& auctioneer =
            grid->auctioneer(static_cast<std::size_t>(h));
        auto& host_tenants = tenants[static_cast<std::size_t>(h)];
        // Picks and rates are drawn before the span and the bookkeeping is
        // done after it, so the span holds nothing but the SetBid calls.
        for (int k = 0; k < rebid_per_host; ++k) {
          picks[static_cast<std::size_t>(k)] =
              &host_tenants[static_cast<std::size_t>(pick(rng))];
          rates[static_cast<std::size_t>(k)] = DrawRate(rng);
        }
        Timed span("market.set_bid", static_cast<std::uint64_t>(h));
        for (int k = 0; k < rebid_per_host; ++k) {
          const auto i = static_cast<std::size_t>(k);
          statuses[i] = auctioneer.SetBid(
              picks[i]->name, gm::Rate::MicrosPerSec(rates[i]), kForever);
        }
        // One clock read pair per batch: a single SetBid is too short to
        // time alone.
        const double batch_s = span.Stop();
        if (traced)
          set_bid_ns.push_back(1e9 * batch_s / rebid_per_host);
        else
          set_bid_s.push_back(batch_s / rebid_per_host);
        for (int k = 0; k < rebid_per_host; ++k) {
          const auto i = static_cast<std::size_t>(k);
          ++rebids.attempted;
          ++round_rebids;
          if (!statuses[i].ok()) {
            ++rebids.failed;
            continue;
          }
          Tenant& tenant = *picks[i];
          tenant.bid_cost += tenant.rate * ((now - tenant.since) /
                                            gm::sim::kSecond);
          tenant.rate = rates[i];
          tenant.since = now;
        }
      }
      if (batch % 6 != 0) continue;
      {
        Timed span("telemetry.collect", static_cast<std::uint64_t>(batch));
        const auto metrics = grid->CollectMetrics();
        checker.EqInt("telemetry.collects", metrics.ok() ? 1 : 0, 1);
      }
      for (int h = 0; h < sizes.hosts; ++h) {
        const AdviceResult advice = PriceAdvice(
            *grid, static_cast<std::size_t>(h),
            static_cast<std::uint64_t>(batch * 1000 + h), checker);
        ++advice_ops.attempted;
        if (!advice.ok) ++advice_ops.failed;
        if (!traced)
          advise_s.push_back(advice.host_stats_s + advice.budget_s +
                             advice.forecast_s);
      }
    }
    const double run_wall = root.Stop();
    GlobalTracer().set_enabled(false);
    if (!traced) outcome.untraced_run_s.push_back(run_wall);
    ReportRound(options, round, traced, setup_s.back(), run_wall);
    if (traced) outcome.traced_root = root.index();

    // -- checks, outside the timed phase --
    const gm::sim::SimTime end = grid->now();
    std::uint64_t tasks = 0;
    std::uint64_t busy_vms = 0;
    for (int h = 0; h < sizes.hosts; ++h) {
      gm::market::Auctioneer& auctioneer =
          grid->auctioneer(static_cast<std::size_t>(h));
      gm::Micros bid_sum = 0;
      gm::Micros balances_and_spend = 0;
      for (const Tenant& tenant : tenants[static_cast<std::size_t>(h)]) {
        bid_sum += tenant.rate;
        const auto balance = auctioneer.Balance(tenant.name);
        const auto spent = auctioneer.Spent(tenant.name);
        if (!balance.ok() || !spent.ok()) continue;
        balances_and_spend += balance->micros() + spent->micros();
        const gm::Micros bound =
            tenant.bid_cost +
            tenant.rate * ((end - tenant.since) / gm::sim::kSecond);
        checker.Le("market.spend_within_bids", spent->micros(), bound);
        if (tenant.vm != nullptr) {
          tasks += tenant.vm->completed_items();
          if (tenant.vm->HasWork()) ++busy_vms;
        }
      }
      checker.EqInt("market.spot_price_is_bid_sum",
                    auctioneer.SpotPriceRate().micros_per_sec(), bid_sum);
      checker.EqInt("market.balances_plus_spend_is_funding",
                    balances_and_spend,
                    funding.micros() *
                        static_cast<gm::Micros>(sizes.tenants));
    }
    const auto stats = grid->HostPriceStats("hour");
    for (int h = 0; h < sizes.hosts && stats.ok(); ++h) {
      const gm::market::Auctioneer& auctioneer =
          grid->auctioneer(static_cast<std::size_t>(h));
      double mean = 0.0;
      double stddev = 0.0;
      OwnMoments(auctioneer.history(), 360, &mean, &stddev);
      const double scale = auctioneer.physical_host().TotalCapacity();
      const auto& host_stats = (*stats)[static_cast<std::size_t>(h)];
      checker.Near("predict.host_stats_mean", host_stats.mean_price,
                   mean * scale, 1e-9);
      checker.Near("predict.host_stats_stddev", host_stats.stddev_price,
                   stddev * scale, 1e-6);
    }
    checker.EqInt("market.every_vm_busy", static_cast<std::int64_t>(busy_vms),
                  sizes.hosts * sizes.tenants);

    const double host_ticks =
        static_cast<double>(sizes.hosts) *
        static_cast<double>(end - t0) / (10.0 * gm::sim::kSecond);
    if (traced) {
      run_s.push_back(round_sim);
      vm_tick_ns.push_back(1e9 * round_sim /
                           (host_ticks * static_cast<double>(busy_vms) /
                            sizes.hosts));
    } else {
      jobs_per_s.push_back(static_cast<double>(tasks - tasks_before) /
                           run_wall);
      submit_p50.push_back(Median(set_bid_s));
      submit_p99.push_back(Quantile(set_bid_s, 0.99));
      advise_p50.push_back(Median(advise_s));
      ticks_per_s.push_back(host_ticks / round_sim);
      arrivals_per_s.push_back(static_cast<double>(round_rebids) / run_wall);
    }
    grid.reset();
  }

  outcome.end_to_end["setup_s"] = {Median(setup_s), "s"};
  outcome.end_to_end["jobs_per_s"] = {Median(jobs_per_s), "1/s"};
  outcome.end_to_end["submit_ms_p50"] = {1e3 * Median(submit_p50), "ms"};
  outcome.end_to_end["submit_ms_p99"] = {1e3 * Median(submit_p99), "ms"};
  outcome.end_to_end["ticks_per_s"] = {Median(ticks_per_s), "1/s"};
  outcome.end_to_end["advise_ms_p50"] = {1e3 * Median(advise_p50), "ms"};
  outcome.end_to_end["arrivals_per_s"] = {Median(arrivals_per_s), "1/s"};
  outcome.per_layer["sim.run_s"] = {Median(run_s), "s"};
  outcome.per_layer["market.vm_tick_ns"] = {Median(vm_tick_ns), "ns"};
  outcome.per_layer["market.set_bid_ns"] = {Median(set_bid_ns), "ns"};
  return outcome;
}

}  // namespace gmb
