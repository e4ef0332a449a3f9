// paper_jobs: the paper's job path on the paper's testbed.
//
// 30 dual-CPU hosts (heterogeneity 0.3), durable storage in a fresh
// directory, telemetry off. Many identities are registered; a seeded
// open-loop Poisson stream in simulated time submits XRSL proteome-scan
// jobs through SubmitXrsl, one price-advice query runs every sim-hour
// while jobs arrive, and the kernel drains until every job is terminal. Crypto, bank
// transfers and sub-accounts, broker and plugin scheduling, Best Response
// and the WAL do most of the work; auction ticks on 30 hosts do little.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <random>

#include "bestresponse/best_response.hpp"
#include "core/grid_market.hpp"
#include "crypto/token.hpp"
#include "grid/xrsl.hpp"
#include "harness.hpp"
#include "workload/bag_of_tasks.hpp"

namespace gmb {
namespace {

namespace fs = std::filesystem;

struct Sizes {
  int users = 400;
  int jobs = 1000;
  double mean_gap_s = 30.0;  // Poisson inter-arrival, sim seconds
};

struct JobInput {
  std::string user;
  std::string xrsl;
  gm::Money budget;
  double wall_seconds = 0.0;
  gm::sim::SimDuration offset = 0;  // arrival after the run phase starts
};

struct Inputs {
  std::vector<std::string> users;
  std::vector<JobInput> jobs;
};

// Inputs depend on the seed only. Jobs are small scans (2 VMs, 2 chunks
// of 4-8 CPU-minutes), so the stream stays well below VM-slot saturation
// of the 30-host testbed and every job can finish.
Inputs MakeInputs(std::uint64_t seed, const Sizes& sizes) {
  std::mt19937_64 rng(seed);
  Inputs inputs;
  for (int u = 0; u < sizes.users; ++u)
    inputs.users.push_back("user" + std::to_string(u));
  std::exponential_distribution<double> gap(1.0 / sizes.mean_gap_s);
  std::uniform_int_distribution<int> pick_user(0, sizes.users - 1);
  std::uniform_real_distribution<double> chunk_minutes(4.0, 8.0);
  std::uniform_real_distribution<double> dollars(20.0, 200.0);
  double t = 0.0;
  for (int j = 0; j < sizes.jobs; ++j) {
    t += gap(rng);
    gm::workload::ScanJobParams params;
    params.nodes = 2;
    params.chunks = 2;
    params.chunk_cpu_minutes = chunk_minutes(rng);
    params.wall_time_minutes = 180.0;
    params.input_mb_override = 24.0;
    params.output_mb = 10.0;
    const auto description = gm::workload::BuildScanJob(params);
    JobInput job;
    job.user = inputs.users[static_cast<std::size_t>(pick_user(rng))];
    job.xrsl = description->ToXrsl();
    job.budget = gm::Money::Dollars(dollars(rng));
    job.wall_seconds = params.wall_time_minutes * 60.0;
    job.offset = static_cast<gm::sim::SimDuration>(t * gm::sim::kSecond);
    inputs.jobs.push_back(std::move(job));
  }
  return inputs;
}

const gm::Money kInitialFunds = gm::Money::Dollars(1e6);
constexpr int kJobCount = 2;  // VMs per scan job (XRSL count)

gm::GridMarket::Config MakeConfig(std::uint64_t seed, const std::string& dir) {
  gm::GridMarket::Config config;
  config.hosts = 30;
  config.cpus_per_host = 2;
  config.heterogeneity = 0.3;
  config.storage.durable = true;
  config.storage.dir = dir;
  config.telemetry.enabled = false;
  config.seed = seed;
  return config;
}

std::uint64_t DirectoryBytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec))
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  return total;
}

// The plugin's own candidate query and Best Response inputs.
gm::market::HostQuery PluginQuery() {
  gm::market::HostQuery query;
  query.require_vm_slot = true;
  query.limit = static_cast<std::size_t>(kJobCount) * 4;
  return query;
}

std::vector<gm::br::HostBidInput> BidInputs(
    const std::vector<gm::market::HostRecord>& hosts) {
  std::vector<gm::br::HostBidInput> inputs;
  for (const gm::market::HostRecord& host : hosts) {
    const double price =
        host.price_per_capacity * host.cycles_per_cpu * host.cpus;
    inputs.push_back(
        {host.host_id, host.cycles_per_cpu, gm::Rate::DollarsPerSec(price)});
  }
  return inputs;
}

// Best Response optimality: the bids spend exactly the budget rate, and
// the marginal utility w*y/(x+y)^2 is equal on every host that gets a bid.
void CheckBestResponse(Checker& checker,
                       const std::vector<gm::br::HostBidInput>& inputs,
                       const gm::br::BestResponseResult& result,
                       gm::Rate budget) {
  const gm::Rate reserve = gm::Rate::DollarsPerSec(1e-6);
  double total = 0.0;
  double lo = 0.0;
  double hi = 0.0;
  bool any = false;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const double x = result.bids[i].bid.dollars_per_sec();
    total += x;
    if (x <= 0.0) continue;
    const double y = std::max(inputs[i].price.dollars_per_sec(),
                              reserve.dollars_per_sec());
    const double marginal = inputs[i].weight * y / ((x + y) * (x + y));
    lo = any ? std::min(lo, marginal) : marginal;
    hi = any ? std::max(hi, marginal) : marginal;
    any = true;
  }
  checker.Near("bestresponse.bids_sum_to_budget", total,
               budget.dollars_per_sec(), 1e-9);
  checker.Near("bestresponse.equal_marginal_utility", lo, hi, 1e-6);
}

}  // namespace

Outcome RunPaperJobs(const Options& options, Checker& checker) {
  Sizes sizes;
  if (options.small) {
    sizes.users = 8;
    sizes.jobs = 24;
    sizes.mean_gap_s = 180.0;  // long enough for one hourly advice query
  }
  const Inputs inputs = MakeInputs(options.seed, sizes);
  const std::string dir = options.out_dir + "/store-paper_jobs";
  const gm::sim::SimDuration kHour = gm::sim::Hours(1);

  std::vector<double> setup_s, jobs_per_s, ticks_per_s, arrivals_per_s;
  std::vector<double> submit_p50, submit_p99, advise_p50;
  std::vector<double> run_s, journal_bytes;
  Outcome outcome;
  outcome.probe_spans = {"market.sls_query", "grid.xrsl_parse",
                         "crypto.token_verify", "bank.verify_receipt",
                         "bestresponse.solve"};
  OpCount& submissions = outcome.ops["submissions"];
  OpCount& jobs_failed = outcome.ops["jobs"];
  OpCount& advice_ops = outcome.ops["advice"];

  const double start = Now();
  for (int round = 0; MoreRounds(options, start, round); ++round) {
    const bool traced = TracedRound(options, round);
    GlobalTracer().set_enabled(false);
    fs::remove_all(dir);

    // -- set-up: construction, identity registration, warm-up hour --
    const double setup_start = Now();
    auto grid =
        std::make_unique<gm::GridMarket>(MakeConfig(options.seed, dir));
    for (const std::string& user : inputs.users) {
      const gm::Status s = grid->RegisterUser(user, kInitialFunds);
      checker.EqInt("setup.register_user", s.ok() ? 1 : 0, 1);
    }
    grid->RunFor(kHour);
    setup_s.push_back(Now() - setup_start);

    // -- run phase --
    GlobalTracer().set_enabled(traced);
    const gm::sim::SimTime t0 = grid->now();
    std::vector<std::uint64_t> ids;
    std::vector<std::size_t> id_input;  // job index of each accepted id
    std::map<std::string, gm::Money> paid;
    double round_submit = 0.0;
    std::vector<double> submit_s, advise_s;
    double round_sim = 0.0;
    gm::sim::SimTime next_advice = t0 + kHour;
    std::uint64_t advice_seq = 0;
    const gm::br::BestResponseSolver solver;

    const auto run_until = [&](gm::sim::SimTime until) {
      Timed span("sim.run");
      grid->RunUntil(until);
      round_sim += span.Stop();
    };
    const auto advise_due = [&](gm::sim::SimTime until) {
      while (next_advice <= until) {
        run_until(next_advice);
        // Advice for the highest-priced host: an idle host's flat price
        // series has no variance to fit.
        std::size_t host = 0;
        for (std::size_t h = 1; h < grid->host_count(); ++h)
          if (grid->auctioneer(h).PricePerCapacity() >
              grid->auctioneer(host).PricePerCapacity())
            host = h;
        const AdviceResult advice =
            PriceAdvice(*grid, host, advice_seq++, checker);
        ++advice_ops.attempted;
        if (!advice.ok) ++advice_ops.failed;
        if (!traced)
          advise_s.push_back(advice.host_stats_s + advice.budget_s +
                             advice.forecast_s);
        next_advice += kHour;
      }
    };

    Timed root("run", static_cast<std::uint64_t>(round));
    for (std::size_t j = 0; j < inputs.jobs.size(); ++j) {
      const JobInput& job = inputs.jobs[j];
      advise_due(t0 + job.offset);
      run_until(t0 + job.offset);
      ++submissions.attempted;
      gm::Result<std::uint64_t> id = gm::Status::Internal("not submitted");
      if (!traced) {
        const double t = Now();
        id = grid->SubmitXrsl(job.user, job.xrsl, job.budget);
        const double dt = Now() - t;
        submit_s.push_back(dt);
        round_submit += dt;
      } else {
        // The same two calls SubmitXrsl makes with telemetry off, timed
        // apart, then each lower layer once more on this job's inputs.
        std::vector<gm::market::HostRecord> candidates;
        {
          Timed span("market.sls_query", j);
          candidates = grid->sls().Query(PluginQuery());
        }
        gm::Result<gm::crypto::TransferToken> token =
            gm::Status::Internal("unpaid");
        {
          Timed submit("submit", j);
          {
            Timed span("core.pay_broker", j);
            token = grid->PayBroker(job.user, job.budget);
          }
          if (token.ok()) {
            Timed span("grid.broker_submit", j);
            id = grid->broker().Submit(job.xrsl, *token);
          }
          round_submit += submit.Stop();
        }
        {
          Timed span("grid.xrsl_parse", j);
          const auto parsed = gm::grid::JobDescription::FromXrsl(job.xrsl);
          span.Stop();
          checker.EqInt("grid.xrsl_round_trip",
                        parsed.ok() ? parsed->count : -1, kJobCount);
        }
        const auto owner = grid->bank().OwnerKey(job.user);
        if (token.ok() && owner.ok()) {
          Timed token_span("crypto.token_verify", j);
          const gm::Status token_ok = gm::crypto::VerifyToken(
              *token, grid->bank().public_key(), *owner, "broker");
          token_span.Stop();
          Timed receipt_span("bank.verify_receipt", j);
          const gm::Status receipt_ok =
              grid->bank().VerifyReceipt(token->receipt);
          receipt_span.Stop();
          checker.EqInt("crypto.token_verifies", token_ok.ok() ? 1 : 0, 1);
          checker.EqInt("bank.receipt_verifies", receipt_ok.ok() ? 1 : 0, 1);
        }
        if (!candidates.empty()) {
          const auto bid_inputs = BidInputs(candidates);
          const gm::Rate budget = gm::Spread(job.budget, job.wall_seconds);
          Timed span("bestresponse.solve", j);
          const auto solution = solver.Solve(bid_inputs, budget);
          span.Stop();
          if (solution.ok())
            CheckBestResponse(checker, bid_inputs, *solution, budget);
        }
      }
      if (!id.ok()) {
        ++submissions.failed;
        if (submissions.failed <= 3)
          std::fprintf(stderr, "submission failed: %s\n",
                       id.status().ToString().c_str());
        continue;
      }
      paid[job.user] += job.budget;
      ids.push_back(*id);
      id_input.push_back(j);
    }
    // Drain in 10-minute steps until every job is terminal.
    std::vector<std::uint64_t> live = ids;
    while (!live.empty()) {
      run_until(grid->now() + gm::sim::Minutes(10));
      live.erase(std::remove_if(live.begin(), live.end(),
                                [&](std::uint64_t id) {
                                  return gm::grid::IsTerminal(
                                      (*grid->Job(id))->state);
                                }),
                 live.end());
    }
    const double run_wall = root.Stop();
    GlobalTracer().set_enabled(false);
    if (!traced) outcome.untraced_run_s.push_back(run_wall);
    ReportRound(options, round, traced, setup_s.back(), run_wall);
    if (traced) outcome.traced_root = root.index();

    // -- checks, outside the timed phase --
    int finished = 0;
    for (std::size_t k = 0; k < ids.size(); ++k) {
      const gm::grid::JobRecord& record = **grid->Job(ids[k]);
      const JobInput& job = inputs.jobs[id_input[k]];
      ++jobs_failed.attempted;
      if (record.state == gm::grid::JobState::kFinished) {
        ++finished;
      } else {
        ++jobs_failed.failed;
        if (jobs_failed.failed <= 3)
          std::fprintf(stderr, "job %llu ended %d: %s\n",
                       static_cast<unsigned long long>(record.id),
                       static_cast<int>(record.state),
                       record.failure.c_str());
      }
      checker.EqInt("job.finished", static_cast<int>(record.state),
                    static_cast<int>(gm::grid::JobState::kFinished));
      checker.EqInt("job.all_chunks_done", record.CompletedChunks(),
                    record.description.TotalChunks());
      checker.EqInt("job.spent_plus_refunded_is_budget",
                    (record.spent + record.refunded).micros(),
                    job.budget.micros());
    }
    for (const std::string& user : inputs.users) {
      const auto balance = grid->UserBankBalance(user);
      checker.EqInt("bank.user_balance",
                    balance.ok() ? balance->micros() : -1,
                    (kInitialFunds - paid[user]).micros());
    }
    if (!traced) {
      // Standalone Best Response solves for every job's budget against
      // the final market.
      const auto bid_inputs = BidInputs(grid->sls().Query(PluginQuery()));
      for (const JobInput& job : inputs.jobs) {
        const gm::Rate budget = gm::Spread(job.budget, job.wall_seconds);
        const auto solution = solver.Solve(bid_inputs, budget);
        checker.EqInt("bestresponse.solves", solution.ok() ? 1 : 0, 1);
        if (solution.ok())
          CheckBestResponse(checker, bid_inputs, *solution, budget);
      }
    }
    journal_bytes.push_back(static_cast<double>(DirectoryBytes(dir)));
    if (traced) {
      run_s.push_back(round_sim);
    } else {
      const double host_ticks =
          static_cast<double>(grid->host_count()) *
          static_cast<double>(grid->now() - t0) / (10.0 * gm::sim::kSecond);
      jobs_per_s.push_back(finished / run_wall);
      submit_p50.push_back(Median(submit_s));
      submit_p99.push_back(Quantile(submit_s, 0.99));
      advise_p50.push_back(Median(advise_s));
      ticks_per_s.push_back(host_ticks / round_sim);
      arrivals_per_s.push_back(static_cast<double>(ids.size()) /
                               round_submit);
    }
    grid.reset();
  }
  fs::remove_all(dir);

  outcome.end_to_end["setup_s"] = {Median(setup_s), "s"};
  outcome.end_to_end["jobs_per_s"] = {Median(jobs_per_s), "1/s"};
  outcome.end_to_end["submit_ms_p50"] = {1e3 * Median(submit_p50), "ms"};
  outcome.end_to_end["submit_ms_p99"] = {1e3 * Median(submit_p99), "ms"};
  outcome.end_to_end["ticks_per_s"] = {Median(ticks_per_s), "1/s"};
  outcome.end_to_end["advise_ms_p50"] = {1e3 * Median(advise_p50), "ms"};
  outcome.end_to_end["arrivals_per_s"] = {Median(arrivals_per_s), "1/s"};

  outcome.per_layer["sim.run_s"] = {Median(run_s), "s"};
  outcome.per_layer["store.journal_bytes"] = {Median(journal_bytes), "bytes"};
  return outcome;
}

}  // namespace gmb
