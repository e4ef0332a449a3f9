#include <cmath>
#include <cstdio>

#include "core/grid_market.hpp"
#include "harness.hpp"
#include "predict/ar_forecaster.hpp"
#include "predict/normal_model.hpp"

namespace gmb {

AdviceResult PriceAdvice(gm::GridMarket& grid, std::size_t host,
                         std::uint64_t id, Checker& checker) {
  AdviceResult result;
  Timed advice("advice", id);
  Timed stats_span("predict.host_stats", id);
  const auto stats = grid.HostPriceStats("hour");
  result.host_stats_s = stats_span.Stop();
  if (!stats.ok()) return result;
  const gm::predict::HostPriceStats& host_stats = (*stats)[host];

  Timed budget_span("predict.normal_budget", id);
  const gm::predict::NormalPricePredictor predictor(host_stats);
  const auto low =
      predictor.BudgetForCapacity(0.25 * host_stats.capacity, 0.9);
  const auto high =
      predictor.BudgetForCapacity(0.5 * host_stats.capacity, 0.9);
  result.budget_s = budget_span.Stop();

  Timed forecast_span("predict.ar_forecast", id);
  const std::vector<double> prices =
      grid.auctioneer(host).history().LastPrices(360);
  const auto forecaster = gm::predict::ArPriceForecaster::Fit(prices);
  // The call's own outcome; a forecast below zero is the forecaster's
  // answer, not a failed query.
  const double ahead = forecaster.ok() ? forecaster->ForecastAt(prices, 6)
                                       : std::nan("");
  result.forecast_s = forecast_span.Stop();

  result.ok = low.ok() && high.ok() && std::isfinite(ahead);
  if (!result.ok)
    std::fprintf(stderr, "advice %llu host %zu: budget %s/%s forecast %s %g\n",
                 (unsigned long long)id, host, low.status().ToString().c_str(),
                 high.status().ToString().c_str(),
                 forecaster.status().ToString().c_str(), ahead);
  if (result.ok) checker.Lt("predict.budget_rises_with_target", *low, *high);
  return result;
}

}  // namespace gmb
