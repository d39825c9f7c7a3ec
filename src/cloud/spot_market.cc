#include "cloud/spot_market.h"

#include <cmath>
#include <limits>

#include "common/units.h"
#include "telemetry/telemetry.h"

namespace hivesim::cloud {

namespace {
// UTC offsets of the experiment zones: Iowa (-6), Belgium (+1),
// Taiwan (+8), Sydney (+10).
double UtcOffsetHours(net::Continent c) {
  switch (c) {
    case net::Continent::kUs:
      return -6;
    case net::Continent::kEu:
      return +1;
    case net::Continent::kAsia:
      return +8;
    case net::Continent::kAus:
      return +10;
  }
  return 0;
}

constexpr double kDayStartHour = 8.0;
constexpr double kDayEndHour = 20.0;
constexpr double kSecondsPerMonth = 30.0 * 24.0 * kHour;
}  // namespace

double SpotMarket::LocalHour(net::Continent continent, double now) {
  const double hours = now / kHour + UtcOffsetHours(continent);
  double h = std::fmod(hours, 24.0);
  if (h < 0) h += 24.0;
  return h;
}

double SpotMarket::HazardAt(net::Continent continent, double now) const {
  // Baseline hazard so that P(interrupted in 30 days) at the night rate
  // equals the monthly interruption rate.
  const double base =
      -std::log(1.0 - monthly_interruption_rate_) / kSecondsPerMonth;
  const double h = LocalHour(continent, now);
  const bool daytime = h >= kDayStartHour && h < kDayEndHour;
  double hazard = daytime ? base * kDaylightMultiplier : base;
  for (const HazardWindow& w : hazard_windows_) {
    if (w.continent == continent && now >= w.start_sec && now < w.end_sec) {
      hazard *= w.multiplier;
    }
  }
  return hazard;
}

double SpotMarket::SampleInterruptionDelay(net::Continent continent,
                                           double now) {
  telemetry::Count("spot.interruption_draws");
  // A zero base rate makes the hazard identically zero at every hour:
  // return "never" up front instead of spinning through ~87,600 hourly
  // segments (and burning one random draw per segment).
  if (monthly_interruption_rate_ <= 0) {
    return std::numeric_limits<double>::infinity();
  }
  // Piecewise-constant hazard: advance hour by hour, drawing an
  // exponential within each segment. Segments whose hazard is zero (a
  // window with multiplier 0) are skipped without consuming a draw.
  double t = now;
  for (int guard = 0; guard < 24 * 365 * 10; ++guard) {
    const double rate = HazardAt(continent, t);
    if (rate > 0) {
      const double draw = rng_.Exponential(rate);
      if (draw <= kHour) return (t + draw) - now;
    }
    t += kHour;
  }
  return t - now;  // Effectively never (10 simulated years).
}

double SpotMarket::SampleStartupDelay() {
  return rng_.Uniform(kVmStartupMinSec, kVmStartupMaxSec);
}

}  // namespace hivesim::cloud
