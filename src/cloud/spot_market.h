#ifndef HIVESIM_CLOUD_SPOT_MARKET_H_
#define HIVESIM_CLOUD_SPOT_MARKET_H_

#include <vector>

#include "common/rng.h"
#include "net/location.h"

namespace hivesim::cloud {

/// A scripted hazard-rate override: between `start_sec` and `end_sec`
/// the interruption hazard in `continent` is multiplied by `multiplier`
/// (>1 models a capacity-reclamation storm, <1 a calm window, 0
/// suppresses interruptions entirely). Overlapping windows compound.
/// Used by the fault-injection subsystem (`faults::ChaosInjector`) to
/// make Section 7 interruption storms a first-class scriptable input.
struct HazardWindow {
  net::Continent continent = net::Continent::kUs;
  double start_sec = 0;
  double end_sec = 0;
  double multiplier = 1.0;
};

/// Stochastic model of spot VM interruptions, startup delays, and hourly
/// price variation. All draws come from a deterministic seeded stream.
class SpotMarket {
 public:
  /// Hazard multiplier between 08:00 and 20:00 local zone time (the paper
  /// "faced difficulties acquiring even a single spot VM during daylight
  /// hours", Section 7).
  static constexpr double kDaylightMultiplier = 6.0;
  /// VM startup (provisioning to training start) range in seconds;
  /// "seconds to minutes, manual deployment up to 10 minutes" (Section 7).
  static constexpr double kVmStartupMinSec = 45;
  static constexpr double kVmStartupMaxSec = 600;

  /// `monthly_interruption_rate` is the probability that a spot VM is
  /// interrupted within 30 days at the *night-time* baseline hazard. AWS
  /// advertises 5-20% per 30 days (Section 7); the paper found the real
  /// rate strongly time-of-day dependent, which `kDaylightMultiplier`
  /// models.
  explicit SpotMarket(Rng rng, double monthly_interruption_rate = 0.10)
      : rng_(std::move(rng)),
        monthly_interruption_rate_(monthly_interruption_rate) {}

  /// Samples the delay (seconds from `now`) until a spot VM in
  /// `continent` is interrupted. Simulation time 0 is 00:00 UTC; the
  /// hazard is a non-homogeneous Poisson process whose rate rises by
  /// `kDaylightMultiplier` during the zone's local daytime and by any
  /// active `HazardWindow` multipliers. Returns +infinity ("never") when
  /// the hazard is identically zero, without consuming random draws.
  double SampleInterruptionDelay(net::Continent continent, double now);

  /// Registers a scripted hazard window. Windows are consulted by future
  /// `SampleInterruptionDelay` calls (the piecewise-hourly sampler scans
  /// forward through them), so storms must be registered before the VMs
  /// they should affect draw their interruption times.
  void AddHazardWindow(const HazardWindow& window) {
    hazard_windows_.push_back(window);
  }
  void ClearHazardWindows() { hazard_windows_.clear(); }
  const std::vector<HazardWindow>& hazard_windows() const {
    return hazard_windows_;
  }

  /// Samples the provisioning delay of a fresh VM, uniform in
  /// [kVmStartupMinSec, kVmStartupMaxSec).
  double SampleStartupDelay();

  /// Local hour of day [0, 24) in `continent` at simulation time `now`.
  static double LocalHour(net::Continent continent, double now);

 private:
  /// Instantaneous interruption hazard (events/sec) at time `now`.
  double HazardAt(net::Continent continent, double now) const;

  Rng rng_;
  double monthly_interruption_rate_;
  std::vector<HazardWindow> hazard_windows_;
};

}  // namespace hivesim::cloud

#endif  // HIVESIM_CLOUD_SPOT_MARKET_H_
