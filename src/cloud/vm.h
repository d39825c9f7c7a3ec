#ifndef HIVESIM_CLOUD_VM_H_
#define HIVESIM_CLOUD_VM_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cloud/spot_market.h"
#include "net/location.h"
#include "sim/simulator.h"

namespace hivesim::cloud {

/// Lifecycle states of a rented VM.
enum class VmState : uint8_t {
  kPending,       ///< Created, not yet started.
  kProvisioning,  ///< Start requested; waiting for boot + stack deploy.
  kRunning,
  kInterrupted,   ///< Spot capacity reclaimed by the provider.
  kStopped,       ///< Stopped by us.
};

/// One rented spot VM, driven by the simulator clock.
///
/// Each incarnation gets an interruption time drawn from the `SpotMarket`
/// (never, on a zero-rate market: the paper's uninterrupted measurement
/// mode). After an interruption a replacement is provisioned immediately
/// (the paper assumes "a new VM can be spun up fast enough", Section 7),
/// and `on_running` fires again when the replacement is up. Billed hours
/// accumulate only while running, across all incarnations.
class VmInstance {
 public:
  VmInstance(sim::Simulator* sim, SpotMarket* market, net::Continent continent)
      : sim_(sim), market_(market), continent_(continent) {}

  VmInstance(const VmInstance&) = delete;
  VmInstance& operator=(const VmInstance&) = delete;

  /// Requests provisioning; `on_running` fires after the startup delay.
  void Start();
  /// Stops the VM (end of experiment). Idempotent.
  void Stop();

  VmState state() const { return state_; }
  /// Total hours in kRunning, for billing.
  double BilledHours() const;
  /// Times this VM was interrupted.
  int interruptions() const { return interruptions_; }

  /// Fired every time the VM (or its replacement) reaches kRunning.
  std::function<void()> on_running;
  /// Fired when a spot interruption kills the VM.
  std::function<void()> on_interrupted;

 private:
  void EnterRunning();
  void EnterInterrupted();

  sim::Simulator* sim_;
  SpotMarket* market_;
  net::Continent continent_;
  VmState state_ = VmState::kPending;
  double running_since_ = 0;
  double billed_seconds_ = 0;
  int interruptions_ = 0;
  sim::EventId interruption_event_ = 0;
  bool has_interruption_event_ = false;
};

}  // namespace hivesim::cloud

#endif  // HIVESIM_CLOUD_VM_H_
