#include "cloud/vm.h"

#include <cmath>
#include <string>

#include "common/units.h"
#include "net/location.h"
#include "telemetry/telemetry.h"

namespace hivesim::cloud {

void VmInstance::Start() {
  if (state_ != VmState::kPending && state_ != VmState::kInterrupted) return;
  state_ = VmState::kProvisioning;
  const double delay = market_->SampleStartupDelay();
  sim_->Schedule(delay, [this] {
    if (state_ == VmState::kProvisioning) EnterRunning();
  });
}

void VmInstance::EnterRunning() {
  state_ = VmState::kRunning;
  running_since_ = sim_->Now();
  const double delay =
      market_->SampleInterruptionDelay(continent_, sim_->Now());
  // An infinite delay means the market hazard is zero ("never"):
  // scheduling it would park an event at t=inf in the queue.
  if (std::isfinite(delay)) {
    interruption_event_ = sim_->Schedule(delay, [this] {
      has_interruption_event_ = false;
      if (state_ == VmState::kRunning) EnterInterrupted();
    });
    has_interruption_event_ = true;
  }
  if (on_running) on_running();
}

void VmInstance::EnterInterrupted() {
  billed_seconds_ += sim_->Now() - running_since_;
  state_ = VmState::kInterrupted;
  ++interruptions_;
  if (telemetry::Enabled()) {
    telemetry::Count("spot.interruptions");
    telemetry::Span(running_since_, sim_->Now(), "spot", "vm-uptime");
    std::string args = "{\"continent\":\"";
    args += net::ContinentName(continent_);
    args += "\"}";
    telemetry::Instant(sim_->Now(), "spot", "vm-interrupted", args);
  }
  if (on_interrupted) on_interrupted();
  Start();
}

void VmInstance::Stop() {
  if (state_ == VmState::kStopped) return;
  if (state_ == VmState::kRunning) {
    billed_seconds_ += sim_->Now() - running_since_;
  }
  if (has_interruption_event_) {
    sim_->Cancel(interruption_event_);
    has_interruption_event_ = false;
  }
  state_ = VmState::kStopped;
}

// hivesim-lint: allow(U1) reason=ROADMAP item 2 prices the spot members of spot_market worlds by their billed hours
double VmInstance::BilledHours() const {
  double secs = billed_seconds_;
  if (state_ == VmState::kRunning) secs += sim_->Now() - running_since_;
  return secs / kHour;
}

}  // namespace hivesim::cloud
