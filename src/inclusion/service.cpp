#include "inclusion/service.hpp"

#include "core/legitimacy.hpp"
#include "util/assert.hpp"

namespace ssr::incl {

void DutyServiceParams::validate() const {
  SSR_REQUIRE(node_count >= 3, "duty service needs at least three nodes");
  runtime.validate();
}

DutyService::DutyService(DutyServiceParams params, DutyCallback on_duty_change)
    : params_(params), user_callback_(std::move(on_duty_change)) {
  params_.validate();
  const std::size_t n = params_.node_count;
  const std::uint32_t K =
      params_.modulus != 0 ? params_.modulus
                           : static_cast<std::uint32_t>(n + 1);
  duty_seconds_.assign(n, 0.0);
  activations_.assign(n, 0);
  duty_start_.assign(n, {});
  active_.assign(n, false);

  core::SsrMinRing ring(n, K);
  ring_ = std::make_unique<runtime::ThreadedRing<core::SsrMinRing>>(
      ring, core::canonical_legitimate(ring, 0), params_.runtime);
  // The initial holder is already on duty before start(): seed accounting.
  active_[0] = true;
  ring_->set_activation_callback(
      [this](std::size_t node, bool on) { on_flip(node, on); });
}

DutyService::~DutyService() { stop(); }

void DutyService::start() {
  if (running_) return;
  running_ = true;
  {
    std::lock_guard lock(mutex_);
    const auto now = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < active_.size(); ++i) {
      if (active_[i]) {
        duty_start_[i] = now;
        ++activations_[i];
      }
    }
  }
  ring_->start();
}

void DutyService::stop() {
  if (!running_) return;
  ring_->stop();
  running_ = false;
  // Close any open duty periods.
  std::lock_guard lock(mutex_);
  const auto now = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < active_.size(); ++i) {
    if (active_[i]) {
      duty_seconds_[i] +=
          std::chrono::duration<double>(now - duty_start_[i]).count();
      active_[i] = false;
    }
  }
}

void DutyService::on_flip(std::size_t node, bool on) {
  {
    std::lock_guard lock(mutex_);
    const auto now = std::chrono::steady_clock::now();
    if (on && !active_[node]) {
      active_[node] = true;
      duty_start_[node] = now;
      ++activations_[node];
    } else if (!on && active_[node]) {
      active_[node] = false;
      duty_seconds_[node] +=
          std::chrono::duration<double>(now - duty_start_[node]).count();
    }
  }
  if (user_callback_) user_callback_(node, on);
}

DutyStats DutyService::stats() const {
  std::lock_guard lock(mutex_);
  DutyStats out;
  out.duty_seconds = duty_seconds_;
  out.activations = activations_;
  const auto now = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < active_.size(); ++i) {
    if (active_[i]) {
      out.duty_seconds[i] +=
          std::chrono::duration<double>(now - duty_start_[i]).count();
      ++out.currently_active;
    }
    out.total_activations += activations_[i];
  }
  return out;
}

runtime::Telemetry DutyService::observe(std::chrono::milliseconds duration) {
  SSR_REQUIRE(running_, "call start() before observe()");
  return ring_->observe(duration);
}

void DutyService::corrupt(std::size_t node) {
  SSR_REQUIRE(node < params_.node_count, "node index out of range");
  core::SsrState garbage;
  const std::uint32_t K = params_.modulus != 0
                              ? params_.modulus
                              : static_cast<std::uint32_t>(
                                    params_.node_count + 1);
  garbage.x = static_cast<std::uint32_t>(fault_rng_.below(K));
  garbage.rts = fault_rng_.bernoulli(0.5);
  garbage.tra = fault_rng_.bernoulli(0.5);
  ring_->corrupt(node, garbage);
}

}  // namespace ssr::incl
