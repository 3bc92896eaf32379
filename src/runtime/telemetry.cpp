#include "runtime/telemetry.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace ssr::runtime {

Telemetry::Telemetry(std::size_t n)
    : n_(n), holder_time_us_(n + 1, 0.0) {
  SSR_REQUIRE(n >= 1, "telemetry needs at least one node");
}

void Telemetry::set_context(std::string runtime, std::string algorithm,
                            std::uint64_t seed) {
  runtime_ = std::move(runtime);
  algorithm_ = std::move(algorithm);
  seed_ = seed;
}

void Telemetry::set_plan(const FaultPlan& plan) {
  plan_spec_ = plan.describe();
  windows_ = plan.windows;
  window_outcomes_.assign(windows_.size(), WindowOutcome{});
}

void Telemetry::observe(double t_us, const std::vector<bool>& holders) {
  SSR_REQUIRE(!finished_, "observe() after finish()");
  SSR_REQUIRE(holders.size() == n_, "holder vector size mismatch");
  std::size_t count = 0;
  for (bool b : holders)
    if (b) ++count;
  const std::size_t bin = std::min(count, n_);

  if (!started_) {
    started_ = true;
    start_us_ = t_us;
    last_us_ = t_us;
    current_ = holders;
    current_count_ = count;
  } else {
    SSR_REQUIRE(t_us >= last_us_, "telemetry time went backwards");
    const double dt = t_us - last_us_;
    holder_time_us_[std::min(current_count_, n_)] += dt;
    observed_us_ += dt;
    last_us_ = t_us;
    if (holders != current_) ++handovers_;
    if (count == 0 && current_count_ > 0) ++zero_intervals_;
    current_ = holders;
    current_count_ = count;
  }
  min_holders_ = std::min(min_holders_, bin);
  max_holders_ = std::max(max_holders_, bin);

  // Fault-window recovery: first observation at/after a window's end with
  // at least one holder closes that window's recovery clock.
  for (std::size_t w = 0; w < windows_.size(); ++w) {
    if (!window_outcomes_[w].recovered && t_us >= windows_[w].end_us &&
        count >= 1) {
      window_outcomes_[w].recovered = true;
      window_outcomes_[w].time_to_recover_us =
          std::max(0.0, t_us - windows_[w].end_us);
    }
  }
}

void Telemetry::finish(double t_us) {
  if (finished_) return;
  if (started_ && t_us > last_us_) {
    const double dt = t_us - last_us_;
    holder_time_us_[std::min(current_count_, n_)] += dt;
    observed_us_ += dt;
    last_us_ = t_us;
  }
  finished_ = true;
}

void Telemetry::set_node_counters(std::vector<NodeTelemetry> counters) {
  SSR_REQUIRE(counters.size() == n_, "node counter vector size mismatch");
  node_counters_ = std::move(counters);
}

NodeTelemetry Telemetry::node_totals() const {
  NodeTelemetry total;
  for (const NodeTelemetry& c : node_counters_) {
    total.frames_sent += c.frames_sent;
    total.frames_dropped += c.frames_dropped;
    total.frames_duplicated += c.frames_duplicated;
    total.frames_reordered += c.frames_reordered;
    total.frames_corrupted += c.frames_corrupted;
    total.frames_received += c.frames_received;
    total.rule_executions += c.rule_executions;
    total.crash_restarts += c.crash_restarts;
  }
  return total;
}

void Telemetry::set_aggregates(std::uint64_t messages_sent,
                               std::uint64_t messages_lost,
                               std::uint64_t deliveries,
                               std::uint64_t rule_executions) {
  has_aggregates_ = true;
  agg_sent_ = messages_sent;
  agg_lost_ = messages_lost;
  agg_deliveries_ = deliveries;
  agg_rules_ = rule_executions;
}

std::size_t Telemetry::min_holders() const {
  return min_holders_ == std::numeric_limits<std::size_t>::max()
             ? 0
             : min_holders_;
}

Json Telemetry::to_json() const {
  Json out = Json::object();
  out.set("schema", "ssr-telemetry-v1");
  out.set("runtime", runtime_);
  out.set("algorithm", algorithm_);
  out.set("seed", seed_);
  out.set("nodes", n_);
  out.set("fault_plan", plan_spec_);
  out.set("observed_us", observed_us_);
  Json hist = Json::array();
  for (double t : holder_time_us_) hist.push(t);
  out.set("holder_time_us", std::move(hist));
  out.set("zero_holder_dwell_us", holder_time_us_[0]);
  out.set("zero_intervals", zero_intervals_);
  out.set("min_holders", min_holders());
  out.set("max_holders", max_holders_);
  out.set("handovers", handovers_);
  if (has_aggregates_) {
    Json agg = Json::object();
    agg.set("messages_sent", agg_sent_);
    agg.set("messages_lost", agg_lost_);
    agg.set("deliveries", agg_deliveries_);
    agg.set("rule_executions", agg_rules_);
    out.set("aggregates", std::move(agg));
  }
  Json ws = Json::array();
  for (std::size_t w = 0; w < windows_.size(); ++w) {
    Json j = Json::object();
    j.set("kind", to_string(windows_[w].kind));
    j.set("begin_us", windows_[w].begin_us);
    j.set("end_us", windows_[w].end_us);
    j.set("recovered", window_outcomes_[w].recovered);
    j.set("time_to_recover_us", window_outcomes_[w].time_to_recover_us);
    ws.push(std::move(j));
  }
  out.set("fault_windows", std::move(ws));
  if (!node_counters_.empty()) {
    Json nodes = Json::array();
    for (const NodeTelemetry& c : node_counters_) {
      Json j = Json::object();
      j.set("frames_sent", c.frames_sent);
      j.set("frames_dropped", c.frames_dropped);
      j.set("frames_duplicated", c.frames_duplicated);
      j.set("frames_reordered", c.frames_reordered);
      j.set("frames_corrupted", c.frames_corrupted);
      j.set("frames_received", c.frames_received);
      j.set("rule_executions", c.rule_executions);
      j.set("crash_restarts", c.crash_restarts);
      nodes.push(std::move(j));
    }
    out.set("per_node", std::move(nodes));
  }
  return out;
}

std::string Telemetry::to_json_string(int indent) const {
  return to_json().dump(indent) + "\n";
}

}  // namespace ssr::runtime
