#include "fault/fault.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/obs.hpp"

namespace isomap {

void FaultPlan::add(const FaultEvent& event) {
  if (!(event.time >= 0.0 && event.time <= 1.0))
    throw std::invalid_argument("FaultPlan: event time must be in [0,1]");
  if (event.kind == FaultKind::kRegionBlackout && event.radius < 0.0)
    throw std::invalid_argument("FaultPlan: blackout radius must be >= 0");
  // Stable insert: after the last event with time <= event.time.
  const auto pos = std::upper_bound(
      events_.begin(), events_.end(), event,
      [](const FaultEvent& a, const FaultEvent& b) { return a.time < b.time; });
  events_.insert(pos, event);
}

void FaultPlan::merge(const FaultPlan& other) {
  for (const FaultEvent& event : other.events_) add(event);
}

FaultPlan FaultPlan::random_crashes(const Deployment& deployment,
                                    double fraction, double t0, double t1,
                                    Rng rng, int exclude) {
  if (!(t0 >= 0.0 && t1 <= 1.0 && t0 <= t1))
    throw std::invalid_argument(
        "FaultPlan::random_crashes: need 0 <= t0 <= t1 <= 1");
  fraction = std::clamp(fraction, 0.0, 1.0);
  std::vector<int> candidates;
  for (const Node& node : deployment.nodes())
    if (node.alive && node.id != exclude) candidates.push_back(node.id);
  const auto victims = static_cast<std::size_t>(
      std::llround(fraction * static_cast<double>(candidates.size())));
  FaultPlan plan;
  // Partial Fisher-Yates, mirroring Deployment::fail_random's victim
  // selection so the two fault paths are statistically comparable.
  for (std::size_t i = 0; i < victims && i < candidates.size(); ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(rng.uniform_int(candidates.size() - i));
    std::swap(candidates[i], candidates[j]);
    FaultEvent event;
    event.time = t0 + (t1 - t0) * rng.uniform();
    event.kind = FaultKind::kNodeCrash;
    event.node = candidates[i];
    plan.add(event);
  }
  return plan;
}

FaultPlan FaultPlan::region_blackout(Vec2 center, double radius, double time) {
  FaultEvent event;
  event.time = time;
  event.kind = FaultKind::kRegionBlackout;
  event.center = center;
  event.radius = radius;
  FaultPlan plan;
  plan.add(event);
  return plan;
}

FaultPlan make_fault_plan(const FaultConfig& config,
                          const Deployment& deployment, int sink) {
  FaultPlan plan;
  if (config.crash_fraction > 0.0) {
    plan = FaultPlan::random_crashes(deployment, config.crash_fraction,
                                     config.crash_window_begin,
                                     config.crash_window_end,
                                     Rng(config.seed), sink);
  }
  if (config.blackout) {
    plan.merge(FaultPlan::region_blackout(
        config.blackout_center, config.blackout_radius, config.blackout_time));
  }
  return plan;
}

FaultInjector::FaultInjector(FaultPlan plan, const Deployment& deployment,
                             int protected_node)
    : plan_(std::move(plan)), protected_node_(protected_node) {
  const auto n = static_cast<std::size_t>(deployment.size());
  positions_.reserve(n);
  alive_mask_.reserve(n);
  for (const Node& node : deployment.nodes()) {
    positions_.push_back(node.pos);
    alive_mask_.push_back(node.alive ? 1 : 0);
  }
  for (const FaultEvent& event : plan_.events()) {
    if (event.kind == FaultKind::kNodeCrash &&
        (event.node < 0 || static_cast<std::size_t>(event.node) >= n))
      throw std::out_of_range("FaultInjector: crash target outside deployment");
  }
}

void FaultInjector::kill(int node, std::vector<int>& died) {
  if (node == protected_node_) return;
  char& alive = alive_mask_[static_cast<std::size_t>(node)];
  if (!alive) return;
  alive = 0;
  ++crash_count_;
  died.push_back(node);
  obs::count("fault.crashes");
}

std::vector<int> FaultInjector::advance(double progress) {
  std::vector<int> died;
  const auto& events = plan_.events();
  while (next_event_ < events.size() &&
         events[next_event_].time <= progress) {
    const FaultEvent& event = events[next_event_++];
    if (event.kind == FaultKind::kNodeCrash) {
      kill(event.node, died);
    } else {
      const double r2 = event.radius * event.radius;
      for (std::size_t i = 0; i < positions_.size(); ++i) {
        if ((positions_[i] - event.center).norm2() <= r2)
          kill(static_cast<int>(i), died);
      }
    }
  }
  return died;
}

}  // namespace isomap
