#pragma once

#include <cstdint>
#include <vector>

#include "geometry/vec2.hpp"
#include "net/deployment.hpp"
#include "util/rng.hpp"

namespace isomap {

/// Mid-run fault kinds. The paper assumes a static, fault-free network
/// for the duration of a query ("data delivery is guaranteed through ...
/// MAC layer retransmissions", Section 5); this subsystem relaxes that:
/// nodes can crash *while* the convergecast is in flight, individually or
/// as a correlated region blackout (all nodes inside a disc die at once —
/// the harbor-storm scenario where a mooring drags through a sensor
/// cluster).
enum class FaultKind {
  kNodeCrash,       ///< One node dies at `time`.
  kRegionBlackout,  ///< Every node within `radius` of `center` dies.
};

/// One scheduled fault. `time` is convergecast progress in [0, 1]: 0 fires
/// before the first report hop, 1 after the last. The simulator has no
/// wall-clock inside a run, so progress through the TDMA report schedule
/// is the natural (and deterministic) time axis.
struct FaultEvent {
  double time = 0.0;
  FaultKind kind = FaultKind::kNodeCrash;
  int node = -1;     ///< kNodeCrash target.
  Vec2 center{};     ///< kRegionBlackout disc centre.
  double radius = 0.0;
};

/// A deterministic, seed-driven schedule of fault events. Plans are value
/// types: build one per run (or share it across protocols so every
/// comparison suffers the identical outage sequence).
class FaultPlan {
 public:
  FaultPlan() = default;

  /// Insert keeping events sorted by time (stable: equal-time events keep
  /// insertion order). Throws on time outside [0, 1] or negative radius.
  void add(const FaultEvent& event);

  const std::vector<FaultEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }
  std::size_t size() const { return events_.size(); }

  /// Append every event of `other` (re-sorted by time).
  void merge(const FaultPlan& other);

  /// Crash a random `fraction` of the currently-alive nodes of
  /// `deployment`, at times spread uniformly over [t0, t1]. `exclude` (a
  /// node id, typically the sink — a powered host) is never scheduled.
  static FaultPlan random_crashes(const Deployment& deployment,
                                  double fraction, double t0, double t1,
                                  Rng rng, int exclude = -1);

  /// One region blackout at `time`.
  static FaultPlan region_blackout(Vec2 center, double radius, double time);

 private:
  std::vector<FaultEvent> events_;
};

/// Declarative fault options carried by protocol option structs — the
/// plumbing-friendly form of a FaultPlan. `make_fault_plan` expands it
/// against a concrete deployment.
struct FaultConfig {
  /// Fraction of alive nodes that crash mid-run, spread over
  /// [crash_window_begin, crash_window_end] of convergecast progress.
  double crash_fraction = 0.0;
  double crash_window_begin = 0.05;
  double crash_window_end = 0.85;

  /// Optional correlated outage: all nodes in the disc die at
  /// blackout_time.
  bool blackout = false;
  Vec2 blackout_center{};
  double blackout_radius = 0.0;
  double blackout_time = 0.5;

  /// Seed for victim selection and crash-time placement (independent of
  /// the scenario and channel seeds).
  std::uint64_t seed = 0xFA17ULL;

  /// When true (default) the routing tree repairs itself after each
  /// crash: orphans re-attach to their lowest-level alive neighbour,
  /// paying repair-beacon bytes. When false the tree stays static and a
  /// dead parent silently swallows its subtree's reports — the paper's
  /// implicit behaviour, kept as an ablation.
  bool self_healing = true;

  bool active() const { return crash_fraction > 0.0 || blackout; }
};

/// Expand a FaultConfig into a concrete plan for `deployment`. `sink` is
/// excluded from random crashes (region blackouts may still cover it; the
/// injector protects the sink unconditionally).
FaultPlan make_fault_plan(const FaultConfig& config,
                          const Deployment& deployment, int sink);

/// Replays a FaultPlan against a run in progress. The injector owns the
/// authoritative alive mask (seeded from the deployment's alive flags);
/// callers poll `advance(progress)` as the convergecast moves and apply
/// the returned deaths (lose buffered reports, repair the routing tree).
/// Every death bumps the "fault.crashes" obs counter. `protected_node`
/// (the sink) never dies, whatever the plan says.
class FaultInjector {
 public:
  FaultInjector(FaultPlan plan, const Deployment& deployment,
                int protected_node = -1);

  /// Fire every event with time <= progress that has not fired yet;
  /// returns the ids of nodes that died as a result (alive -> dead
  /// transitions only, in event order, blackout victims by ascending id).
  std::vector<int> advance(double progress);

  bool alive(int node) const {
    return alive_mask_[static_cast<std::size_t>(node)] != 0;
  }
  const std::vector<char>& alive_mask() const { return alive_mask_; }

  int crash_count() const { return crash_count_; }
  bool exhausted() const { return next_event_ >= plan_.events().size(); }
  bool plan_empty() const { return plan_.empty(); }

 private:
  void kill(int node, std::vector<int>& died);

  FaultPlan plan_;
  std::vector<Vec2> positions_;  ///< Physical positions, for blackouts.
  std::vector<char> alive_mask_;
  std::size_t next_event_ = 0;
  int protected_node_;
  int crash_count_ = 0;
};

}  // namespace isomap
