#pragma once

#include <cstdint>
#include <queue>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace isomap {

/// Per-link impairment knobs (SNIPPETS-style latency/jitter/dup/reorder/
/// corrupt injection). The paper's link layer is instantaneous and
/// faithful; enabling any of these relaxes that: every frame copy that
/// survives the loss chain is delayed by `latency_s` plus a uniform
/// jitter draw, may be held back further (reordering), may arrive twice
/// (duplication), and may arrive with flipped payload bits (corruption —
/// caught by the ARQ frame checksum, never silently mis-delivered).
/// All draws come from the owning Channel's seeded Rng, so an impaired
/// run is exactly as reproducible as a lossy one.
struct ImpairmentConfig {
  double latency_s = 0.005;       ///< Fixed per-frame link delay.
  double jitter_s = 0.0;          ///< Uniform extra delay in [0, jitter_s).
  double dup_prob = 0.0;          ///< P(frame heard twice at the receiver).
  double reorder_prob = 0.0;      ///< P(frame held back reorder_extra_s).
  double reorder_extra_s = 0.02;  ///< Hold-back delay for reordered frames.
  double corrupt_prob = 0.0;      ///< P(payload corrupted in flight).

  /// Throws std::invalid_argument on out-of-range values (negative
  /// delays, probabilities outside [0, 1]).
  void validate() const;
};

/// One impairment draw for one physical frame copy: how long the link
/// holds it and whether its payload arrives damaged. Exactly three Rng
/// draws (jitter, reorder, corrupt) in that order, regardless of the
/// config values, so the consumed stream shape is config-independent.
struct FrameFate {
  double delay_s = 0.0;
  bool corrupt = false;
};
FrameFate draw_frame_fate(const ImpairmentConfig& config, Rng& rng);

/// One scheduled link event: a frame copy arriving (or a timer firing)
/// at virtual time `time`. `kind`, `frame_seq` and `generation` are
/// opaque to the queue — the ARQ engine defines them.
struct LinkEvent {
  double time = 0.0;
  std::uint64_t order = 0;  ///< Scheduling sequence number (tie-break).
  int kind = 0;
  std::uint32_t frame_seq = 0;
  std::uint64_t generation = 0;
  std::string bytes;  ///< Wire frame for arrival events.
};

/// Deterministic virtual-time event queue keyed by (deliver_time, order):
/// events at equal times pop in the order they were pushed, so two runs
/// with the same seed replay the same interleaving bit for bit — the
/// property the golden `impaired_arq` capsule pins across compilers.
class LinkEventQueue {
 public:
  /// Schedule an event; returns its tie-break order number.
  std::uint64_t push(double time, int kind, std::uint32_t frame_seq,
                     std::uint64_t generation, std::string bytes);

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  LinkEvent pop();

 private:
  struct Later {
    bool operator()(const LinkEvent& a, const LinkEvent& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.order > b.order;
    }
  };
  std::priority_queue<LinkEvent, std::vector<LinkEvent>, Later> heap_;
  std::uint64_t next_order_ = 0;
};

}  // namespace isomap
