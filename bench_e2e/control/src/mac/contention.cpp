#include "mac/contention.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "geometry/point_index.hpp"

namespace isomap {
namespace {

/// One pending sender within a level phase.
struct PendingFrame {
  int from;
  int to;
  int frames_left;
  int attempts = 0;
};

}  // namespace

MacStats replay_with_contention(const TransmissionLog& log,
                                const Deployment& deployment,
                                const CommGraph& graph,
                                const MacOptions& options, Rng& rng) {
  MacStats stats;
  if (log.empty()) return stats;

  // Spatial index over all node positions for interference queries.
  std::vector<Vec2> positions;
  positions.reserve(static_cast<std::size_t>(deployment.size()));
  for (const auto& node : deployment.nodes()) positions.push_back(node.pos);
  const PointIndex index(positions);
  const double interference_radius =
      graph.radio_range() * options.interference_factor;

  // Group transmissions by sender level, deepest first (TAG order).
  std::map<int, std::vector<PendingFrame>, std::greater<int>> levels;
  for (const auto& t : log) {
    const int frames = std::max(
        1, static_cast<int>(std::ceil(t.bytes / options.frame_bytes)));
    levels[t.sender_level].push_back({t.from, t.to, frames, 0});
    stats.frames_offered += frames;
  }

  for (auto& [level, pending] : levels) {
    (void)level;
    while (!pending.empty()) {
      ++stats.slots_used;
      // Which pending senders transmit this slot?
      std::vector<std::size_t> transmitting;
      for (std::size_t i = 0; i < pending.size(); ++i) {
        if (rng.bernoulli(options.tx_probability)) transmitting.push_back(i);
      }
      if (transmitting.empty()) continue;

      // Success test per transmission: no other transmitter within
      // interference range of the receiver.
      std::vector<bool> success(transmitting.size(), true);
      for (std::size_t a = 0; a < transmitting.size(); ++a) {
        const PendingFrame& frame = pending[transmitting[a]];
        const Vec2 rx = positions[static_cast<std::size_t>(frame.to)];
        for (std::size_t b = 0; b < transmitting.size(); ++b) {
          if (a == b) continue;
          const PendingFrame& other = pending[transmitting[b]];
          const Vec2 tx = positions[static_cast<std::size_t>(other.from)];
          if (rx.distance_to(tx) <= interference_radius) {
            success[a] = false;
            break;
          }
        }
      }

      // Apply results; erase finished/dropped senders (back to front so
      // indices stay valid).
      std::vector<std::size_t> to_erase;
      for (std::size_t a = 0; a < transmitting.size(); ++a) {
        PendingFrame& frame = pending[transmitting[a]];
        ++frame.attempts;
        if (success[a]) {
          ++stats.frames_delivered;
          --frame.frames_left;
          frame.attempts = 0;
          if (frame.frames_left == 0) to_erase.push_back(transmitting[a]);
        } else {
          ++stats.collisions;
          stats.airtime_wasted_bytes += options.frame_bytes;
          if (frame.attempts >= options.max_slot_attempts) {
            stats.frames_dropped += frame.frames_left;
            to_erase.push_back(transmitting[a]);
          }
        }
      }
      std::sort(to_erase.begin(), to_erase.end(), std::greater<>());
      for (std::size_t idx : to_erase)
        pending.erase(pending.begin() + static_cast<long>(idx));
    }
  }
  return stats;
}

}  // namespace isomap
