#pragma once

#include <vector>

#include "net/comm_graph.hpp"
#include "net/transmission_log.hpp"
#include "util/rng.hpp"

namespace isomap {

/// Slotted-CSMA contention replay — a MAC-layer substrate in the spirit
/// of the B-MAC / Z-MAC schemes the paper cites (Section 3.1: "MAC layer
/// reliability ... can be easily added into this framework").
///
/// The protocols' idealized model gives every sender a clean slot; this
/// module replays a recorded TransmissionLog through a contention model
/// to quantify what the ideal numbers hide:
///
///  - Time is slotted; each slot carries one fixed-size frame.
///  - Senders whose routing-tree level is scheduled contend per slot
///    with probability `tx_probability` (p-persistent CSMA inside the
///    level's TDMA phase, as Z-MAC does between owners and stealers).
///  - A frame is received iff exactly zero *other* contenders transmit
///    within interference range of the receiver in that slot (collisions
///    destroy all overlapping frames at that receiver).
///  - A transmission is dropped after `max_slot_attempts` losses.
struct MacOptions {
  double frame_bytes = 32.0;       ///< Frame payload per slot.
  double tx_probability = 0.25;    ///< Per-slot transmit probability.
  int max_slot_attempts = 40;      ///< Attempts before giving up.
  /// Interference radius as a multiple of the communication radius (the
  /// standard two-ray assumption of interference reaching further than
  /// decodability).
  double interference_factor = 1.5;
  double slot_seconds = 32.0 * 8.0 / 38400.0;  ///< One frame at 38.4 kbps.
};

struct MacStats {
  long long frames_offered = 0;   ///< Frames the log required.
  long long frames_delivered = 0;
  long long frames_dropped = 0;   ///< Gave up after max attempts.
  long long collisions = 0;       ///< Slot-level collision events.
  long long slots_used = 0;       ///< Slots until the level drained.
  double airtime_wasted_bytes = 0.0;  ///< Bytes burned in collided frames.

  double delivery_ratio() const {
    return frames_offered
               ? static_cast<double>(frames_delivered) / frames_offered
               : 1.0;
  }
  double duration_s(const MacOptions& options) const {
    return slots_used * options.slot_seconds;
  }
};

/// Replay a transmission log level by level (deepest first, the TAG
/// schedule): all transmissions with the same sender_level contend with
/// each other; levels execute sequentially. Positions/interference come
/// from `graph` and the deployment behind it.
MacStats replay_with_contention(const TransmissionLog& log,
                                const Deployment& deployment,
                                const CommGraph& graph,
                                const MacOptions& options, Rng& rng);

}  // namespace isomap
