#pragma once

#include <vector>

namespace isomap {

/// One link-layer transmission attempt recorded by a protocol run: the
/// raw material for MAC-layer studies (contention, scheduling) that want
/// to replay a protocol's traffic pattern without re-running it.
struct Transmission {
  int from = -1;
  int to = -1;
  double bytes = 0.0;
  /// Routing-tree level of the sender at send time; transmissions of the
  /// same level share a TDMA slot group (TAG scheduling).
  int sender_level = 0;
};

using TransmissionLog = std::vector<Transmission>;

}  // namespace isomap
