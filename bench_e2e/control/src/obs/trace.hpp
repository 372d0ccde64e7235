#pragma once

#include <cstddef>
#include <fstream>
#include <memory>
#include <ostream>
#include <string>

#include "util/json.hpp"

namespace isomap::obs {

/// One structured trace record. Kinds:
///  - "cost":  a ledger charge (tx/rx bytes, ops) attributed to the phase
///             that was active when it was made — summing cost events over
///             a trace reconciles exactly with the run's Ledger totals.
///  - "drop":  an in-network filter drop: `node` is the filtering node,
///             `peer` the dropped report's source, `isolevel` its level,
///             `report` the dropped report's causal id.
///  - "span":  one hop of a report's path: `report` is the causal id
///             assigned at generation, `hop` the path length so far
///             (0 = the generation event at the source), `node` the
///             sender and `peer` the receiver for transit hops. A
///             report's full source→relays→sink path reconstructs by
///             ordering its span events by `hop`.
///  - "loss":  a report that died in flight: `report` its causal id,
///             `node` where it was lost (`peer` the unreachable next hop
///             for channel losses; -1 for crash losses).
///  - "phase": a phase completion with its wall time (`wall_s`).
///  - "note":  anything else (protocol milestones).
/// Unused fields keep their defaults and are omitted from the JSONL line.
struct TraceEvent {
  const char* kind = "cost";
  const char* phase = "";
  int node = -1;     ///< Acting node (sender / filterer / computer).
  int peer = -1;     ///< Counterpart (receiver / dropped source).
  long long report = -1;  ///< Per-report causal id; < 0 = not a span.
  int hop = -1;      ///< Hop index along a report's path; < 0 = unset.
  double isolevel = kNoLevel;
  double tx_bytes = 0.0;
  double rx_bytes = 0.0;
  double ops = 0.0;
  double wall_s = -1.0;  ///< Wall time in seconds; < 0 = not measured.
  double latency_s = -1.0;  ///< Virtual link latency of a span's hop over
                            ///< the impaired pipeline; < 0 = not measured.

  static constexpr double kNoLevel = -1e300;
};

/// Append-only JSONL sink: one compact JSON object per event, one event
/// per line. Construct over a file path or any ostream (tests use a
/// stringstream). Writing is buffered by the underlying stream; call
/// flush() or destroy the sink before reading the file back.
class TraceSink {
 public:
  /// Opens `path` for writing (truncates). ok() reports open failure.
  explicit TraceSink(const std::string& path);
  /// Write to a caller-owned stream (kept by reference).
  explicit TraceSink(std::ostream& out);

  bool ok() const { return out_ != nullptr && out_->good(); }
  std::size_t events() const { return events_; }
  void flush();

  void emit(const TraceEvent& event);

 private:
  std::unique_ptr<std::ofstream> owned_;
  std::ostream* out_ = nullptr;
  std::size_t events_ = 0;
  std::string line_;  ///< Reused serialization buffer.
};

}  // namespace isomap::obs
