#pragma once

#include <cstddef>

namespace isomap {

/// Peak resident-set size of this process in bytes (high-water mark since
/// process start), or 0 when the platform offers no cheap way to read it.
/// Backed by getrusage(RU_MAXRSS) on Linux. Used by the run summaries and
/// the deployment-scale bench to chart the memory cost of a round
/// alongside its wall time.
std::size_t peak_rss_bytes();

/// Current resident-set size in bytes (0 when unavailable). Parsed from
/// /proc/self/statm on Linux; unlike the peak, this can decrease, so
/// deltas around a phase bound that phase's live allocations.
std::size_t current_rss_bytes();

}  // namespace isomap
