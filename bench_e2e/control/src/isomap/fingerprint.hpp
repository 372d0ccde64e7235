#pragma once

#include <cstdint>
#include <vector>

#include "isomap/report.hpp"

namespace isomap {

/// Word-at-a-time hash over the wire-relevant fields of a report set —
/// the per-level round fingerprint of the continuous engine's sink phase,
/// and the cache key the map service builds response keys from (see
/// docs/SERVICE.md "Cache-key semantics").
///
/// The mixer is a splitmix64-style avalanche per 64-bit field: cheap,
/// well-spread, and a pure function of the report bits (bit-pattern
/// equality, so +0.0 and -0.0 hash differently — matching the incremental
/// engine's "unchanged" notion). It is NOT stable across versions and
/// carries the usual 64-bit collision odds; consumers that need certainty
/// back it with an exact comparison (the incremental engine retains the
/// report copy; the service offers an oracle mode that rebuilds and
/// diffs).
std::uint64_t fingerprint_reports(const std::vector<IsolineReport>& reports);

}  // namespace isomap
