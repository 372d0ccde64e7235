#include "isomap/fingerprint.hpp"

#include <bit>

namespace isomap {

std::uint64_t fingerprint_reports(const std::vector<IsolineReport>& reports) {
  std::uint64_t h = 0x9e3779b97f4a7c15ull;
  const auto mix = [&h](std::uint64_t x) {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    h = (h ^ x) * 0x2545f4914f6cdd1dull;
  };
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  mix(reports.size());
  for (const auto& r : reports) {
    mix(bits(r.isolevel));
    mix(bits(r.position.x));
    mix(bits(r.position.y));
    mix(bits(r.gradient.x));
    mix(bits(r.gradient.y));
    mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(r.source)));
  }
  return h;
}

}  // namespace isomap
