#pragma once

#include <chrono>

namespace isomap::e2e {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double ms_since(Clock::time_point a) {
  return ms_between(a, Clock::now());
}

}  // namespace isomap::e2e
