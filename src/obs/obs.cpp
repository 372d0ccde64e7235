#include "obs/obs.hpp"

#include <cstring>
#include <string>
#include <string_view>

namespace isomap::obs {

Context& context() {
  thread_local Context ctx;
  return ctx;
}

ObsScope::ObsScope(MetricsRegistry* metrics, TraceSink* trace)
    : ObsScope(metrics, trace, nullptr) {}

ObsScope::ObsScope(MetricsRegistry* metrics, TraceSink* trace,
                   NodeTelemetry* telemetry)
    : saved_(context()) {
  Context& ctx = context();
  ctx.metrics = metrics;
  ctx.trace = trace;
  ctx.telemetry = telemetry;
  ctx.phase = nullptr;
}

ObsScope::~ObsScope() { context() = saved_; }

PhaseTimer::PhaseTimer(const char* phase) {
  Context& ctx = context();
  if (ctx.metrics == nullptr && ctx.trace == nullptr &&
      ctx.telemetry == nullptr)
    return;
  armed_ = true;
  phase_ = phase;
  prev_phase_ = ctx.phase;
  ctx.phase = phase;
  start_ = std::chrono::steady_clock::now();
}

double PhaseTimer::stop() {
  if (!armed_) return 0.0;
  armed_ = false;
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  Context& ctx = context();
  ctx.phase = prev_phase_;
  if (ctx.metrics != nullptr) {
    // One histogram per phase label: repeated timers (e.g. one filter
    // merge per convergecast hop) aggregate into count/p50/p95. The name
    // is built on the stack, so a per-hop timer costs no allocation.
    constexpr std::string_view kPrefix = "phase.", kSuffix = ".seconds";
    const std::string_view label(phase_);
    char name[96];
    if (kPrefix.size() + label.size() + kSuffix.size() <= sizeof name) {
      char* end = name;
      for (const std::string_view part : {kPrefix, label, kSuffix}) {
        std::memcpy(end, part.data(), part.size());
        end += part.size();
      }
      ctx.metrics->observe(
          std::string_view(name, static_cast<std::size_t>(end - name)),
          elapsed);
    } else {
      ctx.metrics->observe(
          std::string(kPrefix) + std::string(label) + std::string(kSuffix),
          elapsed);
    }
  }
  if (ctx.trace != nullptr) {
    TraceEvent event;
    event.kind = "phase";
    event.phase = phase_;
    event.wall_s = elapsed;
    ctx.trace->emit(event);
  }
  return elapsed;
}

PhaseTimer::~PhaseTimer() { stop(); }

}  // namespace isomap::obs
