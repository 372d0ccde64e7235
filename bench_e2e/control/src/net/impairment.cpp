#include "net/impairment.hpp"

#include <stdexcept>
#include <utility>

namespace isomap {

namespace {

void check_prob(double p, const char* what) {
  if (!(p >= 0.0 && p <= 1.0))
    throw std::invalid_argument(std::string("ImpairmentConfig: ") + what +
                                " must be in [0, 1]");
}

void check_delay(double s, const char* what) {
  if (!(s >= 0.0))
    throw std::invalid_argument(std::string("ImpairmentConfig: ") + what +
                                " must be >= 0");
}

}  // namespace

void ImpairmentConfig::validate() const {
  check_delay(latency_s, "latency_s");
  check_delay(jitter_s, "jitter_s");
  check_delay(reorder_extra_s, "reorder_extra_s");
  check_prob(dup_prob, "dup_prob");
  check_prob(reorder_prob, "reorder_prob");
  check_prob(corrupt_prob, "corrupt_prob");
}

FrameFate draw_frame_fate(const ImpairmentConfig& config, Rng& rng) {
  FrameFate fate;
  fate.delay_s = config.latency_s + rng.uniform() * config.jitter_s;
  if (rng.bernoulli(config.reorder_prob))
    fate.delay_s += config.reorder_extra_s;
  fate.corrupt = rng.bernoulli(config.corrupt_prob);
  return fate;
}

std::uint64_t LinkEventQueue::push(double time, int kind,
                                   std::uint32_t frame_seq,
                                   std::uint64_t generation,
                                   std::string bytes) {
  LinkEvent event;
  event.time = time;
  event.order = next_order_++;
  event.kind = kind;
  event.frame_seq = frame_seq;
  event.generation = generation;
  event.bytes = std::move(bytes);
  const std::uint64_t order = event.order;
  heap_.push(std::move(event));
  return order;
}

LinkEvent LinkEventQueue::pop() {
  LinkEvent event = heap_.top();
  heap_.pop();
  return event;
}

}  // namespace isomap
