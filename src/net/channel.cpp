#include "net/channel.hpp"

#include <cmath>
#include <stdexcept>

#include "obs/node_telemetry.hpp"
#include "obs/obs.hpp"

namespace isomap {

namespace {

/// NaN fails every range check below.
bool in_closed_unit(double v) { return v >= 0.0 && v <= 1.0; }
bool in_half_open_unit(double v) { return v >= 0.0 && v < 1.0; }

}  // namespace

void LinkOptions::validate() const {
  // Checked in every mode: a perfect or bursty channel ignores `loss`,
  // but a NaN or out-of-range value is still a caller error.
  if (!in_half_open_unit(loss))
    throw std::invalid_argument("LinkOptions: loss must be in [0,1)");
  if (retries < 0)
    throw std::invalid_argument("LinkOptions: retries must be >= 0");
  if (burst) {
    if (!in_closed_unit(burst->p_enter_burst))
      throw std::invalid_argument(
          "LinkOptions: p_enter_burst must be in [0,1]");
    if (!(burst->p_exit_burst > 0.0 && burst->p_exit_burst <= 1.0))
      throw std::invalid_argument(
          "LinkOptions: p_exit_burst must be in (0,1]");
    if (!in_half_open_unit(burst->loss_good))
      throw std::invalid_argument("LinkOptions: loss_good must be in [0,1)");
    if (!in_closed_unit(burst->loss_bad))
      throw std::invalid_argument("LinkOptions: loss_bad must be in [0,1]");
  }
  if (impair) {
    impair->validate();
    arq.validate();
  }
}

Channel::Channel(const LinkOptions& link) : link_(link), rng_(link.seed) {
  link_.validate();
}

double Channel::attempt_loss() {
  if (!link_.burst) return link_.loss;
  const GilbertElliottParams& burst = *link_.burst;
  const double loss = in_burst_ ? burst.loss_bad : burst.loss_good;
  // Advance the two-state chain once per attempt.
  if (in_burst_) {
    if (rng_.bernoulli(burst.p_exit_burst)) in_burst_ = false;
  } else {
    if (rng_.bernoulli(burst.p_enter_burst)) in_burst_ = true;
  }
  return loss;
}

bool Channel::send(int from, int to, double bytes, Ledger& ledger) {
  if (perfect()) {
    ++attempts_;
    ledger.transmit(from, to, bytes);
    return true;
  }
  for (int attempt = 0; attempt <= link_.retries; ++attempt) {
    ++attempts_;
    if (attempt > 0) {
      ++retries_;
      obs::count("channel.retries");
      if (obs::NodeTelemetry* t = obs::telemetry()) t->add_retry(from);
    }
    if (rng_.bernoulli(attempt_loss())) {
      // Lost attempt: sender still burned the airtime; receiver decoded
      // nothing useful.
      ledger.transmit_lost(from, bytes);
      continue;
    }
    ledger.transmit(from, to, bytes);
    return true;
  }
  ++drops_;
  obs::count("channel.drops");
  if (obs::NodeTelemetry* t = obs::telemetry()) t->add_drop(from);
  return false;
}

Channel::Transfer Channel::transfer(int from, int to, double bytes,
                                    Ledger& ledger) {
  if (!link_.impair) return {send(from, to, bytes, ledger), 0.0};
  const ArqTransferStats stats = run_arq_transfer(
      from, to, bytes, *link_.impair, link_.arq, rng_,
      [this] { return rng_.bernoulli(attempt_loss()); }, ledger);
  attempts_ += stats.data_tx;
  retries_ += stats.retransmissions;
  dup_rx_ += stats.dup_rx;
  corrupt_rx_ += stats.corrupt_rx;
  arq_timeouts_ += stats.timeouts;
  acks_ += stats.acks_tx;
  if (!stats.delivered) {
    ++drops_;
    obs::count("channel.drops");
    if (obs::NodeTelemetry* t = obs::telemetry()) t->add_drop(from);
  }
  return {stats.delivered, stats.latency_s};
}

double Channel::delivery_probability() const {
  if (perfect()) return 1.0;
  if (!link_.burst) return 1.0 - std::pow(link_.loss, link_.retries + 1);
  const GilbertElliottParams& burst = *link_.burst;
  // Exact Gilbert–Elliott computation: march the chain forward from the
  // channel's current state, carrying the joint probability of ("every
  // attempt so far was lost", chain state). attempt_loss() reads the loss
  // of the current state and then advances the chain, so each step first
  // applies the state's loss, then the transition.
  double fail_good = in_burst_ ? 0.0 : 1.0;  // all-lost & chain in good
  double fail_bad = in_burst_ ? 1.0 : 0.0;   // all-lost & chain in bad
  for (int attempt = 0; attempt <= link_.retries; ++attempt) {
    const double lost_from_good = fail_good * burst.loss_good;
    const double lost_from_bad = fail_bad * burst.loss_bad;
    fail_good = lost_from_good * (1.0 - burst.p_enter_burst) +
                lost_from_bad * burst.p_exit_burst;
    fail_bad = lost_from_good * burst.p_enter_burst +
               lost_from_bad * (1.0 - burst.p_exit_burst);
  }
  return 1.0 - (fail_good + fail_bad);
}

}  // namespace isomap
