#include "net/channel.hpp"

#include <cmath>
#include <stdexcept>

#include "obs/node_telemetry.hpp"
#include "obs/obs.hpp"

namespace isomap {

Channel::Channel() : rng_(0) {}

Channel::Channel(double loss_probability, int max_retries, Rng rng)
    : loss_probability_(loss_probability),
      max_retries_(max_retries),
      rng_(rng) {
  if (!(loss_probability >= 0.0 && loss_probability < 1.0))
    throw std::invalid_argument("Channel: loss_probability must be in [0,1)");
  if (max_retries < 0)
    throw std::invalid_argument("Channel: max_retries must be >= 0");
}

Channel::Channel(const GilbertElliottParams& params, int max_retries, Rng rng)
    : max_retries_(max_retries), burst_(params), rng_(rng) {
  if (params.p_enter_burst < 0.0 || params.p_enter_burst > 1.0)
    throw std::invalid_argument("Channel: p_enter_burst must be in [0,1]");
  if (params.p_exit_burst <= 0.0 || params.p_exit_burst > 1.0)
    throw std::invalid_argument("Channel: p_exit_burst must be in (0,1]");
  if (params.loss_good < 0.0 || params.loss_good >= 1.0)
    throw std::invalid_argument("Channel: loss_good must be in [0,1)");
  if (params.loss_bad < 0.0 || params.loss_bad > 1.0)
    throw std::invalid_argument("Channel: loss_bad must be in [0,1]");
  if (max_retries < 0)
    throw std::invalid_argument("Channel: max_retries must be >= 0");
}

Channel Channel::make(double loss, int max_retries, std::uint64_t seed,
                      const std::optional<GilbertElliottParams>& burst) {
  // Checked in every mode: a perfect or bursty channel ignores `loss`,
  // but a NaN or out-of-range value is still a caller error.
  if (!(loss >= 0.0 && loss < 1.0))
    throw std::invalid_argument("Channel: loss must be finite and in [0,1)");
  if (max_retries < 0)
    throw std::invalid_argument("Channel: max_retries must be >= 0");
  if (burst) return Channel(*burst, max_retries, Rng(seed));
  if (loss > 0.0) return Channel(loss, max_retries, Rng(seed));
  return Channel();
}

Channel Channel::make(double loss, int max_retries, std::uint64_t seed,
                      const std::optional<GilbertElliottParams>& burst,
                      const std::optional<ImpairmentConfig>& impair,
                      const ArqConfig& arq) {
  Channel channel = make(loss, max_retries, seed, burst);
  if (impair) {
    impair->validate();
    arq.validate();
    channel.impair_ = impair;
    channel.arq_ = arq;
    // An impaired perfect channel still runs the ARQ engine (jitter,
    // dups, corruption exist without loss), so it needs a live Rng.
    channel.rng_ = Rng(seed);
  }
  return channel;
}

double Channel::attempt_loss() {
  if (!burst_) return loss_probability_;
  const double loss = in_burst_ ? burst_->loss_bad : burst_->loss_good;
  // Advance the two-state chain once per attempt.
  if (in_burst_) {
    if (rng_.bernoulli(burst_->p_exit_burst)) in_burst_ = false;
  } else {
    if (rng_.bernoulli(burst_->p_enter_burst)) in_burst_ = true;
  }
  return loss;
}

bool Channel::send(int from, int to, double bytes, Ledger& ledger) {
  if (perfect()) {
    ++attempts_;
    ledger.transmit(from, to, bytes);
    return true;
  }
  for (int attempt = 0; attempt <= max_retries_; ++attempt) {
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
  if (!impair_) return {send(from, to, bytes, ledger), 0.0};
  const ArqTransferStats stats = run_arq_transfer(
      from, to, bytes, *impair_, arq_, rng_,
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
  if (!burst_)
    return 1.0 - std::pow(loss_probability_, max_retries_ + 1);
  // Exact Gilbert–Elliott computation: march the chain forward from the
  // channel's current state, carrying the joint probability of ("every
  // attempt so far was lost", chain state). attempt_loss() reads the loss
  // of the current state and then advances the chain, so each step first
  // applies the state's loss, then the transition.
  double fail_good = in_burst_ ? 0.0 : 1.0;  // all-lost & chain in good
  double fail_bad = in_burst_ ? 1.0 : 0.0;   // all-lost & chain in bad
  for (int attempt = 0; attempt <= max_retries_; ++attempt) {
    const double lost_from_good = fail_good * burst_->loss_good;
    const double lost_from_bad = fail_bad * burst_->loss_bad;
    fail_good = lost_from_good * (1.0 - burst_->p_enter_burst) +
                lost_from_bad * burst_->p_exit_burst;
    fail_bad = lost_from_good * burst_->p_enter_burst +
               lost_from_bad * (1.0 - burst_->p_exit_burst);
  }
  return 1.0 - (fail_good + fail_bad);
}

}  // namespace isomap
