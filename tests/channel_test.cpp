#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <utility>

#include "net/channel.hpp"
#include "obs/obs.hpp"

namespace isomap {
namespace {

TEST(Channel, PerfectAlwaysDelivers) {
  Channel channel;
  Ledger ledger(2);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(channel.send(0, 1, 10.0, ledger));
  EXPECT_DOUBLE_EQ(ledger.tx_bytes(0), 1000.0);
  EXPECT_DOUBLE_EQ(ledger.rx_bytes(1), 1000.0);
  EXPECT_EQ(channel.drops(), 0);
  EXPECT_DOUBLE_EQ(channel.delivery_probability(), 1.0);
}

TEST(Channel, InvalidParametersThrow) {
  EXPECT_THROW(Channel(1.0, 3, Rng(1)), std::invalid_argument);
  EXPECT_THROW(Channel(-0.1, 3, Rng(1)), std::invalid_argument);
  EXPECT_THROW(Channel(0.5, -1, Rng(1)), std::invalid_argument);
}

TEST(Channel, DeliveryProbabilityFormula) {
  Channel channel(0.5, 1, Rng(1));
  EXPECT_DOUBLE_EQ(channel.delivery_probability(), 0.75);
  Channel no_retry(0.3, 0, Rng(1));
  EXPECT_DOUBLE_EQ(no_retry.delivery_probability(), 0.7);
}

TEST(Channel, EmpiricalDeliveryMatchesFormula) {
  Channel channel(0.4, 2, Rng(7));
  Ledger ledger(2);
  int delivered = 0;
  const int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i)
    delivered += channel.send(0, 1, 1.0, ledger) ? 1 : 0;
  const double expected = 1.0 - 0.4 * 0.4 * 0.4;  // 0.936
  EXPECT_NEAR(static_cast<double>(delivered) / kTrials, expected, 0.01);
  EXPECT_EQ(channel.drops(), kTrials - delivered);
}

TEST(Channel, LostAttemptsChargeTxOnly) {
  // With certain loss on every try (p close to 1, no retries), the sender
  // pays airtime while the receiver pays nothing.
  Channel channel(0.999, 0, Rng(3));
  Ledger ledger(2);
  int delivered = 0;
  for (int i = 0; i < 1000; ++i)
    delivered += channel.send(0, 1, 5.0, ledger) ? 1 : 0;
  EXPECT_LT(delivered, 20);
  EXPECT_DOUBLE_EQ(ledger.tx_bytes(0), 5000.0);
  EXPECT_DOUBLE_EQ(ledger.rx_bytes(1), 5.0 * delivered);
}

TEST(Channel, RetriesIncreaseAttemptCount) {
  Channel channel(0.5, 3, Rng(11));
  Ledger ledger(2);
  for (int i = 0; i < 1000; ++i) channel.send(0, 1, 1.0, ledger);
  // Expected attempts per send: sum_{k=0..3} 0.5^k = 1.875.
  EXPECT_NEAR(static_cast<double>(channel.attempts()) / 1000.0, 1.875, 0.1);
}

TEST(Channel, DeterministicForSeed) {
  Channel a(0.3, 2, Rng(5));
  Channel b(0.3, 2, Rng(5));
  Ledger la(2), lb(2);
  for (int i = 0; i < 200; ++i)
    EXPECT_EQ(a.send(0, 1, 1.0, la), b.send(0, 1, 1.0, lb));
}

TEST(Channel, NoRetryDropChargesOnlyLostTx) {
  // max_retries = 0: a drop is one paid transmission and zero received
  // bytes — the receiver never decodes, so it never pays RX.
  Channel channel(0.5, 0, Rng(9));
  Ledger ledger(2);
  int delivered = 0;
  const int kSends = 4000;
  for (int i = 0; i < kSends; ++i)
    delivered += channel.send(0, 1, 3.0, ledger) ? 1 : 0;
  EXPECT_EQ(channel.attempts(), kSends);  // No retries ever.
  EXPECT_DOUBLE_EQ(ledger.tx_bytes(0), 3.0 * kSends);
  EXPECT_DOUBLE_EQ(ledger.rx_bytes(1), 3.0 * delivered);
  EXPECT_EQ(channel.drops(), kSends - delivered);
}

TEST(GilbertElliott, ValidatesParameters) {
  GilbertElliottParams p;
  EXPECT_NO_THROW(Channel(p, 3, Rng(1)));
  p.p_enter_burst = 1.5;
  EXPECT_THROW(Channel(p, 3, Rng(1)), std::invalid_argument);
  p = {};
  p.p_exit_burst = 0.0;  // Would trap the chain in the burst state.
  EXPECT_THROW(Channel(p, 3, Rng(1)), std::invalid_argument);
  p = {};
  p.loss_good = 1.0;  // Certain loss even in the good state.
  EXPECT_THROW(Channel(p, 3, Rng(1)), std::invalid_argument);
  p = {};
  p.loss_bad = -0.1;
  EXPECT_THROW(Channel(p, 3, Rng(1)), std::invalid_argument);
  p = {};
  EXPECT_THROW(Channel(p, -1, Rng(1)), std::invalid_argument);
}

TEST(GilbertElliott, StationaryLossMatchesEmpirically) {
  GilbertElliottParams p{0.05, 0.2, 0.0, 0.8};
  // stationary_bad = 0.05 / 0.25 = 0.2; mean loss = 0.2 * 0.8 = 0.16.
  EXPECT_NEAR(p.stationary_bad(), 0.2, 1e-12);
  EXPECT_NEAR(p.mean_loss(), 0.16, 1e-12);
  Channel channel(p, 0, Rng(17));
  Ledger ledger(2);
  int delivered = 0;
  const int kSends = 50000;
  for (int i = 0; i < kSends; ++i)
    delivered += channel.send(0, 1, 1.0, ledger) ? 1 : 0;
  EXPECT_NEAR(1.0 - static_cast<double>(delivered) / kSends, p.mean_loss(),
              0.01);
}

TEST(GilbertElliott, LossesComeInBursts) {
  // Compare the drop autocorrelation of a GE channel against an i.i.d.
  // channel of the same mean loss: bursts make consecutive drops far more
  // likely.
  const GilbertElliottParams p{0.02, 0.1, 0.0, 1.0};  // mean loss 1/6.
  const auto consecutive_drop_rate = [](Channel channel) {
    Ledger ledger(2);
    int pairs = 0, drops = 0;
    bool prev_drop = false;
    for (int i = 0; i < 30000; ++i) {
      const bool drop = !channel.send(0, 1, 1.0, ledger);
      if (drop) {
        ++drops;
        if (prev_drop) ++pairs;
      }
      prev_drop = drop;
    }
    return drops ? static_cast<double>(pairs) / drops : 0.0;
  };
  const double bursty = consecutive_drop_rate(Channel(p, 0, Rng(23)));
  const double iid =
      consecutive_drop_rate(Channel(p.mean_loss(), 0, Rng(23)));
  EXPECT_GT(bursty, 2.0 * iid);
}

TEST(GilbertElliott, DeterministicPerSeedAndNeverDropsWhenQuiet) {
  const GilbertElliottParams p{0.03, 0.25, 0.01, 0.9};
  Channel a(p, 2, Rng(31));
  Channel b(p, 2, Rng(31));
  Ledger la(2), lb(2);
  for (int i = 0; i < 500; ++i)
    EXPECT_EQ(a.send(0, 1, 1.0, la), b.send(0, 1, 1.0, lb));
  EXPECT_TRUE(a.bursty());

  // p_enter = 0 and loss_good = 0: the chain never leaves the good state
  // and never drops; the channel still reports itself as bursty (not
  // perfect) but behaves losslessly.
  Channel quiet(GilbertElliottParams{0.0, 0.5, 0.0, 0.9}, 0, Rng(1));
  Ledger ledger(2);
  for (int i = 0; i < 1000; ++i)
    EXPECT_TRUE(quiet.send(0, 1, 1.0, ledger));
  EXPECT_EQ(quiet.drops(), 0);
}

TEST(Channel, MakeSelectsIidOrBurstMode) {
  const Channel iid = Channel::make(0.2, 3, 42, std::nullopt);
  EXPECT_FALSE(iid.bursty());
  EXPECT_EQ(iid.max_retries(), 3);
  const Channel ge =
      Channel::make(0.2, 3, 42, GilbertElliottParams{0.02, 0.25, 0.0, 0.8});
  EXPECT_TRUE(ge.bursty());  // The burst spec wins over the scalar loss.
  const Channel perfect = Channel::make(0.0, 3, 42, std::nullopt);
  EXPECT_TRUE(perfect.perfect());
}

TEST(Channel, MakeValidatesLinkOptionsInEveryMode) {
  // The perfect and bursty channels ignore the scalar loss, but a bad
  // value is still rejected rather than silently accepted.
  const std::optional<GilbertElliottParams> burst =
      GilbertElliottParams{0.02, 0.25, 0.0, 0.8};
  const ImpairmentConfig impair;
  for (const auto& mode :
       {std::optional<GilbertElliottParams>{}, burst}) {
    for (const double loss :
         {std::numeric_limits<double>::quiet_NaN(),
          std::numeric_limits<double>::infinity(), -0.5, 1.0, 1.5}) {
      EXPECT_THROW(Channel::make(loss, 3, 1, mode), std::invalid_argument)
          << "loss " << loss;
      EXPECT_THROW(Channel::make(loss, 3, 1, mode, impair),
                   std::invalid_argument)
          << "impaired, loss " << loss;
    }
    EXPECT_THROW(Channel::make(0.0, -4, 1, mode), std::invalid_argument);
    EXPECT_THROW(Channel::make(0.2, -1, 1, mode), std::invalid_argument);
    EXPECT_THROW(Channel::make(0.0, -4, 1, mode, impair),
                 std::invalid_argument);
    EXPECT_NO_THROW(Channel::make(0.0, 0, 1, mode));
  }
  EXPECT_THROW(Channel(std::numeric_limits<double>::quiet_NaN(), 3, Rng(1)),
               std::invalid_argument);
}

TEST(Channel, RetryAndDropCountersReachTheRegistry) {
  obs::MetricsRegistry metrics;
  {
    const obs::ObsScope scope(&metrics, nullptr);
    Channel channel(0.5, 2, Rng(13));
    Ledger ledger(2);
    for (int i = 0; i < 2000; ++i) channel.send(0, 1, 1.0, ledger);
    EXPECT_EQ(static_cast<long long>(metrics.counter("channel.retries")),
              channel.retries());
    EXPECT_EQ(static_cast<long long>(metrics.counter("channel.drops")),
              channel.drops());
    EXPECT_GT(metrics.counter("channel.retries"), 0.0);
    EXPECT_GT(metrics.counter("channel.drops"), 0.0);
  }
  // Outside the scope the counters no-op: sends still work and the
  // registry stays frozen.
  const double drops_before = metrics.counter("channel.drops");
  Channel bare(0.5, 1, Rng(3));
  Ledger ledger(2);
  for (int i = 0; i < 100; ++i) bare.send(0, 1, 1.0, ledger);
  EXPECT_GT(bare.drops(), 0);
  EXPECT_DOUBLE_EQ(metrics.counter("channel.drops"), drops_before);
}

// --- Exact Gilbert–Elliott delivery probability ------------------------

TEST(GilbertElliott, UniformLossReducesToIidFormula) {
  // When both chain states lose with the same probability, the transition
  // probabilities are irrelevant and the exact computation must collapse
  // to the iid closed form 1 - p^(retries+1).
  GilbertElliottParams burst;
  burst.p_enter_burst = 0.2;
  burst.p_exit_burst = 0.4;
  burst.loss_good = 0.3;
  burst.loss_bad = 0.3;
  const Channel channel = Channel::make(0.0, 2, 11, burst);
  EXPECT_NEAR(channel.delivery_probability(), 1.0 - 0.3 * 0.3 * 0.3, 1e-12);
}

TEST(GilbertElliott, ExactDeliveryProbabilityMatchesMonteCarlo) {
  // A fresh channel starts in the good state; the chain recursion must
  // match the empirical first-batch delivery rate across many channels.
  GilbertElliottParams burst;
  burst.p_enter_burst = 0.25;
  burst.p_exit_burst = 0.35;
  burst.loss_good = 0.05;
  burst.loss_bad = 0.8;
  const double predicted =
      Channel::make(0.0, 2, 1, burst).delivery_probability();
  // Sanity: the old approximation (iid at the stationary loss rate) is
  // measurably different for these parameters, so this test would catch
  // a regression to it.
  const double pi_bad =
      burst.p_enter_burst / (burst.p_enter_burst + burst.p_exit_burst);
  const double stationary =
      (1.0 - pi_bad) * burst.loss_good + pi_bad * burst.loss_bad;
  const double iid_approx = 1.0 - stationary * stationary * stationary;
  EXPECT_GT(std::abs(predicted - iid_approx), 0.02);

  int delivered = 0;
  const int kTrials = 40000;
  for (int i = 0; i < kTrials; ++i) {
    Channel channel = Channel::make(0.0, 2, 1000 + i, burst);
    Ledger ledger(2);
    delivered += channel.send(0, 1, 1.0, ledger) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(delivered) / kTrials, predicted, 0.01);
}

TEST(GilbertElliott, ExactDeliveryProbabilityTracksChainState) {
  // delivery_probability() is conditioned on the channel's *current*
  // state, so mid-stream it takes one of two values (from-good /
  // from-bad). Group outcomes by the prediction made immediately before
  // each send: every group's empirical rate must match its prediction.
  GilbertElliottParams burst;
  burst.p_enter_burst = 0.15;
  burst.p_exit_burst = 0.25;
  burst.loss_good = 0.02;
  burst.loss_bad = 0.9;
  Channel channel = Channel::make(0.0, 1, 77, burst);
  Ledger ledger(2);
  std::map<double, std::pair<int, int>> by_prediction;  // p -> {n, delivered}
  for (int i = 0; i < 60000; ++i) {
    const double p = channel.delivery_probability();
    auto& bucket = by_prediction[p];
    ++bucket.first;
    bucket.second += channel.send(0, 1, 1.0, ledger) ? 1 : 0;
  }
  ASSERT_EQ(by_prediction.size(), 2u);  // from-good and from-bad
  for (const auto& [p, bucket] : by_prediction) {
    ASSERT_GT(bucket.first, 1000);
    EXPECT_NEAR(static_cast<double>(bucket.second) / bucket.first, p, 0.02);
  }
}

}  // namespace
}  // namespace isomap
