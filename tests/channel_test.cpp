#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "baselines/escan.hpp"
#include "baselines/inlr.hpp"
#include "baselines/tinydb.hpp"
#include "isomap/protocol.hpp"
#include "net/channel.hpp"
#include "obs/obs.hpp"

namespace isomap {
namespace {

LinkOptions iid_link(double loss, int retries, std::uint64_t seed) {
  LinkOptions link;
  link.loss = loss;
  link.retries = retries;
  link.seed = seed;
  return link;
}

LinkOptions burst_link(const GilbertElliottParams& burst, int retries = 3,
                       std::uint64_t seed = 1) {
  LinkOptions link = iid_link(0.0, retries, seed);
  link.burst = burst;
  return link;
}

LinkOptions impaired_link(const ImpairmentConfig& impair = {}) {
  LinkOptions link;
  link.impair = impair;
  return link;
}

Channel iid(double loss, int retries, std::uint64_t seed) {
  return Channel(iid_link(loss, retries, seed));
}

Channel bursty(const GilbertElliottParams& burst, int retries,
               std::uint64_t seed) {
  return Channel(burst_link(burst, retries, seed));
}

/// One unimpaired hop from node 0 to node 1.
bool send(Channel& channel, double bytes, Ledger& ledger) {
  return channel.transfer(0, 1, bytes, ledger).delivered;
}

TEST(Channel, PerfectAlwaysDelivers) {
  Channel channel;
  Ledger ledger(2);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(send(channel, 10.0, ledger));
  EXPECT_DOUBLE_EQ(ledger.tx_bytes(0), 1000.0);
  EXPECT_DOUBLE_EQ(ledger.rx_bytes(1), 1000.0);
  EXPECT_EQ(channel.drops(), 0);
  EXPECT_DOUBLE_EQ(channel.delivery_probability(), 1.0);
}

TEST(Channel, DeliveryProbabilityFormula) {
  Channel channel = iid(0.5, 1, 1);
  EXPECT_DOUBLE_EQ(channel.delivery_probability(), 0.75);
  Channel no_retry = iid(0.3, 0, 1);
  EXPECT_DOUBLE_EQ(no_retry.delivery_probability(), 0.7);
}

TEST(Channel, EmpiricalDeliveryMatchesFormula) {
  Channel channel = iid(0.4, 2, 7);
  Ledger ledger(2);
  int delivered = 0;
  const int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i)
    delivered += send(channel, 1.0, ledger) ? 1 : 0;
  const double expected = 1.0 - 0.4 * 0.4 * 0.4;  // 0.936
  EXPECT_NEAR(static_cast<double>(delivered) / kTrials, expected, 0.01);
  EXPECT_EQ(channel.drops(), kTrials - delivered);
}

TEST(Channel, LostAttemptsChargeTxOnly) {
  // With certain loss on every try (p close to 1, no retries), the sender
  // pays airtime while the receiver pays nothing.
  Channel channel = iid(0.999, 0, 3);
  Ledger ledger(2);
  int delivered = 0;
  for (int i = 0; i < 1000; ++i)
    delivered += send(channel, 5.0, ledger) ? 1 : 0;
  EXPECT_LT(delivered, 20);
  EXPECT_DOUBLE_EQ(ledger.tx_bytes(0), 5000.0);
  EXPECT_DOUBLE_EQ(ledger.rx_bytes(1), 5.0 * delivered);
}

TEST(Channel, RetriesIncreaseAttemptCount) {
  Channel channel = iid(0.5, 3, 11);
  Ledger ledger(2);
  for (int i = 0; i < 1000; ++i) send(channel, 1.0, ledger);
  // Expected attempts per send: sum_{k=0..3} 0.5^k = 1.875.
  EXPECT_NEAR(static_cast<double>(channel.attempts()) / 1000.0, 1.875, 0.1);
}

TEST(Channel, DeterministicForSeed) {
  Channel a = iid(0.3, 2, 5);
  Channel b = iid(0.3, 2, 5);
  Ledger la(2), lb(2);
  for (int i = 0; i < 200; ++i)
    EXPECT_EQ(send(a, 1.0, la), send(b, 1.0, lb));
}

TEST(Channel, NoRetryDropChargesOnlyLostTx) {
  // max_retries = 0: a drop is one paid transmission and zero received
  // bytes — the receiver never decodes, so it never pays RX.
  Channel channel = iid(0.5, 0, 9);
  Ledger ledger(2);
  int delivered = 0;
  const int kSends = 4000;
  for (int i = 0; i < kSends; ++i)
    delivered += send(channel, 3.0, ledger) ? 1 : 0;
  EXPECT_EQ(channel.attempts(), kSends);  // No retries ever.
  EXPECT_DOUBLE_EQ(ledger.tx_bytes(0), 3.0 * kSends);
  EXPECT_DOUBLE_EQ(ledger.rx_bytes(1), 3.0 * delivered);
  EXPECT_EQ(channel.drops(), kSends - delivered);
}

TEST(GilbertElliott, StationaryLossMatchesEmpirically) {
  GilbertElliottParams p{0.05, 0.2, 0.0, 0.8};
  // stationary_bad = 0.05 / 0.25 = 0.2; mean loss = 0.2 * 0.8 = 0.16.
  EXPECT_NEAR(p.stationary_bad(), 0.2, 1e-12);
  EXPECT_NEAR(p.mean_loss(), 0.16, 1e-12);
  Channel channel = bursty(p, 0, 17);
  Ledger ledger(2);
  int delivered = 0;
  const int kSends = 50000;
  for (int i = 0; i < kSends; ++i)
    delivered += send(channel, 1.0, ledger) ? 1 : 0;
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
      const bool drop = !send(channel, 1.0, ledger);
      if (drop) {
        ++drops;
        if (prev_drop) ++pairs;
      }
      prev_drop = drop;
    }
    return drops ? static_cast<double>(pairs) / drops : 0.0;
  };
  const double burst_rate = consecutive_drop_rate(bursty(p, 0, 23));
  const double iid_rate = consecutive_drop_rate(iid(p.mean_loss(), 0, 23));
  EXPECT_GT(burst_rate, 2.0 * iid_rate);
}

TEST(GilbertElliott, DeterministicPerSeedAndNeverDropsWhenQuiet) {
  const GilbertElliottParams p{0.03, 0.25, 0.01, 0.9};
  Channel a = bursty(p, 2, 31);
  Channel b = bursty(p, 2, 31);
  Ledger la(2), lb(2);
  for (int i = 0; i < 500; ++i)
    EXPECT_EQ(send(a, 1.0, la), send(b, 1.0, lb));
  EXPECT_TRUE(a.bursty());

  // p_enter = 0 and loss_good = 0: the chain never leaves the good state
  // and never drops; the channel still reports itself as bursty (not
  // perfect) but behaves losslessly.
  Channel quiet = bursty({0.0, 0.5, 0.0, 0.9}, 0, 1);
  Ledger ledger(2);
  for (int i = 0; i < 1000; ++i)
    EXPECT_TRUE(send(quiet, 1.0, ledger));
  EXPECT_EQ(quiet.drops(), 0);
}

TEST(Channel, LinkOptionsSelectIidOrBurstMode) {
  EXPECT_FALSE(iid(0.2, 3, 42).bursty());
  LinkOptions both = burst_link(GilbertElliottParams{});
  both.loss = 0.2;
  EXPECT_TRUE(Channel(both).bursty());  // The burst wins over the loss.
  EXPECT_TRUE(iid(0.0, 3, 42).perfect());
  EXPECT_TRUE(Channel().perfect());
  EXPECT_FALSE(Channel().impaired());
  EXPECT_TRUE(Channel(impaired_link()).impaired());
}

/// One invalid link, tried in every loss mode the rule applies to.
struct BadLink {
  const char* what;
  LinkOptions link;
};

std::vector<BadLink> bad_links() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<BadLink> out;
  // Loss and retries are checked in every mode, though a bursty channel
  // ignores the scalar loss.
  const std::vector<std::pair<const char*, LinkOptions>> modes = {
      {"perfect", LinkOptions{}},
      {"bursty", burst_link(GilbertElliottParams{})},
      {"impaired", impaired_link()}};
  for (const auto& [mode, base] : modes) {
    for (const double loss : {nan, inf, -0.5, 1.0, 1.5}) {
      LinkOptions link = base;
      link.loss = loss;
      out.push_back({mode, link});
    }
    for (const int retries : {-1, -4}) {
      LinkOptions link = base;
      link.retries = retries;
      out.push_back({mode, link});
    }
  }
  const auto burst = [&](auto&& bend) {
    GilbertElliottParams p;
    bend(p);
    out.push_back({"burst", burst_link(p)});
  };
  burst([&](auto& p) { p.p_enter_burst = 1.5; });
  burst([&](auto& p) { p.p_enter_burst = -0.1; });
  burst([&](auto& p) { p.p_enter_burst = nan; });
  burst([&](auto& p) { p.p_exit_burst = 0.0; });  // Bursts could not end.
  burst([&](auto& p) { p.p_exit_burst = 1.5; });
  burst([&](auto& p) { p.loss_good = 1.0; });  // Certain loss when good.
  burst([&](auto& p) { p.loss_good = -0.1; });
  burst([&](auto& p) { p.loss_bad = -0.1; });
  burst([&](auto& p) { p.loss_bad = 1.5; });
  burst([&](auto& p) { p.loss_bad = nan; });
  ImpairmentConfig impair;
  impair.dup_prob = 1.5;
  out.push_back({"impair", impaired_link(impair)});
  LinkOptions bad_arq = impaired_link();
  bad_arq.arq.window = 0;
  out.push_back({"arq", bad_arq});
  return out;
}

/// Every constructor that takes a link: the channel and the four
/// protocols that own one.
std::vector<std::pair<const char*, std::function<void(const LinkOptions&)>>>
link_constructors() {
  return {
      {"Channel", [](const LinkOptions& link) { (void)Channel(link); }},
      {"IsoMapProtocol",
       [](const LinkOptions& link) {
         IsoMapOptions options;
         options.link = link;
         (void)IsoMapProtocol(options);
       }},
      {"TinyDBProtocol",
       [](const LinkOptions& link) {
         TinyDBOptions options;
         options.link = link;
         (void)TinyDBProtocol(options);
       }},
      {"InlrProtocol",
       [](const LinkOptions& link) {
         InlrOptions options;
         options.link = link;
         (void)InlrProtocol(options);
       }},
      {"EScanProtocol", [](const LinkOptions& link) {
         EScanOptions options;
         options.link = link;
         (void)EScanProtocol(options);
       }}};
}

TEST(LinkOptions, EveryConstructorRejectsEveryInvalidLink) {
  const std::vector<BadLink> bad = bad_links();
  for (const auto& [name, construct] : link_constructors()) {
    SCOPED_TRACE(name);
    for (std::size_t i = 0; i < bad.size(); ++i) {
      EXPECT_THROW(bad[i].link.validate(), std::invalid_argument)
          << bad[i].what << " #" << i;
      EXPECT_THROW(construct(bad[i].link), std::invalid_argument)
          << bad[i].what << " #" << i;
    }
    // The boundary values are links.
    for (const LinkOptions& link :
         {LinkOptions{}, iid_link(0.0, 0, 1), iid_link(0.99, 0, 1),
          burst_link({1.0, 1.0, 0.0, 1.0}), impaired_link()})
      EXPECT_NO_THROW(construct(link));
  }
}

TEST(Channel, RetryAndDropCountersReachTheRegistry) {
  obs::MetricsRegistry metrics;
  {
    const obs::ObsScope scope(&metrics, nullptr);
    Channel channel = iid(0.5, 2, 13);
    Ledger ledger(2);
    for (int i = 0; i < 2000; ++i) send(channel, 1.0, ledger);
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
  Channel bare = iid(0.5, 1, 3);
  Ledger ledger(2);
  for (int i = 0; i < 100; ++i) send(bare, 1.0, ledger);
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
  const Channel channel = bursty(burst, 2, 11);
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
      bursty(burst, 2, 1).delivery_probability();
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
    Channel channel = bursty(burst, 2, 1000 + i);
    Ledger ledger(2);
    delivered += send(channel, 1.0, ledger) ? 1 : 0;
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
  Channel channel = bursty(burst, 1, 77);
  Ledger ledger(2);
  std::map<double, std::pair<int, int>> by_prediction;  // p -> {n, delivered}
  for (int i = 0; i < 60000; ++i) {
    const double p = channel.delivery_probability();
    auto& bucket = by_prediction[p];
    ++bucket.first;
    bucket.second += send(channel, 1.0, ledger) ? 1 : 0;
  }
  ASSERT_EQ(by_prediction.size(), 2u);  // from-good and from-bad
  for (const auto& [p, bucket] : by_prediction) {
    ASSERT_GT(bucket.first, 1000);
    EXPECT_NEAR(static_cast<double>(bucket.second) / bucket.first, p, 0.02);
  }
}

}  // namespace
}  // namespace isomap
