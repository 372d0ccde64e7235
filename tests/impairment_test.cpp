#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "net/channel.hpp"
#include "net/impairment.hpp"
#include "obs/node_telemetry.hpp"
#include "obs/obs.hpp"

namespace isomap {
namespace {

TEST(ImpairmentConfig, ValidatesRanges) {
  ImpairmentConfig ok;
  EXPECT_NO_THROW(ok.validate());

  ImpairmentConfig bad = ok;
  bad.latency_s = -0.001;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ok;
  bad.jitter_s = -1.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ok;
  bad.dup_prob = 1.5;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ok;
  bad.reorder_prob = -0.1;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ok;
  bad.reorder_extra_s = -0.5;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ok;
  bad.corrupt_prob = 2.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(LinkEventQueue, PopsByTimeThenInsertionOrder) {
  LinkEventQueue queue;
  queue.push(0.3, 1, 30, 0, "c");
  queue.push(0.1, 1, 10, 0, "a");
  queue.push(0.1, 1, 11, 0, "b");  // Equal time: FIFO with the previous.
  queue.push(0.2, 1, 20, 0, "d");
  std::vector<std::uint32_t> seqs;
  while (!queue.empty()) seqs.push_back(queue.pop().frame_seq);
  EXPECT_EQ(seqs, (std::vector<std::uint32_t>{10, 11, 20, 30}));
}

TEST(FrameFate, DelayWithinConfiguredBounds) {
  ImpairmentConfig config;
  config.latency_s = 0.01;
  config.jitter_s = 0.004;
  config.reorder_prob = 0.5;
  config.reorder_extra_s = 0.03;
  Rng rng(5);
  for (int i = 0; i < 5000; ++i) {
    const FrameFate fate = draw_frame_fate(config, rng);
    EXPECT_GE(fate.delay_s, config.latency_s);
    EXPECT_LT(fate.delay_s,
              config.latency_s + config.jitter_s + config.reorder_extra_s);
    EXPECT_FALSE(fate.corrupt);  // corrupt_prob is 0.
  }
}

TEST(FrameFate, StreamShapeIsConfigIndependent) {
  // Exactly three draws per fate regardless of which knobs are zero, so
  // changing one knob never re-times an unrelated one.
  ImpairmentConfig plain;  // All-zero impairments beyond base latency.
  ImpairmentConfig jittery;
  jittery.jitter_s = 0.004;
  Rng a(99), b(99);
  for (int i = 0; i < 1000; ++i) {
    (void)draw_frame_fate(plain, a);
    (void)draw_frame_fate(jittery, b);
  }
  // After the same number of fates both streams are in the same state.
  EXPECT_EQ(a.next(), b.next());
}

TEST(FrameFate, DeterministicPerSeed) {
  ImpairmentConfig config;
  config.jitter_s = 0.01;
  config.reorder_prob = 0.3;
  config.corrupt_prob = 0.2;
  Rng a(1234), b(1234);
  for (int i = 0; i < 2000; ++i) {
    const FrameFate fa = draw_frame_fate(config, a);
    const FrameFate fb = draw_frame_fate(config, b);
    EXPECT_EQ(fa.delay_s, fb.delay_s);
    EXPECT_EQ(fa.corrupt, fb.corrupt);
  }
}

// --- Impaired Channel::transfer behavior -------------------------------

Channel impaired_channel(const ImpairmentConfig& config,
                         std::uint64_t seed = 42, double loss = 0.0,
                         int retries = 3) {
  LinkOptions link;
  link.loss = loss;
  link.retries = retries;
  link.seed = seed;
  link.impair = config;
  return Channel(link);
}

TEST(ImpairedChannel, PerfectPipelineDeliversWithBaseLatency) {
  ImpairmentConfig config;  // Latency only: no jitter/dup/reorder/corrupt.
  Channel channel = impaired_channel(config);
  Ledger ledger(2);
  const Channel::Transfer t = channel.transfer(0, 1, 100.0, ledger);
  EXPECT_TRUE(t.delivered);
  // 100 payload bytes / 32 per frame = 4 frames, all within the default
  // window: the sender bursts them at t=0 and the receiver completes the
  // batch exactly one fixed link delay later.
  EXPECT_DOUBLE_EQ(t.latency_s, config.latency_s);
  EXPECT_EQ(channel.drops(), 0);
  EXPECT_EQ(channel.dup_rx(), 0);
  EXPECT_EQ(channel.corrupt_rx(), 0);
}

TEST(ImpairedChannel, JitterShiftsLatencyUp) {
  ImpairmentConfig calm;
  ImpairmentConfig jittery = calm;
  jittery.jitter_s = 0.02;
  double calm_total = 0.0, jittery_total = 0.0;
  for (int i = 0; i < 50; ++i) {
    Channel a = impaired_channel(calm, 100 + i);
    Channel b = impaired_channel(jittery, 100 + i);
    Ledger la(2), lb(2);
    calm_total += a.transfer(0, 1, 200.0, la).latency_s;
    jittery_total += b.transfer(0, 1, 200.0, lb).latency_s;
  }
  EXPECT_GT(jittery_total, calm_total);
}

TEST(ImpairedChannel, DuplicationIsSuppressedAtTheReceiver) {
  ImpairmentConfig config;
  config.dup_prob = 1.0;  // Every frame heard twice.
  Channel channel = impaired_channel(config);
  Ledger ledger(2);
  const Channel::Transfer t = channel.transfer(0, 1, 100.0, ledger);
  EXPECT_TRUE(t.delivered);
  EXPECT_GT(channel.dup_rx(), 0);
  // Duplicates cost the receiver energy but never corrupt the stream.
  EXPECT_GT(ledger.rx_bytes(1), 0.0);
}

TEST(ImpairedChannel, ReorderingStillDelivers) {
  ImpairmentConfig config;
  config.reorder_prob = 0.5;
  config.reorder_extra_s = 0.05;
  config.jitter_s = 0.01;
  for (int i = 0; i < 20; ++i) {
    Channel channel = impaired_channel(config, 500 + i);
    Ledger ledger(2);
    EXPECT_TRUE(channel.transfer(0, 1, 300.0, ledger).delivered);
  }
}

TEST(ImpairedChannel, SameSeedSameOutcome) {
  ImpairmentConfig config;
  config.jitter_s = 0.01;
  config.dup_prob = 0.2;
  config.reorder_prob = 0.2;
  config.corrupt_prob = 0.1;
  for (int i = 0; i < 10; ++i) {
    Channel a = impaired_channel(config, 7000 + i, 0.2, 3);
    Channel b = impaired_channel(config, 7000 + i, 0.2, 3);
    Ledger la(2), lb(2);
    const Channel::Transfer ta = a.transfer(0, 1, 150.0, la);
    const Channel::Transfer tb = b.transfer(0, 1, 150.0, lb);
    EXPECT_EQ(ta.delivered, tb.delivered);
    EXPECT_EQ(ta.latency_s, tb.latency_s);
    EXPECT_EQ(la.tx_bytes(0), lb.tx_bytes(0));
    EXPECT_EQ(la.rx_bytes(1), lb.rx_bytes(1));
    EXPECT_EQ(a.dup_rx(), b.dup_rx());
    EXPECT_EQ(a.corrupt_rx(), b.corrupt_rx());
    EXPECT_EQ(a.arq_timeouts(), b.arq_timeouts());
  }
}

TEST(ImpairedChannel, EnergySplitsSenderTxReceiverRx) {
  ImpairmentConfig config;
  config.dup_prob = 0.5;
  Channel channel = impaired_channel(config);
  Ledger ledger(2);
  ASSERT_TRUE(channel.transfer(0, 1, 100.0, ledger).delivered);
  // Data flows 0 -> 1 (node 0 pays tx, node 1 rx), ACKs flow 1 -> 0
  // (node 1 pays tx, node 0 rx) — all four lanes see traffic.
  EXPECT_GT(ledger.tx_bytes(0), 0.0);
  EXPECT_GT(ledger.rx_bytes(1), 0.0);
  EXPECT_GT(ledger.tx_bytes(1), 0.0);
  EXPECT_GT(ledger.rx_bytes(0), 0.0);
  // Duplication makes the receiver hear strictly more data bytes than
  // the sender's ACK-path rx.
  EXPECT_GT(ledger.rx_bytes(1), ledger.rx_bytes(0));
}

TEST(ImpairedChannel, UnimpairedTransferDrawsOneBernoulliPerAttempt) {
  // The pre-impairment contract every golden pins: without an impairment
  // config a transfer is instantaneous, and each attempt is one
  // bernoulli(loss) draw from Rng(seed), up to retries + 1 attempts.
  LinkOptions link;
  link.loss = 0.3;
  link.retries = 2;
  link.seed = 9001;
  Channel channel(link);
  Rng rng(9001);
  Ledger ledger(2);
  double tx = 0.0, rx = 0.0;
  long long drops = 0, retries = 0;
  for (int i = 0; i < 500; ++i) {
    bool delivered = false;
    for (int attempt = 0; attempt <= 2 && !delivered; ++attempt) {
      if (attempt > 0) ++retries;
      tx += 17.0;
      delivered = !rng.bernoulli(0.3);
    }
    if (delivered) rx += 17.0;
    else ++drops;
    const Channel::Transfer t = channel.transfer(0, 1, 17.0, ledger);
    EXPECT_EQ(t.delivered, delivered);
    EXPECT_EQ(t.latency_s, 0.0);
  }
  EXPECT_DOUBLE_EQ(ledger.tx_bytes(0), tx);
  EXPECT_DOUBLE_EQ(ledger.rx_bytes(1), rx);
  EXPECT_EQ(channel.drops(), drops);
  EXPECT_EQ(channel.retries(), retries);
}

TEST(ImpairedChannel, CountersReachRegistryAndTelemetry) {
  obs::MetricsRegistry metrics;
  obs::NodeTelemetry telemetry(2);
  ImpairmentConfig config;
  config.dup_prob = 0.5;
  config.corrupt_prob = 0.2;
  Channel channel = impaired_channel(config, 31337, 0.3, 2);
  Ledger ledger(2);
  {
    const obs::ObsScope scope(&metrics, nullptr, &telemetry);
    for (int i = 0; i < 50; ++i) channel.transfer(0, 1, 100.0, ledger);
  }
  EXPECT_EQ(static_cast<long long>(metrics.counter("channel.dup_rx")),
            channel.dup_rx());
  EXPECT_EQ(static_cast<long long>(metrics.counter("channel.corrupt_rx")),
            channel.corrupt_rx());
  EXPECT_EQ(static_cast<long long>(metrics.counter("channel.arq_timeouts")),
            channel.arq_timeouts());
  EXPECT_GT(channel.dup_rx(), 0);
  EXPECT_GT(channel.corrupt_rx(), 0);
  const obs::NodeTelemetrySnapshot snap = telemetry.snapshot();
  // Receiver-side events land on the receiver's row, timeouts on the
  // sender's.
  EXPECT_EQ(snap.dup_rx[1], channel.dup_rx());
  EXPECT_EQ(snap.corrupt_rx[0] + snap.corrupt_rx[1], channel.corrupt_rx());
  EXPECT_EQ(snap.arq_timeouts[0], channel.arq_timeouts());
  EXPECT_EQ(snap.dup_rx[0], 0);
}

}  // namespace
}  // namespace isomap
