#pragma once

#include <cstdint>
#include <optional>

#include "net/arq.hpp"
#include "net/impairment.hpp"
#include "net/ledger.hpp"
#include "util/rng.hpp"

namespace isomap {

/// Two-state bursty loss model (Gilbert–Elliott). The channel alternates
/// between a "good" state with loss `loss_good` and a "bad" (burst) state
/// with loss `loss_bad`; after every attempt it enters a burst with
/// probability `p_enter_burst` (from good) or leaves it with probability
/// `p_exit_burst` (from bad). This models the correlated outages —
/// interference, storms, passing ships — that i.i.d. loss cannot: during
/// a burst ARQ retries are nearly useless because consecutive attempts
/// fail together.
struct GilbertElliottParams {
  double p_enter_burst = 0.02;
  double p_exit_burst = 0.25;
  double loss_good = 0.0;
  double loss_bad = 0.8;

  /// Stationary probability of being in the burst state.
  double stationary_bad() const {
    const double denom = p_enter_burst + p_exit_burst;
    return denom > 0.0 ? p_enter_burst / denom : 0.0;
  }
  /// Long-run average per-attempt loss probability.
  double mean_loss() const {
    const double pi_bad = stationary_bad();
    return pi_bad * loss_bad + (1.0 - pi_bad) * loss_good;
  }
};

/// One protocol's link layer: the loss model, its ARQ retry budget, the
/// seed of its draws, and the optional impairment pipeline. Iso-Map,
/// TinyDB, INLR and eScan each hold one, so every comparison runs over
/// the identical link model. The defaults are the paper's perfect links
/// and reproduce the historical behavior bit for bit.
struct LinkOptions {
  /// Per-attempt i.i.d. loss, in [0, 1). The paper assumes perfect links
  /// (loss 0); a lost hop loses the whole batch it carried. Checked in
  /// every mode, though a bursty channel ignores it.
  double loss = 0.0;
  /// ARQ retries after the first attempt, >= 0.
  int retries = 3;
  std::uint64_t seed = 0xC0FFEEULL;
  /// Bursty (Gilbert–Elliott) loss: when set it replaces `loss`
  /// (`retries` and `seed` still apply). Probabilities in [0, 1],
  /// p_exit_burst > 0 (bursts must be able to end), loss_good in [0, 1)
  /// and loss_bad in [0, 1]. The chain starts in the good state.
  std::optional<GilbertElliottParams> burst;
  /// Impairment pipeline (latency/jitter/dup/reorder/corrupt) with
  /// sliding-window ARQ, layered on the loss model above. When unset the
  /// channel is instantaneous; when set each batch is framed and
  /// delivered in virtual time, and the protocol measures its latency.
  /// See net/impairment.hpp, net/arq.hpp and docs/ROBUSTNESS.md.
  std::optional<ImpairmentConfig> impair;
  /// The ARQ engine's settings; checked, and used, only with `impair`.
  ArqConfig arq;

  /// The link rules above, plus ImpairmentConfig's and ArqConfig's when
  /// `impair` is set. Throws std::invalid_argument naming the first
  /// broken rule; NaN breaks every range.
  void validate() const;
};

/// Link-layer model. The paper assumes a perfect link layer ("data
/// delivery is guaranteed through performance-based routing dynamics and
/// MAC layer retransmissions", Section 5); this class makes that
/// assumption explicit and optionally relaxes it, in two loss modes:
///  - i.i.d.: each hop transmission is lost independently with
///    `LinkOptions::loss`;
///  - bursty: losses follow a Gilbert–Elliott two-state chain (above),
/// each optionally under the impairment pipeline.
/// ARQ retries up to `retries` times (B-MAC/Z-MAC style, the MAC
/// schemes the paper cites). Every attempt — including failed ones — is
/// charged to the ledger: the sender pays TX for each try, the receiver
/// pays RX only for the try it successfully decodes. Retransmissions and
/// final drops bump the "channel.retries" / "channel.drops" obs counters
/// so link-layer overhead is visible per run and per phase.
class Channel {
 public:
  /// The channel `link` describes: bursty when `burst` is set, i.i.d.
  /// when loss > 0, perfect otherwise, under the impairment pipeline when
  /// `impair` is set. Throws std::invalid_argument when `link` breaks a
  /// LinkOptions rule. The default is the perfect channel.
  explicit Channel(const LinkOptions& link = {});

  /// Outcome of one hop transfer: whether the batch arrived, and how much
  /// virtual link time it took (0 on the unimpaired path, where delivery
  /// is instantaneous by assumption).
  struct Transfer {
    bool delivered = true;
    double latency_s = 0.0;
  };

  /// Deliver `bytes` one hop from `from` to `to`, charging the ledger per
  /// attempt; `delivered` is false when every attempt was lost (the
  /// message is dropped). Without an ImpairmentConfig delivery is
  /// instantaneous and a perfect channel draws nothing. With one, the
  /// batch is framed and run through the sliding-window ARQ engine over
  /// the impaired link (see net/arq.hpp), reusing this channel's loss
  /// chain for per-frame losses.
  Transfer transfer(int from, int to, double bytes, Ledger& ledger);

  bool bursty() const { return link_.burst.has_value(); }
  bool perfect() const { return !bursty() && link_.loss <= 0.0; }
  /// Impairment pipeline active (transfer() runs the ARQ engine).
  bool impaired() const { return link_.impair.has_value(); }

  /// Cumulative statistics since construction.
  long long attempts() const { return attempts_; }
  long long retries() const { return retries_; }
  long long drops() const { return drops_; }
  long long dup_rx() const { return dup_rx_; }
  long long corrupt_rx() const { return corrupt_rx_; }
  long long arq_timeouts() const { return arq_timeouts_; }
  long long acks() const { return acks_; }
  /// Expected probability that an unimpaired transfer() delivers within
  /// retries + 1 attempts. Exact in every mode: i.i.d. is the closed form
  /// 1 - loss^(retries+1); bursty runs the Gilbert–Elliott chain
  /// forward from the channel's *current* state, tracking the joint
  /// distribution of (all attempts lost so far, chain state) — this
  /// captures the within-batch correlation that makes retries during a
  /// burst nearly useless, which the old stationary-mean approximation
  /// ignored.
  double delivery_probability() const;

 private:
  /// transfer()'s unimpaired branch.
  bool send(int from, int to, double bytes, Ledger& ledger);
  double attempt_loss();

  LinkOptions link_;
  bool in_burst_ = false;
  Rng rng_;
  long long attempts_ = 0;
  long long retries_ = 0;
  long long drops_ = 0;
  long long dup_rx_ = 0;
  long long corrupt_rx_ = 0;
  long long arq_timeouts_ = 0;
  long long acks_ = 0;
};

}  // namespace isomap
