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

/// Link-layer model. The paper assumes a perfect link layer ("data
/// delivery is guaranteed through performance-based routing dynamics and
/// MAC layer retransmissions", Section 5); this class makes that
/// assumption explicit and optionally relaxes it, in two modes:
///  - i.i.d.: each hop transmission is lost independently with
///    `loss_probability`;
///  - bursty: losses follow a Gilbert–Elliott two-state chain (above).
/// ARQ retries up to `max_retries` times (B-MAC/Z-MAC style, the MAC
/// schemes the paper cites). Every attempt — including failed ones — is
/// charged to the ledger: the sender pays TX for each try, the receiver
/// pays RX only for the try it successfully decodes. Retransmissions and
/// final drops bump the "channel.retries" / "channel.drops" obs counters
/// so link-layer overhead is visible per run and per phase.
class Channel {
 public:
  /// Perfect channel: every send succeeds on the first try.
  Channel();

  /// Lossy i.i.d. channel with ARQ. loss_probability in [0, 1);
  /// max_retries >= 0 extra attempts after the first.
  Channel(double loss_probability, int max_retries, Rng rng);

  /// Bursty Gilbert–Elliott channel with ARQ. Requires probabilities in
  /// [0, 1], p_exit_burst > 0 (bursts must be able to end), loss_good in
  /// [0, 1) and loss_bad in [0, 1]. The chain starts in the good state.
  Channel(const GilbertElliottParams& params, int max_retries, Rng rng);

  /// Build whichever channel the flattened option fields describe: bursty
  /// when `burst` is set, i.i.d. when loss > 0, perfect otherwise. The
  /// one construction path every protocol option struct funnels through.
  /// In every mode `loss` must lie in [0, 1) (NaN is rejected) and
  /// `max_retries` must be >= 0, else std::invalid_argument.
  static Channel make(double loss, int max_retries, std::uint64_t seed,
                      const std::optional<GilbertElliottParams>& burst);

  /// As above, additionally layering the impairment pipeline + ARQ on top
  /// of the loss chain when `impair` is set. `arq` validates on use.
  static Channel make(double loss, int max_retries, std::uint64_t seed,
                      const std::optional<GilbertElliottParams>& burst,
                      const std::optional<ImpairmentConfig>& impair,
                      const ArqConfig& arq = {});

  /// Deliver `bytes` one hop from `from` to `to`, charging the ledger per
  /// attempt. Returns false when every attempt was lost (the message is
  /// dropped). Ignores the impairment pipeline — the instantaneous
  /// compatibility path; use transfer() to exercise impairments.
  bool send(int from, int to, double bytes, Ledger& ledger);

  /// Outcome of one hop transfer: whether the batch arrived, and how much
  /// virtual link time it took (0 on the unimpaired path, where delivery
  /// is instantaneous by assumption).
  struct Transfer {
    bool delivered = true;
    double latency_s = 0.0;
  };

  /// Deliver `bytes` one hop. Without an ImpairmentConfig this is exactly
  /// send() — bit-for-bit, same Rng draws, same ledger charges — so
  /// perfect and plain-lossy channels reproduce the pre-impairment
  /// behavior. With one, the batch is framed and run through the
  /// sliding-window ARQ engine over the impaired link (see net/arq.hpp),
  /// reusing this channel's loss chain for per-frame losses.
  Transfer transfer(int from, int to, double bytes, Ledger& ledger);

  bool bursty() const { return burst_.has_value(); }
  bool perfect() const { return !bursty() && loss_probability_ <= 0.0; }
  double loss_probability() const { return loss_probability_; }
  int max_retries() const { return max_retries_; }

  /// Impairment pipeline active (transfer() runs the ARQ engine).
  bool impaired() const { return impair_.has_value(); }
  const std::optional<ImpairmentConfig>& impairment() const {
    return impair_;
  }
  const ArqConfig& arq() const { return arq_; }

  /// Cumulative statistics since construction.
  long long attempts() const { return attempts_; }
  long long retries() const { return retries_; }
  long long drops() const { return drops_; }
  long long dup_rx() const { return dup_rx_; }
  long long corrupt_rx() const { return corrupt_rx_; }
  long long arq_timeouts() const { return arq_timeouts_; }
  long long acks() const { return acks_; }
  /// Expected probability that a send() delivers within max_retries + 1
  /// attempts. Exact in every mode: i.i.d. is the closed form
  /// 1 - loss^(max_retries+1); bursty runs the Gilbert–Elliott chain
  /// forward from the channel's *current* state, tracking the joint
  /// distribution of (all attempts lost so far, chain state) — this
  /// captures the within-batch correlation that makes retries during a
  /// burst nearly useless, which the old stationary-mean approximation
  /// ignored.
  double delivery_probability() const;

 private:
  double attempt_loss();

  double loss_probability_ = 0.0;
  int max_retries_ = 0;
  std::optional<GilbertElliottParams> burst_;
  bool in_burst_ = false;
  std::optional<ImpairmentConfig> impair_;
  ArqConfig arq_;
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
