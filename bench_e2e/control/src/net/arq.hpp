#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "net/impairment.hpp"
#include "net/ledger.hpp"
#include "util/rng.hpp"

namespace isomap {

/// Sliding-window ARQ knobs. A logical batch of `bytes` (one convergecast
/// hop) is split into data frames of `frame_payload_bytes`; the sender
/// keeps up to `window` frames in flight, retransmits the window base on
/// timeout with exponential backoff, and gives up on a frame after
/// `max_frame_attempts` physical transmissions (the whole batch then
/// counts as lost — the caller charges it to `lost_channel`).
struct ArqConfig {
  int window = 8;                    ///< Frames in flight (>= 1).
  double frame_payload_bytes = 32.0; ///< Payload bytes per data frame.
  double timeout_s = 0.05;           ///< Initial retransmission timeout.
  double backoff_factor = 2.0;       ///< Timeout multiplier per timeout.
  double max_timeout_s = 1.0;        ///< Backoff ceiling.
  int max_frame_attempts = 8;        ///< Physical tries per frame (>= 1).

  /// Wire overhead per frame: kind (1) + seq (4) + payload length (4).
  static constexpr double kHeaderBytes = 9.0;
  /// Trailing CRC32 over header + payload.
  static constexpr double kChecksumBytes = 4.0;

  /// Throws std::invalid_argument on out-of-range values.
  void validate() const;
};

enum class FrameKind : std::uint8_t { kData = 0, kAck = 1 };

/// Decode outcome. Anything other than kOk means the frame is discarded
/// (charged as received bytes but never delivered): kMalformed for
/// truncated/overlong buffers or unknown kinds, kChecksumMismatch when
/// the CRC32 disagrees with the carried bytes.
enum class FrameStatus { kOk, kMalformed, kChecksumMismatch };

struct ArqFrame {
  FrameKind kind = FrameKind::kData;
  std::uint32_t seq = 0;  ///< Data: frame index. Ack: cumulative ack number.
  std::string payload;
};

/// CRC-32 (IEEE 802.3, reflected, init/xorout 0xFFFFFFFF) — the per-frame
/// checksum. crc32("123456789") == 0xCBF43926.
std::uint32_t crc32(std::string_view bytes);

/// Wire format (little-endian): [kind u8][seq u32][len u32][payload][crc u32]
/// where crc covers everything before it.
std::string encode_frame(const ArqFrame& frame);

struct DecodedFrame {
  FrameStatus status = FrameStatus::kMalformed;
  ArqFrame frame;
};

/// Decodes untrusted bytes. Never throws and never crashes; any
/// single-bit (or wider) corruption of a valid frame yields a non-kOk
/// status — see arq_test's byte-flip fuzz cases.
DecodedFrame decode_frame(std::string_view bytes);

/// Outcome + accounting of one simulated batch transfer.
struct ArqTransferStats {
  bool delivered = false;
  double latency_s = 0.0;        ///< Virtual time when the receiver
                                 ///< completed the batch (delivered only).
  long long frames = 0;          ///< Distinct data frames in the batch.
  long long data_tx = 0;         ///< Physical data-frame transmissions.
  long long retransmissions = 0; ///< data_tx beyond first attempts.
  long long timeouts = 0;        ///< Retransmission timer expiries.
  long long acks_tx = 0;         ///< Physical ACK transmissions.
  long long dup_rx = 0;          ///< Duplicate data frames at receiver.
  long long corrupt_rx = 0;      ///< Checksum failures (either side).
};

/// Runs one batch of `bytes` from `from` to `to` through the impairment
/// pipeline under sliding-window ARQ, in virtual time. `frame_lost()` is
/// consulted once per physical frame (data and ACK) and is expected to
/// advance the caller's loss chain (Gilbert–Elliott or iid); all other
/// randomness (jitter/reorder/corrupt/dup draws) comes from `rng`.
///
/// Energy is charged to `ledger` as it happens: the sender pays airtime
/// for every physical frame at send time (`transmit_lost` — tx-only, the
/// rx half cannot be bundled because arrival is time-shifted and the
/// frame may never arrive), the receiver pays `receive` for every frame
/// copy that reaches it, duplicates and corrupt frames included. obs
/// counters (`channel.dup_rx` / `channel.corrupt_rx` /
/// `channel.arq_timeouts` / `channel.retries`) and the matching
/// NodeTelemetry lanes are bumped at the same points.
ArqTransferStats run_arq_transfer(int from, int to, double bytes,
                                  const ImpairmentConfig& impair,
                                  const ArqConfig& arq, Rng& rng,
                                  const std::function<bool()>& frame_lost,
                                  Ledger& ledger);

}  // namespace isomap
