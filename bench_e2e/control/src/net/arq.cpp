#include "net/arq.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/node_telemetry.hpp"
#include "obs/obs.hpp"

namespace isomap {

void ArqConfig::validate() const {
  if (window < 1)
    throw std::invalid_argument("ArqConfig: window must be >= 1");
  if (!(frame_payload_bytes > 0.0))
    throw std::invalid_argument("ArqConfig: frame_payload_bytes must be > 0");
  if (!(timeout_s > 0.0))
    throw std::invalid_argument("ArqConfig: timeout_s must be > 0");
  if (!(backoff_factor >= 1.0))
    throw std::invalid_argument("ArqConfig: backoff_factor must be >= 1");
  if (!(max_timeout_s >= timeout_s))
    throw std::invalid_argument("ArqConfig: max_timeout_s must be >= timeout_s");
  if (max_frame_attempts < 1)
    throw std::invalid_argument("ArqConfig: max_frame_attempts must be >= 1");
}

namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    table[i] = c;
  }
  return table;
}

void put_u32_le(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xFFu));
  out.push_back(static_cast<char>((v >> 8) & 0xFFu));
  out.push_back(static_cast<char>((v >> 16) & 0xFFu));
  out.push_back(static_cast<char>((v >> 24) & 0xFFu));
}

std::uint32_t get_u32_le(std::string_view bytes, std::size_t at) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[at])) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[at + 1]))
          << 8) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[at + 2]))
          << 16) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[at + 3]))
          << 24);
}

constexpr std::size_t kHeader = 9;    // kind u8 + seq u32 + len u32
constexpr std::size_t kChecksum = 4;  // crc u32

}  // namespace

std::uint32_t crc32(std::string_view bytes) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = 0xFFFFFFFFu;
  for (char ch : bytes)
    c = table[(c ^ static_cast<unsigned char>(ch)) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::string encode_frame(const ArqFrame& frame) {
  std::string out;
  out.reserve(kHeader + frame.payload.size() + kChecksum);
  out.push_back(static_cast<char>(frame.kind));
  put_u32_le(out, frame.seq);
  put_u32_le(out, static_cast<std::uint32_t>(frame.payload.size()));
  out += frame.payload;
  put_u32_le(out, crc32(out));
  return out;
}

DecodedFrame decode_frame(std::string_view bytes) {
  DecodedFrame decoded;
  if (bytes.size() < kHeader + kChecksum) return decoded;  // kMalformed
  const std::uint32_t len = get_u32_le(bytes, 5);
  if (bytes.size() != kHeader + static_cast<std::size_t>(len) + kChecksum)
    return decoded;
  const std::uint32_t carried = get_u32_le(bytes, bytes.size() - kChecksum);
  if (crc32(bytes.substr(0, bytes.size() - kChecksum)) != carried) {
    decoded.status = FrameStatus::kChecksumMismatch;
    return decoded;
  }
  const auto kind = static_cast<unsigned char>(bytes[0]);
  if (kind != static_cast<unsigned char>(FrameKind::kData) &&
      kind != static_cast<unsigned char>(FrameKind::kAck))
    return decoded;
  decoded.status = FrameStatus::kOk;
  decoded.frame.kind = static_cast<FrameKind>(kind);
  decoded.frame.seq = get_u32_le(bytes, 1);
  decoded.frame.payload = std::string(bytes.substr(kHeader, len));
  return decoded;
}

namespace {

// Event kinds inside the per-transfer virtual-time queue.
constexpr int kDataArrive = 0;
constexpr int kAckArrive = 1;
constexpr int kTimeout = 2;

// Deterministic filler so corrupted payloads flip real bits.
std::string frame_payload(std::uint32_t seq, std::size_t len) {
  std::string payload(len, '\0');
  for (std::size_t j = 0; j < len; ++j)
    payload[j] = static_cast<char>((seq * 131u + j * 29u + 7u) & 0xFFu);
  return payload;
}

}  // namespace

ArqTransferStats run_arq_transfer(int from, int to, double bytes,
                                  const ImpairmentConfig& impair,
                                  const ArqConfig& arq, Rng& rng,
                                  const std::function<bool()>& frame_lost,
                                  Ledger& ledger) {
  if (!(bytes >= 0.0))
    throw std::invalid_argument("run_arq_transfer: bytes must be >= 0");

  ArqTransferStats stats;
  const int nframes = std::max(
      1, static_cast<int>(std::ceil(bytes / arq.frame_payload_bytes)));
  stats.frames = nframes;

  obs::NodeTelemetry* const telemetry = obs::telemetry();
  LinkEventQueue queue;
  double now = 0.0;

  // Sender state (selective-repeat window, retransmit-base-on-timeout).
  int base = 0;
  int next = 0;
  std::vector<int> attempts(static_cast<std::size_t>(nframes), 0);
  bool gave_up = false;
  double timeout = arq.timeout_s;
  std::uint64_t timer_gen = 0;

  // Receiver state.
  std::vector<char> received(static_cast<std::size_t>(nframes), 0);
  int expected = 0;
  double complete_time = -1.0;

  // One physical frame copy through the impairment pipeline: the sender
  // pays airtime unconditionally; a copy that survives the loss chain is
  // scheduled for arrival (possibly delayed, reordered, corrupted or
  // heard twice).
  const auto send_physical = [&](const std::string& wire, int arrive_kind) {
    const double wire_bytes = static_cast<double>(wire.size());
    const int sender = arrive_kind == kDataArrive ? from : to;
    ledger.transmit_lost(sender, wire_bytes);
    if (frame_lost()) return;
    int copies = 1;
    if (rng.bernoulli(impair.dup_prob)) ++copies;
    for (int c = 0; c < copies; ++c) {
      const FrameFate fate = draw_frame_fate(impair, rng);
      std::string delivered = wire;
      if (fate.corrupt) {
        const std::size_t pos = rng.uniform_int(delivered.size());
        const auto mask =
            static_cast<unsigned char>(1 + rng.uniform_int(255));
        delivered[pos] = static_cast<char>(
            static_cast<unsigned char>(delivered[pos]) ^ mask);
      }
      queue.push(now + fate.delay_s, arrive_kind, 0, 0, std::move(delivered));
    }
  };

  const auto send_data = [&](int i) {
    if (attempts[static_cast<std::size_t>(i)] >= arq.max_frame_attempts) {
      gave_up = true;
      return;
    }
    ++attempts[static_cast<std::size_t>(i)];
    ++stats.data_tx;
    if (attempts[static_cast<std::size_t>(i)] > 1) {
      ++stats.retransmissions;
      obs::count("channel.retries");
      if (telemetry != nullptr) telemetry->add_retry(from);
    }
    const double offset =
        static_cast<double>(i) * arq.frame_payload_bytes;
    const std::size_t len = static_cast<std::size_t>(
        std::ceil(std::min(arq.frame_payload_bytes, bytes - offset)));
    ArqFrame frame;
    frame.kind = FrameKind::kData;
    frame.seq = static_cast<std::uint32_t>(i);
    frame.payload = frame_payload(frame.seq, len);
    send_physical(encode_frame(frame), kDataArrive);
  };

  const auto send_ack = [&](int ackno) {
    ++stats.acks_tx;
    obs::count("channel.acks");
    ArqFrame frame;
    frame.kind = FrameKind::kAck;
    frame.seq = static_cast<std::uint32_t>(ackno);
    send_physical(encode_frame(frame), kAckArrive);
  };

  const auto schedule_timer = [&] {
    ++timer_gen;
    queue.push(now + timeout, kTimeout, 0, timer_gen, std::string());
  };

  const auto fill_window = [&] {
    while (!gave_up && next < nframes && next < base + arq.window)
      send_data(next++);
  };

  fill_window();
  if (!gave_up) schedule_timer();

  while (base < nframes && !gave_up && !queue.empty()) {
    const LinkEvent event = queue.pop();
    now = event.time;
    switch (event.kind) {
      case kDataArrive: {
        ledger.receive(to, static_cast<double>(event.bytes.size()));
        const DecodedFrame decoded = decode_frame(event.bytes);
        if (decoded.status != FrameStatus::kOk ||
            decoded.frame.kind != FrameKind::kData ||
            decoded.frame.seq >= static_cast<std::uint32_t>(nframes)) {
          ++stats.corrupt_rx;
          obs::count("channel.corrupt_rx");
          if (telemetry != nullptr) telemetry->add_corrupt_rx(to);
          break;
        }
        const auto s = static_cast<std::size_t>(decoded.frame.seq);
        if (received[s]) {
          // Duplicate suppression: count it, re-ack, deliver nothing.
          ++stats.dup_rx;
          obs::count("channel.dup_rx");
          if (telemetry != nullptr) telemetry->add_dup_rx(to);
          send_ack(expected);
          break;
        }
        received[s] = 1;
        while (expected < nframes &&
               received[static_cast<std::size_t>(expected)])
          ++expected;
        if (expected == nframes && complete_time < 0.0) complete_time = now;
        send_ack(expected);
        break;
      }
      case kAckArrive: {
        ledger.receive(from, static_cast<double>(event.bytes.size()));
        const DecodedFrame decoded = decode_frame(event.bytes);
        if (decoded.status != FrameStatus::kOk ||
            decoded.frame.kind != FrameKind::kAck ||
            decoded.frame.seq > static_cast<std::uint32_t>(nframes)) {
          ++stats.corrupt_rx;
          obs::count("channel.corrupt_rx");
          if (telemetry != nullptr) telemetry->add_corrupt_rx(from);
          break;
        }
        const int ackno = static_cast<int>(decoded.frame.seq);
        if (ackno > base) {
          base = ackno;
          timeout = arq.timeout_s;  // Fresh progress resets the backoff.
          fill_window();
          if (base < nframes && !gave_up) schedule_timer();
        }
        break;
      }
      case kTimeout: {
        if (event.generation != timer_gen) break;  // Superseded timer.
        if (base >= nframes) break;
        ++stats.timeouts;
        obs::count("channel.arq_timeouts");
        if (telemetry != nullptr) telemetry->add_arq_timeout(from);
        timeout = std::min(timeout * arq.backoff_factor, arq.max_timeout_s);
        send_data(base);
        if (!gave_up) schedule_timer();
        break;
      }
      default:
        break;
    }
  }

  stats.delivered = base >= nframes;
  stats.latency_s = stats.delivered ? complete_time : now;
  return stats;
}

}  // namespace isomap
