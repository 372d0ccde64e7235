#include "util/capsule.hpp"

#include <bit>
#include <cstring>
#include <fstream>
#include <sstream>

namespace isomap::capsule {
namespace {

/// LEB128 uses at most ceil(64 / 7) = 10 groups for a 64-bit value.
constexpr int kMaxVarintBytes = 10;

std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

}  // namespace

void Writer::put_u64(std::uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  buf_.push_back(static_cast<char>(v));
}

void Writer::put_i64(std::int64_t v) { put_u64(zigzag(v)); }

void Writer::put_f64(double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  for (int i = 0; i < 8; ++i)
    buf_.push_back(static_cast<char>((bits >> (8 * i)) & 0xFF));
}

void Writer::put_string(std::string_view s) {
  put_u64(s.size());
  buf_.append(s.data(), s.size());
}

const char* Reader::need(std::size_t n, const char* what) {
  if (n > size_ - pos_)
    throw CapsuleError(std::string("truncated ") + what + " (need " +
                       std::to_string(n) + " bytes, have " +
                       std::to_string(size_ - pos_) + ")");
  const char* p = data_ + pos_;
  pos_ += n;
  return p;
}

std::uint64_t Reader::get_u64() {
  std::uint64_t v = 0;
  for (int i = 0; i < kMaxVarintBytes; ++i) {
    const auto byte =
        static_cast<unsigned char>(*need(1, "varint"));
    if (i == kMaxVarintBytes - 1 && (byte & 0xFE) != 0)
      throw CapsuleError("varint overflows 64 bits");
    v |= static_cast<std::uint64_t>(byte & 0x7F) << (7 * i);
    if ((byte & 0x80) == 0) return v;
  }
  throw CapsuleError("varint longer than 10 bytes");
}

std::int64_t Reader::get_i64() { return unzigzag(get_u64()); }

bool Reader::get_bool() {
  const std::uint64_t v = get_u64();
  if (v > 1) throw CapsuleError("boolean out of range");
  return v == 1;
}

double Reader::get_f64() {
  const char* p = need(8, "f64");
  std::uint64_t bits = 0;
  for (int i = 0; i < 8; ++i)
    bits |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
            << (8 * i);
  return std::bit_cast<double>(bits);
}

std::string Reader::get_string() {
  const std::uint64_t len = get_u64();
  if (len > size_ - pos_)
    throw CapsuleError("string length " + std::to_string(len) +
                       " past end of buffer");
  const char* p = need(static_cast<std::size_t>(len), "string body");
  return std::string(p, static_cast<std::size_t>(len));
}

std::size_t Reader::get_count(std::size_t max, std::size_t min_item_bytes) {
  const std::uint64_t v = get_u64();
  if (v > max)
    throw CapsuleError("count " + std::to_string(v) + " exceeds limit " +
                       std::to_string(max));
  if (min_item_bytes != 0 && v * min_item_bytes > remaining())
    throw CapsuleError("count " + std::to_string(v) + " implies at least " +
                       std::to_string(v * min_item_bytes) +
                       " bytes but only " + std::to_string(remaining()) +
                       " remain");
  return static_cast<std::size_t>(v);
}

const Section* Capsule::find(std::uint64_t tag) const {
  for (const Section& s : sections)
    if (s.tag == tag) return &s;
  return nullptr;
}

std::string Capsule::encode() const {
  Writer w;
  std::string out(kMagic, sizeof(kMagic));
  w.put_u64(version);
  for (const Section& s : sections) {
    w.put_u64(s.tag);
    w.put_string(s.payload);
  }
  out += w.bytes();
  return out;
}

Capsule Capsule::decode(std::string_view bytes) {
  if (bytes.size() < sizeof(kMagic) ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0)
    throw CapsuleError("bad magic (not a capsule file)");
  Reader r(bytes.substr(sizeof(kMagic)));
  Capsule c;
  c.version = r.get_u64();
  if (c.version == 0 || c.version > kFormatVersion)
    throw CapsuleError("unsupported format version " +
                       std::to_string(c.version) + " (reader supports <= " +
                       std::to_string(kFormatVersion) + ")");
  while (!r.done()) {
    Section s;
    s.tag = r.get_u64();
    s.payload = r.get_string();
    c.sections.push_back(std::move(s));
  }
  return c;
}

Capsule read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw CapsuleError("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  if (!in.good() && !in.eof()) throw CapsuleError("read error on " + path);
  return Capsule::decode(buf.str());
}

bool write_file(const std::string& path, const Capsule& capsule) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  const std::string bytes = capsule.encode();
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return out.good();
}

}  // namespace isomap::capsule
