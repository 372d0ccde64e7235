#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace isomap::capsule {

/// Any malformed-capsule condition: truncated buffer, over-long varint,
/// bad magic, unsupported version, section length past the end. Decoding
/// untrusted bytes throws this (and only this) — it never crashes or
/// reads out of bounds, which the fuzz tests assert under ASan/UBSan.
class CapsuleError : public std::runtime_error {
 public:
  explicit CapsuleError(const std::string& what)
      : std::runtime_error("capsule: " + what) {}
};

/// Current container format version. Readers reject anything newer;
/// bumping this is only needed when the *container* layout changes
/// (magic / section framing), not when a section gains fields — see
/// docs/REPLAY.md for the versioning rules.
inline constexpr std::uint64_t kFormatVersion = 1;

/// 8-byte file magic. The leading 0x89 byte keeps the file from ever
/// parsing as text; the trailing newline catches ASCII-mode mangling.
inline constexpr char kMagic[8] = {'\x89', 'I', 'S', 'O',
                                   'C',    'A', 'P', '\n'};

/// Append-only encoder for the capsule wire primitives. All output is
/// endian-stable: varints are LEB128 (little groups first) and doubles
/// are their IEEE-754 bit pattern written as 8 explicit little-endian
/// bytes, so a capsule written on any platform decodes bit-identically
/// on any other.
class Writer {
 public:
  /// Unsigned LEB128 varint (1..10 bytes).
  void put_u64(std::uint64_t v);
  /// Signed values, zigzag-mapped then LEB128.
  void put_i64(std::int64_t v);
  void put_bool(bool v) { put_u64(v ? 1 : 0); }
  /// IEEE-754 bit pattern, 8 fixed little-endian bytes (bit-exact,
  /// including NaN payloads and signed zeros).
  void put_f64(double v);
  /// Varint length followed by the raw bytes.
  void put_string(std::string_view s);

  const std::string& bytes() const { return buf_; }
  std::string take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  std::string buf_;
};

/// Bounds-checked decoder over a borrowed byte range. Every read that
/// would pass the end throws CapsuleError; nothing is ever read out of
/// bounds.
class Reader {
 public:
  Reader(const char* data, std::size_t size) : data_(data), size_(size) {}
  explicit Reader(std::string_view bytes)
      : Reader(bytes.data(), bytes.size()) {}

  std::uint64_t get_u64();
  std::int64_t get_i64();
  bool get_bool();
  double get_f64();
  std::string get_string();

  /// get_u64 narrowed to [0, max]; throws when outside (guards container
  /// sizes against corrupt counts that would otherwise trigger huge
  /// allocations). When `min_item_bytes` is non-zero, additionally
  /// requires count * min_item_bytes to fit in the remaining payload —
  /// so a corrupt count can never allocate more than the file's own
  /// size.
  std::size_t get_count(std::size_t max, std::size_t min_item_bytes = 0);

  std::size_t remaining() const { return size_ - pos_; }
  bool done() const { return pos_ == size_; }

 private:
  const char* need(std::size_t n, const char* what);

  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// One tagged section of a capsule file. Tags are application-defined;
/// readers skip tags they do not recognise, which is what lets newer
/// writers add sections without breaking older readers.
struct Section {
  std::uint64_t tag = 0;
  std::string payload;
};

/// A decoded capsule container: the format version plus its sections in
/// file order.
struct Capsule {
  std::uint64_t version = kFormatVersion;
  std::vector<Section> sections;

  void add(std::uint64_t tag, std::string payload) {
    sections.push_back({tag, std::move(payload)});
  }
  /// First section with `tag`, or nullptr.
  const Section* find(std::uint64_t tag) const;

  /// Serialize to the wire form: magic, version varint, then each
  /// section as tag varint + length varint + payload.
  std::string encode() const;

  /// Parse a wire-form buffer. Throws CapsuleError on any malformation
  /// (bad magic, unsupported version, truncated section, trailing
  /// garbage that is not a complete section).
  static Capsule decode(std::string_view bytes);
};

/// Whole-file helpers. read_file throws CapsuleError when the file
/// cannot be opened or fails to decode; write_file returns false on I/O
/// failure.
Capsule read_file(const std::string& path);
bool write_file(const std::string& path, const Capsule& capsule);

}  // namespace isomap::capsule
