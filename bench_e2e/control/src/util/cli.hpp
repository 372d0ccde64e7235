#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace isomap {

/// Minimal --key=value / --flag argument parser used by the examples and
/// benchmark harnesses. Unknown keys are collected so callers can reject or
/// report them.
class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  bool has(const std::string& key) const;
  std::optional<std::string> get(const std::string& key) const;
  std::string get_or(const std::string& key, const std::string& def) const;
  double get_double(const std::string& key, double def) const;
  int get_int(const std::string& key, int def) const;
  std::uint64_t get_u64(const std::string& key, std::uint64_t def) const;

  /// Positional (non --key) arguments, in order.
  const std::vector<std::string>& positional() const { return positional_; }
  /// All parsed option keys (for validation / help text).
  std::vector<std::string> keys() const;

 private:
  std::unordered_map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

}  // namespace isomap
