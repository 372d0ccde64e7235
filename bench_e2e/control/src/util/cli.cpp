#include "util/cli.hpp"

#include <cstdlib>
#include <stdexcept>

namespace isomap {

CliArgs::CliArgs(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      arg = arg.substr(2);
      const auto eq = arg.find('=');
      if (eq == std::string::npos) {
        options_[arg] = "true";
      } else {
        options_[arg.substr(0, eq)] = arg.substr(eq + 1);
      }
    } else {
      positional_.push_back(arg);
    }
  }
}

bool CliArgs::has(const std::string& key) const {
  return options_.count(key) > 0;
}

std::optional<std::string> CliArgs::get(const std::string& key) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return std::nullopt;
  return it->second;
}

std::string CliArgs::get_or(const std::string& key,
                            const std::string& def) const {
  return get(key).value_or(def);
}

double CliArgs::get_double(const std::string& key, double def) const {
  const auto v = get(key);
  if (!v) return def;
  try {
    return std::stod(*v);
  } catch (const std::exception&) {
    throw std::invalid_argument("option --" + key + " expects a number, got '" +
                                *v + "'");
  }
}

int CliArgs::get_int(const std::string& key, int def) const {
  const auto v = get(key);
  if (!v) return def;
  try {
    return std::stoi(*v);
  } catch (const std::exception&) {
    throw std::invalid_argument("option --" + key +
                                " expects an integer, got '" + *v + "'");
  }
}

std::uint64_t CliArgs::get_u64(const std::string& key,
                               std::uint64_t def) const {
  const auto v = get(key);
  if (!v) return def;
  try {
    return std::stoull(*v);
  } catch (const std::exception&) {
    throw std::invalid_argument("option --" + key +
                                " expects an integer, got '" + *v + "'");
  }
}

std::vector<std::string> CliArgs::keys() const {
  std::vector<std::string> out;
  out.reserve(options_.size());
  for (const auto& [k, _] : options_) out.push_back(k);
  return out;
}

}  // namespace isomap
