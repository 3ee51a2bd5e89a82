#include "util/cli.hpp"

#include <cstdlib>
#include <sstream>

namespace lot::util {

Cli::Cli(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const auto eq = arg.find('=');
    if (eq == std::string::npos) {
      // Bare flag, e.g. --verbose
      values_[arg.substr(2)].assign(1, '1');
    } else {
      values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    }
  }
}

bool Cli::has(const std::string& key) const { return values_.count(key) > 0; }

std::int64_t Cli::get_int(const std::string& key,
                          std::int64_t fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return std::strtoll(it->second.c_str(), nullptr, 10);
}

double Cli::get_double(const std::string& key, double fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return std::strtod(it->second.c_str(), nullptr);
}

std::string Cli::get_string(const std::string& key,
                            const std::string& fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::vector<std::int64_t> Cli::get_int_list(
    const std::string& key, std::vector<std::int64_t> fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  std::vector<std::int64_t> out;
  std::stringstream ss(it->second);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(std::strtoll(item.c_str(), nullptr, 10));
  }
  return out.empty() ? fallback : out;
}

}  // namespace lot::util
