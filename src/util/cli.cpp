#include "util/cli.hpp"

#include <cstdlib>

#include "util/strings.hpp"

namespace cref::util {

Cli::Cli(int argc, char** argv) : Cli(argc, argv, {}) {}

Cli::Cli(int argc, char** argv, std::initializer_list<const char*> flags) {
  std::set<std::string> flag_set(flags.begin(), flags.end());
  for (int i = 1; i < argc; ++i) {
    std::string arg{argv[i]};
    if (!starts_with(arg, "--")) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    auto eq = arg.find('=');
    if (eq != std::string::npos) {
      options_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (!flag_set.count(arg) && i + 1 < argc && !starts_with(argv[i + 1], "--")) {
      options_[arg] = argv[++i];
    } else {
      options_[arg] = "1";
    }
  }
}

std::string Cli::get(const std::string& key, const std::string& fallback) const {
  auto it = options_.find(key);
  return it == options_.end() ? fallback : it->second;
}

long Cli::get_int(const std::string& key, long fallback) const {
  auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  char* end = nullptr;
  long v = std::strtol(it->second.c_str(), &end, 10);
  return (end && *end == '\0') ? v : fallback;
}

std::size_t Cli::get_size(const std::string& key, std::size_t fallback) const {
  long v = get_int(key, -1);
  return v < 0 ? fallback : static_cast<std::size_t>(v);
}

std::optional<std::size_t> Cli::get_count(const std::string& key,
                                           std::size_t fallback) const {
  if (!has(key)) return fallback;
  const long v = get_int(key, 0);
  if (v < 1) return std::nullopt;
  return static_cast<std::size_t>(v);
}

bool Cli::has(const std::string& key) const { return options_.count(key) > 0; }

std::string Cli::unknown_option(std::initializer_list<const char*> known) const {
  const std::set<std::string> known_set(known.begin(), known.end());
  for (const auto& option : options_)
    if (!known_set.count(option.first)) return option.first;
  return "";
}

}  // namespace cref::util
