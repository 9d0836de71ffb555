#pragma once

#include <cstddef>
#include <initializer_list>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace cref::util {

/// Minimal command-line parser used by examples and bench binaries.
/// Accepts `--key=value`, `--key value`, and bare `--flag` (value "1")
/// forms; anything else is collected as a positional argument.
class Cli {
 public:
  Cli(int argc, char** argv);

  /// Same, but the named options are boolean flags: they never consume
  /// the following argument as their value, so `--werror FILE` keeps
  /// FILE positional. (`--flag=0` style still works for them.)
  Cli(int argc, char** argv, std::initializer_list<const char*> flags);

  /// Returns the value of `--key`, or `fallback` if absent.
  std::string get(const std::string& key, const std::string& fallback = "") const;

  /// Returns the integer value of `--key`, or `fallback` if absent/invalid.
  long get_int(const std::string& key, long fallback) const;

  /// Unsigned variant of get_int (negative values fall back), for size
  /// knobs like --threads / --chunk.
  std::size_t get_size(const std::string& key, std::size_t fallback) const;

  /// Returns true if `--key` was passed (with or without a value).
  bool has(const std::string& key) const;

  /// The first passed option (by name, without "--") that is not in
  /// `known`, or "" when every option is known. A tool that checks it
  /// rejects a misspelled option instead of running with defaults.
  std::string unknown_option(std::initializer_list<const char*> known) const;

  /// Positional (non-option) arguments in order of appearance.
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

}  // namespace cref::util
