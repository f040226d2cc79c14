#ifndef D3T_COMMON_CLI_H_
#define D3T_COMMON_CLI_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace d3t {

/// Minimal command-line flag parser shared by the bench and example
/// binaries. Accepts `--name=value`, `--name value` and bare `--flag`
/// (boolean true). Unknown flags are an error so typos do not silently
/// change an experiment.
class CommandLine {
 public:
  /// Declares a flag with a default value and help text. Call before
  /// Parse().
  void AddFlag(const std::string& name, const std::string& default_value,
               const std::string& help);

  /// Parses argv. Returns InvalidArgument on unknown or malformed flags.
  Status Parse(int argc, const char* const* argv);

  /// Typed accessors. A value that does not parse as the requested type
  /// falls back to the *declared* default — and says so on stderr, so a
  /// typo like `--ticks=12o0` cannot silently reconfigure an experiment
  /// (historically the fallback was a silent 0/0.0/false, not even the
  /// declared default). Each flag warns at most once per accessor type.
  std::string GetString(const std::string& name) const;
  int64_t GetInt(const std::string& name) const;
  double GetDouble(const std::string& name) const;
  bool GetBool(const std::string& name) const;

  /// Renders a usage/help string listing all declared flags.
  std::string Help(const std::string& program) const;

 private:
  struct Flag {
    std::string value;
    std::string default_value;
    std::string help;
    /// Accessor types that already warned about this flag's unparsable
    /// value (bitmask; keeps repeated Get* calls from spamming stderr).
    mutable unsigned warned_mask = 0;
  };
  /// Returns the flag's value if `parses(value)` accepts it, otherwise
  /// warns once on stderr and returns the declared default.
  const std::string& ValueOrWarn(const std::string& name, unsigned type_bit,
                                 const char* type_name,
                                 bool (*parses)(const std::string&)) const;

  std::map<std::string, Flag> flags_;
};

}  // namespace d3t

#endif  // D3T_COMMON_CLI_H_
