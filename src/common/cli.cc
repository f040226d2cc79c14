#include "common/cli.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace d3t {

namespace {

// Out-of-range values are malformed too: strtoll clamps them to
// INT64_MIN/MAX, and strtod returns an infinity or a value rounded
// toward zero.
bool ParsesAsInt(const std::string& value) {
  if (value.empty()) return false;
  char* end = nullptr;
  errno = 0;
  (void)std::strtoll(value.c_str(), &end, 10);
  return end != value.c_str() && *end == '\0' && errno != ERANGE;
}

bool ParsesAsDouble(const std::string& value) {
  if (value.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(value.c_str(), &end);
  return end != value.c_str() && *end == '\0' && errno != ERANGE &&
         std::isfinite(parsed);
}

bool ParsesAsBool(const std::string& value) {
  return value == "true" || value == "1" || value == "yes" ||
         value == "on" || value == "false" || value == "0" ||
         value == "no" || value == "off";
}

bool TruthyBool(const std::string& value) {
  return value == "true" || value == "1" || value == "yes" || value == "on";
}

}  // namespace

void CommandLine::AddFlag(const std::string& name,
                          const std::string& default_value,
                          const std::string& help) {
  flags_[name] = Flag{default_value, default_value, help};
}

Status CommandLine::Parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      return Status::InvalidArgument("expected --flag, got: " + arg);
    }
    arg = arg.substr(2);
    std::string name = arg;
    std::string value;
    bool has_value = false;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
      has_value = true;
    }
    auto it = flags_.find(name);
    if (it == flags_.end()) {
      return Status::InvalidArgument("unknown flag: --" + name);
    }
    if (!has_value) {
      // `--flag value` form if the next token is not itself a flag;
      // otherwise a bare boolean.
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      } else {
        value = "true";
      }
    }
    it->second.value = value;
  }
  return Status::Ok();
}

std::string CommandLine::GetString(const std::string& name) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? std::string() : it->second.value;
}

const std::string& CommandLine::ValueOrWarn(
    const std::string& name, unsigned type_bit, const char* type_name,
    bool (*parses)(const std::string&)) const {
  static const std::string kEmpty;
  auto it = flags_.find(name);
  if (it == flags_.end()) return kEmpty;
  const Flag& flag = it->second;
  if (parses(flag.value)) return flag.value;
  if ((flag.warned_mask & type_bit) == 0) {
    flag.warned_mask |= type_bit;
    std::fprintf(stderr,
                 "warning: --%s value '%s' is not a valid %s; using the "
                 "default '%s'\n",
                 name.c_str(), flag.value.c_str(), type_name,
                 flag.default_value.c_str());
  }
  return flag.default_value;
}

int64_t CommandLine::GetInt(const std::string& name) const {
  const std::string& value = ValueOrWarn(name, 1u, "integer", ParsesAsInt);
  return static_cast<int64_t>(std::strtoll(value.c_str(), nullptr, 10));
}

double CommandLine::GetDouble(const std::string& name) const {
  const std::string& value =
      ValueOrWarn(name, 2u, "number", ParsesAsDouble);
  return std::strtod(value.c_str(), nullptr);
}

bool CommandLine::GetBool(const std::string& name) const {
  return TruthyBool(ValueOrWarn(name, 4u, "boolean", ParsesAsBool));
}

std::string CommandLine::Help(const std::string& program) const {
  std::ostringstream os;
  os << "usage: " << program << " [flags]\n";
  for (const auto& [name, flag] : flags_) {
    os << "  --" << name << " (default: " << flag.default_value << ")  "
       << flag.help << "\n";
  }
  return os.str();
}

}  // namespace d3t
