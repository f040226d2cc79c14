#include "trace/trace_io.h"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

namespace d3t::trace {

Status SaveTraceCsv(const Trace& trace, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IoError("cannot open for write: " + path);
  out << "# " << trace.name() << "\n";
  // Each value as the shortest text that reads back to the same double,
  // so LoadTraceCsv returns exactly what was saved (a cent price still
  // prints as "20.53"). A row is at most 20 + 1 + 24 + 1 bytes.
  char buf[64];
  for (const Tick& tick : trace.ticks()) {
    char* end = std::to_chars(buf, buf + sizeof(buf), tick.time).ptr;
    *end++ = ',';
    end = std::to_chars(end, buf + sizeof(buf), tick.value).ptr;
    *end++ = '\n';
    out.write(buf, end - buf);
  }
  if (!out) return Status::IoError("write failed: " + path);
  return Status::Ok();
}

namespace {

// True when `rest` holds only whitespace — the one thing allowed after
// a parsed number. Anything else ("12x", "3.5 junk") is rejected, the
// same discipline the wire decoder applies to trailing bytes: they are
// either meaningful or an error, never silently dropped.
bool OnlyWhitespaceRemains(const char* rest) {
  return rest[std::strspn(rest, " \t\r")] == '\0';
}

}  // namespace

Result<Trace> ParseTraceCsv(const std::string& content,
                            const std::string& default_name) {
  std::istringstream in(content);
  std::string line;
  std::string name = default_name;
  std::vector<Tick> ticks;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    if (line[0] == '#') {
      // Comment line; the first one names the trace.
      size_t start = line.find_first_not_of("# \t");
      if (start != std::string::npos && line_no == 1) {
        name = line.substr(start);
      }
      continue;
    }
    const size_t comma = line.find(',');
    if (comma == std::string::npos) {
      return Status::InvalidArgument("line " + std::to_string(line_no) +
                                     ": expected time,value");
    }
    // Out-of-range times (strtoll clamps them) and non-finite values are
    // malformed too, by the same rule as the CLI's numbers.
    char* end = nullptr;
    const std::string time_str = line.substr(0, comma);
    errno = 0;
    const long long t = std::strtoll(time_str.c_str(), &end, 10);
    if (end == time_str.c_str() || !OnlyWhitespaceRemains(end) ||
        errno == ERANGE) {
      return Status::InvalidArgument("line " + std::to_string(line_no) +
                                     ": bad time");
    }
    const std::string value_str = line.substr(comma + 1);
    end = nullptr;
    const double v = std::strtod(value_str.c_str(), &end);
    if (end == value_str.c_str() || !OnlyWhitespaceRemains(end) ||
        !std::isfinite(v)) {
      return Status::InvalidArgument("line " + std::to_string(line_no) +
                                     ": bad value");
    }
    if (!ticks.empty() && t <= ticks.back().time) {
      return Status::InvalidArgument("line " + std::to_string(line_no) +
                                     ": times must be strictly increasing");
    }
    ticks.push_back(Tick{t, v});
  }
  if (ticks.empty()) {
    return Status::InvalidArgument(
        "no data rows — empty or truncated trace");
  }
  return Trace(name, std::move(ticks));
}

Result<Trace> LoadTraceCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open for read: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  // rdbuf streaming swallows mid-read failures (a vanished NFS mount, a
  // truncated device) into a shortened buffer; check the stream state
  // so they surface as IoError, not as a mysteriously short trace.
  if (in.bad() || buffer.bad()) {
    return Status::IoError("read failed: " + path);
  }
  return ParseTraceCsv(buffer.str(), path);
}

}  // namespace d3t::trace
