#include "ledger.h"

#include <malloc.h>

#include <cstdio>

namespace d3t::e2e {

double HeapInUseMib() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

namespace {
constexpr size_t kReferenceEntries = (2u << 20) / sizeof(uint64_t);  // 2 MiB
constexpr int kReferenceReads = 1 << 20;
}  // namespace

HostReference::HostReference() : table_(kReferenceEntries) {
  for (size_t i = 0; i < table_.size(); ++i) table_[i] = i * 0x2545f491u;
}

double HostReference::Time() {
  uint64_t sum = 0;
  for (const uint64_t value : table_) sum += value;
  const Clock::time_point start = Clock::now();
  uint64_t x = 0x9e3779b97f4a7c15ull;  // the same reads on every pass
  for (int i = 0; i < kReferenceReads; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    sum += table_[x & (kReferenceEntries - 1)];
  }
  const double seconds = SecondsSince(start);
  sink_ = sum;
  return seconds;
}

Ledger::Scope::Scope(Ledger& ledger, const char* name) : ledger_(ledger) {
  if (!ledger_.enabled_) return;
  Span span;
  span.name = name;
  span.parent = ledger_.open_.empty() ? -1 : ledger_.open_.back();
  span.run = ledger_.run_;
  index_ = static_cast<int>(ledger_.spans_.size());
  ledger_.spans_.push_back(span);
  ledger_.open_.push_back(index_);
  // Stamp last, so the bookkeeping above is not charged to the span.
  ledger_.spans_[index_].start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           ledger_.origin_)
          .count();
}

Ledger::Scope::~Scope() {
  if (index_ < 0) return;
  ledger_.spans_[index_].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           ledger_.origin_)
          .count();
  ledger_.open_.pop_back();
}

std::map<std::string, double> Ledger::SelfSeconds(int run) const {
  std::vector<int64_t> self(spans_.size(), 0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end_ns - spans_[i].start_ns;
    if (spans_[i].parent >= 0) {
      self[spans_[i].parent] -= spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  std::map<std::string, double> by_name;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].run != run) continue;
    by_name[spans_[i].name] += static_cast<double>(self[i]) * 1e-9;
  }
  return by_name;
}

double Ledger::RootSeconds(int run, const std::string& name) const {
  int64_t total = 0;
  for (const Span& span : spans_) {
    if (span.run == run && span.parent < 0 && name == span.name) {
      total += span.end_ns - span.start_ns;
    }
  }
  return static_cast<double>(total) * 1e-9;
}

std::string Ledger::ChromeTraceJson() const {
  std::string out = "{\"traceEvents\":[\n";
  char line[512];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::snprintf(line, sizeof(line),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":0,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"run\":%d,"
                  "\"parent\":\"%s\"}}",
                  i == 0 ? "" : ",\n", span.name,
                  static_cast<double>(span.start_ns) / 1e3,
                  static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                  span.run,
                  span.parent < 0 ? "" : spans_[span.parent].name);
    out += line;
  }
  out += "\n]}\n";
  return out;
}

}  // namespace d3t::e2e
