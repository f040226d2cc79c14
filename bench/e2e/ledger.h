#ifndef D3T_BENCH_E2E_LEDGER_H_
#define D3T_BENCH_E2E_LEDGER_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace d3t::e2e {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Heap bytes in use right now, in MiB (glibc mallinfo2: arena plus
/// mmapped blocks). Used instead of getrusage's peak RSS, which survives
/// exec — a child of a large parent reports the parent's peak — and
/// jumps by whole vector doublings between seeds.
double HeapInUseMib();

/// A fixed computation timed on the benchmark's own thread just before
/// and just after every timed call of the end-to-end pass, so that the
/// call's wall time can be read against how fast the host ran at that
/// moment. On a shared virtual machine the guest slows by 20-60% for
/// fractions of a second to minutes while neighbours share its cores
/// and caches; CPU time slows as much as wall time, so no clock escapes
/// it, and a kernel timed on another thread does not follow it. The
/// kernel is 2^20 random reads over a table the size of one core's L2
/// cache (2 MiB on the Xeon the benchmark was built on). Its work never
/// changes and it shares no code with the library, so a change to the
/// library moves the scaled times as much as the wall times.
class HostReference {
 public:
  /// One pass on a quiet host: the 10th percentile of 6,336 passes on a
  /// 4-vCPU KVM guest (Intel Xeon, Sapphire Rapids; GCC 12.2, -O3).
  static constexpr double kQuietSeconds = 3.0e-3;

  HostReference();
  /// Wall seconds of one pass of the kernel, after an untimed pass that
  /// brings the table back into cache.
  double Time();

  /// `seconds` of a call between passes that took `before` and `after`,
  /// scaled to a host on which a pass takes kQuietSeconds.
  static double Scale(double seconds, double before, double after) {
    return seconds * kQuietSeconds / (0.5 * (before + after));
  }

 private:
  std::vector<uint64_t> table_;
  volatile uint64_t sink_ = 0;
};

/// One timed call into the library, recorded from outside it.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;  // since the ledger was created
  int64_t end_ns = 0;
  int parent = -1;       // index of the enclosing span; -1 for a root
  int run = 0;           // repetition the span belongs to
};

/// In-memory span ledger for the traced pass. Spans nest by scope: a
/// Scope opened while another is open becomes its child. A disabled
/// ledger records nothing and never reads the clock, so the untraced
/// pass can share code paths with the traced one at no cost.
class Ledger {
 public:
  explicit Ledger(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  /// Repetition id stamped on spans opened from now on.
  void set_run(int run) { run_ = run; }

  class Scope {
   public:
    Scope(Ledger& ledger, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Ledger& ledger_;
    int index_ = -1;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time (span minus the part its children cover), summed per
  /// span name over the spans of repetition `run`, in seconds.
  std::map<std::string, double> SelfSeconds(int run) const;
  /// Summed duration of the root spans named `name` in `run`, seconds.
  double RootSeconds(int run, const std::string& name) const;

  /// Chrome-trace JSON ("X" events, microsecond timestamps; args carry
  /// the run id and the parent span's name).
  std::string ChromeTraceJson() const;

 private:
  bool enabled_;
  int run_ = 0;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace d3t::e2e

#endif  // D3T_BENCH_E2E_LEDGER_H_
