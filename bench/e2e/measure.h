#ifndef D3T_BENCH_E2E_MEASURE_H_
#define D3T_BENCH_E2E_MEASURE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "ledger.h"
#include "pipeline.h"

namespace d3t::e2e {

/// A metric the benchmark reports; BENCHMARK.json must list the same.
struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;  // "lower" or "higher"
};

/// Untraced-pass metrics, in output order.
const std::vector<MetricDef>& EndToEndMetrics();
/// Traced-pass metrics, in output order.
const std::vector<MetricDef>& PerLayerMetrics();

/// Workload names, in output order.
const std::vector<std::string>& WorkloadNames();
/// The workload `name` at benchmark scale, or at toy scale for --smoke.
Result<Workload> MakeWorkload(const std::string& name, bool smoke);

/// What one benchmark run measured.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Why operations failed (first few).
  std::vector<std::string> errors;
  std::map<std::string, double> metrics;
  /// The samples behind each reported value, in measurement order.
  std::map<std::string, std::vector<double>> samples;
  /// Quality outputs a perf change must keep exactly: mean fidelity
  /// loss over the unit's runs (paper §6.2), and push plus poll
  /// messages.
  double loss_pct = 0.0;
  uint64_t messages = 0;

  bool correct() const { return attempted > 0 && failed == 0; }
};

/// End-to-end pass, tracing off: one untimed warm-up build and unit,
/// then, for at least `seconds`, a fresh build and a unit at a time.
Outcome MeasureUntraced(const Workload& w, uint64_t seed, double seconds);

/// Per-layer pass: the pipeline composed stage by stage under spans,
/// checked byte for byte against an untraced reference in the same
/// process, plus one probe of each layer the unit does not reach.
/// `perturb_field` (selftests only) flips that EngineMetrics field of
/// the reference before the comparison.
Outcome MeasureTraced(const Workload& w, uint64_t seed, double seconds,
                      Ledger& ledger, const std::string& perturb_field = "");

}  // namespace d3t::e2e

#endif  // D3T_BENCH_E2E_MEASURE_H_
