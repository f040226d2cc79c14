// End-to-end benchmark of the d3t system: four closed-loop workloads
// (paper_sweep, large_world, churn_repair, serve_feed), each timed from
// outside the library through its public calls. See README.md.
//
//   d3t_bench --workload paper_sweep --seed 42 --seconds 25 --trace 0
//   d3t_bench --list | --smoke
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, and the metrics (end-to-end with --trace 0,
// per-layer with --trace 1). The exit code is nonzero when any
// operation failed or a traced composition differs from the untraced
// run.

#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.h"
#include "core/engine.h"
#include "ledger.h"
#include "measure.h"
#include "obs/export.h"
#include "pipeline.h"

namespace d3t::e2e {
namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
      out += escaped;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string MetricsJson(const Outcome& out,
                        const std::vector<MetricDef>& defs) {
  std::string json = "{";
  for (size_t i = 0; i < defs.size(); ++i) {
    const auto it = out.metrics.find(defs[i].name);
    json += (i == 0 ? "" : ", ") + JsonString(defs[i].name) +
            ": {\"value\": " +
            JsonNumber(it != out.metrics.end() ? it->second : 0.0) +
            ", \"unit\": " + JsonString(defs[i].unit) + "}";
  }
  return json + "}";
}

// The result: the last line of standard output.
std::string ResultLine(const Outcome& out,
                       const std::vector<MetricDef>& defs) {
  return "{\"correct\": " + std::string(out.correct() ? "true" : "false") +
         ", \"attempted\": " + std::to_string(out.attempted) +
         ", \"failed\": " + std::to_string(out.failed) +
         ", \"metrics\": " + MetricsJson(out, defs) + "}";
}

// The --out-json record: the result plus what compare.py needs.
std::string DetailJson(const std::string& workload, uint64_t seed,
                       bool traced, double seconds, const Outcome& out,
                       const std::vector<MetricDef>& defs) {
  std::string errors = "[";
  for (size_t i = 0; i < out.errors.size(); ++i) {
    errors += (i == 0 ? "" : ", ") + JsonString(out.errors[i]);
  }
  errors += "]";
  std::string samples = "{";
  for (const auto& [name, series] : out.samples) {
    samples += (samples.size() == 1 ? "" : ", ") + JsonString(name) + ": [";
    for (size_t i = 0; i < series.size(); ++i) {
      samples += (i == 0 ? "" : ", ") + JsonNumber(series[i]);
    }
    samples += "]";
  }
  samples += "}";
  return "{\"workload\": " + JsonString(workload) +
         ", \"seed\": " + std::to_string(seed) +
         ", \"trace\": " + (traced ? "1" : "0") +
         ", \"seconds\": " + JsonNumber(seconds) +
         ", \"correct\": " + (out.correct() ? "true" : "false") +
         ", \"attempted\": " + std::to_string(out.attempted) +
         ", \"failed\": " + std::to_string(out.failed) +
         ", \"errors\": " + errors + ", \"metrics\": " +
         MetricsJson(out, defs) + ", \"samples\": " + samples +
         ", \"quality\": {\"loss_pct\": " + JsonNumber(out.loss_pct) +
         ", \"messages\": " + std::to_string(out.messages) + "}" +
         ", \"build\": {\"compiler\": " + JsonString(__VERSION__) +
         ", \"hardware_threads\": " +
         std::to_string(std::thread::hardware_concurrency()) + "}}\n";
}

void PrintSummary(const std::string& workload, uint64_t seed,
                  const Outcome& out, const std::vector<MetricDef>& defs) {
  std::printf("%s seed=%llu attempted=%llu failed=%llu\n", workload.c_str(),
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (const MetricDef& def : defs) {
    const auto value = out.metrics.find(def.name);
    const auto samples = out.samples.find(def.name);
    std::printf("  %-30s %16.6g %-6s (%zu samples)\n", def.name,
                value != out.metrics.end() ? value->second : 0.0, def.unit,
                samples != out.samples.end() ? samples->second.size() : 0);
  }
  std::printf("  quality: loss_pct=%.17g messages=%llu\n", out.loss_pct,
              static_cast<unsigned long long>(out.messages));
  for (const std::string& error : out.errors) {
    std::printf("  FAILED: %s\n", error.c_str());
  }
}

void PrintList() {
  for (const std::string& name : WorkloadNames()) {
    std::printf("workload %s\n", name.c_str());
  }
  for (const MetricDef& def : EndToEndMetrics()) {
    std::printf("end_to_end %s %s %s\n", def.name, def.unit, def.better);
  }
  for (const MetricDef& def : PerLayerMetrics()) {
    std::printf("per_layer %s %s %s\n", def.name, def.unit, def.better);
  }
}

// The traced pass must name the first EngineMetrics field that differs:
// every field, flipped alone, is named by the comparator, and a flipped
// reference fails a real traced pass (push and serving) by name.
bool Selftest() {
  bool ok = true;
  core::EngineMetrics base;
  base.per_member_loss = {0.0, 1.5, -1.0};
  for (const std::string& field : EngineFieldNames()) {
    core::EngineMetrics changed = base;
    PerturbField(changed, field);
    const std::string named = FirstDifference(base, changed);
    if (named != field) {
      std::printf("selftest: flipping %s was reported as '%s'\n",
                  field.c_str(), named.c_str());
      ok = false;
    }
  }
  for (const char* workload : {"paper_sweep", "serve_feed"}) {
    for (const char* field : {"loss_percent", "per_member_loss", "horizon"}) {
      Result<Workload> w = MakeWorkload(workload, /*smoke=*/true);
      Ledger ledger(true);
      const Outcome out = MeasureTraced(*w, 42, 0.0, ledger, field);
      bool named = false;
      for (const std::string& error : out.errors) {
        named = named || error.find(std::string(" in ") + field) !=
                             std::string::npos;
      }
      if (out.correct() || !named) {
        std::printf("selftest: %s traced pass missed a flipped %s\n",
                    workload, field);
        ok = false;
      }
    }
  }
  std::printf("selftest: %s\n", ok ? "ok" : "FAILED");
  return ok;
}

// Every workload at toy scale, untraced and traced, every check on.
bool Smoke() {
  bool ok = Selftest();
  for (const std::string& name : WorkloadNames()) {
    Result<Workload> w = MakeWorkload(name, /*smoke=*/true);
    const Clock::time_point start = Clock::now();
    const Outcome plain = MeasureUntraced(*w, 42, 0.0);
    Ledger ledger(true);
    const Outcome traced = MeasureTraced(*w, 42, 0.0, ledger);
    bool complete = true;
    for (const MetricDef& def : EndToEndMetrics()) {
      complete = complete && plain.metrics.count(def.name) == 1;
    }
    for (const MetricDef& def : PerLayerMetrics()) {
      complete = complete && traced.metrics.count(def.name) == 1;
    }
    const bool passed = plain.correct() && traced.correct() && complete &&
                        plain.loss_pct == traced.loss_pct &&
                        plain.messages == traced.messages;
    std::printf("smoke %-13s %s  (%llu + %llu ops, %.2f s)\n", name.c_str(),
                passed ? "ok" : "FAILED",
                static_cast<unsigned long long>(plain.attempted),
                static_cast<unsigned long long>(traced.attempted),
                SecondsSince(start));
    for (const std::string& error : plain.errors) {
      std::printf("  untraced: %s\n", error.c_str());
    }
    for (const std::string& error : traced.errors) {
      std::printf("  traced: %s\n", error.c_str());
    }
    if (!complete) std::printf("  a catalogued metric is missing\n");
    ok = ok && passed;
  }
  return ok;
}

int Main(int argc, char** argv) {
  CommandLine cli;
  cli.AddFlag("workload", "", "workload to run (see --list)");
  cli.AddFlag("seed", "42", "seed the workload's inputs are generated from");
  cli.AddFlag("seconds", "25", "how long the timed loop runs");
  cli.AddFlag("trace", "0", "1 = per-layer traced pass, 0 = end-to-end");
  cli.AddFlag("trace-out", "", "write the traced pass's spans here "
                               "(Chrome-trace JSON)");
  cli.AddFlag("out-json", "", "also write the full result record here");
  cli.AddFlag("list", "false", "print workloads and metrics, then exit");
  cli.AddFlag("smoke", "false",
              "run every workload at toy scale with every check");
  if (Status parsed = cli.Parse(argc, argv); !parsed.ok()) {
    std::fprintf(stderr, "%s\n%s", parsed.ToString().c_str(),
                 cli.Help(argv[0]).c_str());
    return 2;
  }
  if (cli.GetBool("list")) {
    PrintList();
    return 0;
  }
  if (cli.GetBool("smoke")) return Smoke() ? 0 : 1;

  const std::string name = cli.GetString("workload");
  Result<Workload> w = MakeWorkload(name, /*smoke=*/false);
  const int64_t seed = cli.GetInt("seed");
  const double seconds = cli.GetDouble("seconds");
  const int64_t trace = cli.GetInt("trace");
  if (!w.ok() || seed < 0 || seconds < 0.0 || (trace != 0 && trace != 1)) {
    std::fprintf(stderr, "%s\n%s",
                 w.ok() ? "bad --seed, --seconds or --trace"
                        : w.status().ToString().c_str(),
                 cli.Help(argv[0]).c_str());
    return 2;
  }
  const bool traced = trace == 1;
  const auto& defs = traced ? PerLayerMetrics() : EndToEndMetrics();
  Ledger ledger(traced);
  const Outcome out =
      traced ? MeasureTraced(*w, static_cast<uint64_t>(seed), seconds, ledger)
             : MeasureUntraced(*w, static_cast<uint64_t>(seed), seconds);
  PrintSummary(name, static_cast<uint64_t>(seed), out, defs);

  bool written = true;
  if (const std::string path = cli.GetString("trace-out"); !path.empty()) {
    written = obs::WriteFile(path, ledger.ChromeTraceJson()).ok() && written;
  }
  if (const std::string path = cli.GetString("out-json"); !path.empty()) {
    written = obs::WriteFile(path, DetailJson(name, static_cast<uint64_t>(seed),
                                              traced, seconds, out, defs))
                  .ok() &&
              written;
  }
  if (!written) std::fprintf(stderr, "could not write an output file\n");
  std::printf("%s\n", ResultLine(out, defs).c_str());
  std::fflush(stdout);
  return out.correct() && written ? 0 : 1;
}

}  // namespace
}  // namespace d3t::e2e

int main(int argc, char** argv) { return d3t::e2e::Main(argc, argv); }
