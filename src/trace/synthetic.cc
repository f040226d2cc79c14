#include "trace/synthetic.h"

#include <algorithm>
#include <cmath>

namespace d3t::trace {

namespace {

/// Mean inter-tick interval: the paper polled about once a second.
constexpr sim::SimTime kMeanInterval = sim::Seconds(1.0);
/// Uniform jitter on each interval, as a fraction of the mean.
constexpr double kIntervalJitter = 0.2;
/// Strength of the pull toward the band center, in [0, 1].
constexpr double kMeanReversion = 0.4;

}  // namespace

double RoundToCents(double value) {
  return std::round(value * 100.0) / 100.0;
}

Result<Trace> GenerateSyntheticTrace(const SyntheticTraceOptions& options,
                                     Rng& rng) {
  if (options.tick_count == 0) {
    return Status::InvalidArgument("tick_count must be positive");
  }
  if (!std::isfinite(options.min_price) || !std::isfinite(options.max_price) ||
      options.max_price <= options.min_price || options.min_price <= 0.0) {
    return Status::InvalidArgument("need finite max_price > min_price > 0");
  }

  const double center = 0.5 * (options.min_price + options.max_price);
  const double half_width = 0.5 * (options.max_price - options.min_price);
  double price = RoundToCents(center);

  std::vector<Tick> ticks;
  ticks.reserve(options.tick_count);
  sim::SimTime now = 0;
  for (size_t i = 0; i < options.tick_count; ++i) {
    ticks.push_back(Tick{now, price});

    // Next timestamp: mean interval with uniform jitter, at least 1 us.
    const double jitter =
        rng.NextDoubleInRange(-kIntervalJitter, kIntervalJitter);
    sim::SimTime step = std::max<sim::SimTime>(
        1, static_cast<sim::SimTime>(static_cast<double>(kMeanInterval) *
                                     (1.0 + jitter)));
    if (i == 0) {
      // Polling loops for different tickers are not synchronized: a
      // random phase in [0, kMeanInterval) keeps the traces from
      // ticking in lockstep and hitting the source in bursts.
      step += static_cast<sim::SimTime>(rng.NextDouble() *
                                        static_cast<double>(kMeanInterval));
    }
    now += step;

    if (!rng.NextBernoulli(options.move_probability)) continue;

    // Move size: one cent plus exponential extra cents.
    const double extra =
        options.mean_extra_cents > 0.0
            ? std::floor(rng.NextExponential(options.mean_extra_cents))
            : 0.0;
    const double move = (1.0 + extra) * 0.01;

    // Direction biased toward the band center (mean reversion).
    const double displacement =
        half_width > 0.0 ? (price - center) / half_width : 0.0;
    const double p_up = 0.5 - 0.5 * kMeanReversion * displacement;
    const double direction = rng.NextBernoulli(p_up) ? 1.0 : -1.0;

    price = RoundToCents(price + direction * move);
    price = std::clamp(price, options.min_price, options.max_price);
  }
  return Trace(options.name, std::move(ticks));
}

const std::vector<TickerPreset>& Table1Presets() {
  static const std::vector<TickerPreset>* presets =
      new std::vector<TickerPreset>{
          {"MSFT", 60.09, 60.85}, {"SUNW", 10.60, 10.99},
          {"DELL", 27.16, 28.26}, {"QCOM", 40.38, 41.23},
          {"INTC", 33.66, 34.239}, {"ORCL", 16.51, 17.10},
      };
  return *presets;
}

std::vector<Trace> BuildTraceLibrary(size_t count, size_t ticks_per_trace,
                                     Rng& rng) {
  std::vector<Trace> traces;
  traces.reserve(count);
  const auto& presets = Table1Presets();
  for (size_t i = 0; i < count; ++i) {
    SyntheticTraceOptions options;
    options.tick_count = ticks_per_trace;
    if (i < presets.size()) {
      options.name = presets[i].name;
      options.min_price = presets[i].min_price;
      options.max_price = presets[i].max_price;
    } else {
      options.name = "SYN" + std::to_string(i);
      const double level = rng.NextDoubleInRange(5.0, 100.0);
      const double band = level * rng.NextDoubleInRange(0.01, 0.04);
      options.min_price = RoundToCents(level - band / 2.0);
      options.max_price = RoundToCents(level + band / 2.0);
    }
    options.move_probability = rng.NextDoubleInRange(0.2, 0.5);
    options.mean_extra_cents = rng.NextDoubleInRange(0.5, 2.5);
    Result<Trace> trace = GenerateSyntheticTrace(options, rng);
    // Library construction uses validated parameter ranges, so generation
    // cannot fail; assert in debug and skip defensively in release.
    if (trace.ok()) traces.push_back(std::move(trace).value());
  }
  return traces;
}

}  // namespace d3t::trace
