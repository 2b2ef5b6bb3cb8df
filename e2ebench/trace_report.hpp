// Per-layer numbers from a traced run: obs::Profiler spans turned into
// SpanRecords, cut to time windows, and grouped into per-layer self times
// of the benchmark's own thread (which add up to the run's wall time).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "metric_math.hpp"

namespace e2ebench {

/// An interval on the profiler clock (obs::Profiler::now_s()).
struct TimeWindow {
  double begin_s = 0;
  double end_s = 0;
};

/// Every span the profiler has collected so far.
std::vector<SpanRecord> collect_spans();

/// The spans that start inside any of `windows`.
std::vector<SpanRecord> within(const std::vector<SpanRecord>& spans,
                               const std::vector<TimeWindow>& windows);

/// The layer a span label belongs to: "la", "core", "data", "parallel",
/// "serve" or "bench" (the benchmark's own stage spans that do not wrap one
/// layer's call); "other" for labels no layer claims, so new spans in the
/// library show up instead of vanishing.
std::string layer_of(const std::string& label);

/// Self time per layer of the thread that recorded `root` (the benchmark's
/// main thread), plus "unattributed" = the root span's own self time and
/// "wall" = its duration. Layers sum to the wall time by construction.
std::map<std::string, double> main_thread_layers(
    const std::vector<SpanRecord>& spans, const std::string& root);

}  // namespace e2ebench
