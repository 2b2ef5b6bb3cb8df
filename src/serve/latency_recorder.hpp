// Thread-safe end-to-end latency accounting for the serving engine, backed
// by obs::Histogram: record() is a lock-free histogram update (no mutex
// anywhere in the per-request hot path, so a live stats poll never stalls a
// worker) and summary() is an O(buckets) scan. Quantiles are bucket-resolved
// within ~1% relative error (see obs/histogram.hpp); count/mean/max are
// exact.
#pragma once

#include <cstdint>

#include "obs/histogram.hpp"

namespace deepphi::serve {

struct LatencySummary {
  std::int64_t count = 0;
  double mean_s = 0;
  double p50_s = 0;
  double p95_s = 0;
  double p99_s = 0;
  double max_s = 0;
};

class LatencyRecorder {
 public:
  /// Lock-free (a handful of relaxed atomic ops); safe from any thread.
  void record(double seconds) { histogram_.record(seconds); }

  /// Samples recorded so far.
  std::int64_t count() const { return histogram_.count(); }

  /// p50/p95/p99 are histogram quantiles (≤ ~1% relative error);
  /// count/mean/max are exact.
  LatencySummary summary() const;

  /// The underlying histogram (rolling windows, exposition, tests).
  const obs::Histogram& histogram() const { return histogram_; }

 private:
  obs::Histogram histogram_;
};

/// Summary of an arbitrary snapshot — shared by LatencyRecorder, the serving
/// CLI's per-stage shutdown report, and the stats endpoint.
LatencySummary summarize(const obs::HistogramSnapshot& snapshot);

}  // namespace deepphi::serve
