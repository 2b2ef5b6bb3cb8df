#include "serve/latency_recorder.hpp"

namespace deepphi::serve {

LatencySummary summarize(const obs::HistogramSnapshot& snapshot) {
  LatencySummary s;
  s.count = snapshot.count;
  s.mean_s = snapshot.mean();
  s.p50_s = snapshot.quantile(0.50);
  s.p95_s = snapshot.quantile(0.95);
  s.p99_s = snapshot.quantile(0.99);
  s.max_s = snapshot.max;
  return s;
}

LatencySummary LatencyRecorder::summary() const {
  return summarize(histogram_.snapshot());
}

}  // namespace deepphi::serve
