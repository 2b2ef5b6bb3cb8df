#include "trace_report.hpp"

#include "obs/profiler.hpp"

namespace e2ebench {

std::vector<SpanRecord> collect_spans() {
  std::vector<SpanRecord> out;
  for (const deepphi::obs::Span& s : deepphi::obs::Profiler::snapshot())
    out.push_back({s.label, s.start_s, s.end_s, s.thread_index, s.depth});
  return out;
}

std::vector<SpanRecord> within(const std::vector<SpanRecord>& spans,
                               const std::vector<TimeWindow>& windows) {
  std::vector<SpanRecord> out;
  for (const SpanRecord& s : spans)
    for (const TimeWindow& w : windows)
      if (s.start_s >= w.begin_s && s.start_s < w.end_s) {
        out.push_back(s);
        break;
      }
  return out;
}

std::string layer_of(const std::string& label) {
  static const std::pair<const char*, const char*> kPrefixes[] = {
      {"bench.shard_", "data"},     {"bench.ckpt_", "core"},
      {"bench.quantize", "core"},   {"bench.", "bench"},
      {"gemm", "la"},               {"trainer.", "core"},
      {"chunk_stream.", "data"},    {"pipeline.", "data"},
      {"dp.", "parallel"},          {"pool.", "parallel"},
      {"parallel_for", "parallel"}, {"serve.", "serve"},
  };
  for (const auto& [prefix, layer] : kPrefixes)
    if (label.rfind(prefix, 0) == 0) return layer;
  return "other";
}

std::map<std::string, double> main_thread_layers(
    const std::vector<SpanRecord>& spans, const std::string& root) {
  std::map<std::string, double> layers;
  const SpanRecord* root_span = nullptr;
  for (const SpanRecord& s : spans)
    if (s.label == root && s.depth == 0) root_span = &s;
  if (!root_span) return layers;
  std::vector<SpanRecord> mine;
  for (const SpanRecord& s : spans)
    if (s.thread == root_span->thread && s.start_s >= root_span->start_s &&
        s.end_s <= root_span->end_s)
      mine.push_back(s);
  for (const auto& [label, time] : self_times(mine))
    layers[label == root ? "unattributed" : layer_of(label)] += time.self_s;
  layers["wall"] = root_span->end_s - root_span->start_s;
  return layers;
}

}  // namespace e2ebench
