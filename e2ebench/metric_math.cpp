#include "metric_math.hpp"

#include <algorithm>
#include <cmath>

namespace e2ebench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  const double rank = std::ceil(std::clamp(q, 0.0, 1.0) * n);
  const std::size_t index = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double supported_percentile(std::size_t n) {
  static const double kPercentiles[] = {99.999, 99.99, 99.9, 99, 90, 50};
  for (const double p : kPercentiles)
    if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0 - 1e-9) return p;
  return 0;
}

std::map<std::string, LabelTime> self_times(std::vector<SpanRecord> spans) {
  // Within one thread scopes nest, so a sweep in start order with a stack of
  // open spans finds each span's parent: the innermost open span one level
  // shallower that has not ended yet.
  std::sort(spans.begin(), spans.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              if (a.thread != b.thread) return a.thread < b.thread;
              if (a.start_s != b.start_s) return a.start_s < b.start_s;
              return a.depth < b.depth;
            });
  std::vector<double> covered(spans.size(), 0.0);
  std::vector<double> covered_until(spans.size(), 0.0);
  std::vector<std::size_t> open;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    while (!open.empty()) {
      const SpanRecord& top = spans[open.back()];
      if (top.thread == s.thread && top.depth < s.depth &&
          s.start_s < top.end_s)
        break;
      open.pop_back();
    }
    if (!open.empty() && spans[open.back()].depth + 1 == s.depth) {
      const std::size_t p = open.back();
      const double from = std::max(s.start_s, covered_until[p]);
      const double to = std::min(s.end_s, spans[p].end_s);
      if (to > from) {
        covered[p] += to - from;
        covered_until[p] = to;
      }
    }
    open.push_back(i);
  }
  std::map<std::string, LabelTime> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    LabelTime& t = out[spans[i].label];
    const double duration = spans[i].end_s - spans[i].start_s;
    ++t.count;
    t.total_s += duration;
    t.self_s += std::max(0.0, duration - covered[i]);
  }
  return out;
}

double busy_seconds(const std::vector<SpanRecord>& spans,
                    const std::string& label) {
  std::vector<std::pair<double, double>> intervals;
  for (const SpanRecord& s : spans)
    if (s.label == label) intervals.emplace_back(s.start_s, s.end_s);
  std::sort(intervals.begin(), intervals.end());
  double busy = 0, open_until = -1e300;
  for (const auto& [start, end] : intervals) {
    if (end <= open_until) continue;
    busy += end - std::max(start, open_until);
    open_until = end;
  }
  return busy;
}

double RateLadder::rate(int rung) const {
  return base_rps * std::exp2(static_cast<double>(rung) / steps_per_octave);
}

int search_max_rung(const RateLadder& ladder,
                    const std::function<bool(int rung)>& passes,
                    int known_pass) {
  if (known_pass < 0 && !passes(0)) return -1;
  int lo = std::max(0, known_pass);  // highest rung known to pass
  int hi = -1;  // lowest rung known to fail
  while (lo < ladder.max_rung) {
    const int next = std::min(lo + ladder.steps_per_octave, ladder.max_rung);
    if (!passes(next)) {
      hi = next;
      break;
    }
    lo = next;
  }
  if (hi < 0) return lo;
  while (hi - lo > 1) {
    const int mid = lo + (hi - lo) / 2;
    if (passes(mid))
      lo = mid;
    else
      hi = mid;
  }
  return lo;
}

std::vector<double> poisson_schedule(double rate_rps, double seconds,
                                     std::uint64_t seed) {
  std::uint64_t state = seed ^ 0x9E3779B97F4A7C15ULL;
  auto next_uniform = [&state] {
    // splitmix64; 53 random bits mapped to (0, 1].
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z ^= z >> 31;
    return (static_cast<double>(z >> 11) + 1.0) * 0x1.0p-53;
  };
  std::vector<double> due;
  if (rate_rps <= 0 || seconds <= 0) return due;
  due.reserve(static_cast<std::size_t>(rate_rps * seconds * 1.1) + 16);
  for (double t = -std::log(next_uniform()) / rate_rps; t < seconds;
       t += -std::log(next_uniform()) / rate_rps)
    due.push_back(t);
  return due;
}

OpenLoopSummary summarize_open_loop(const std::vector<double>& due_s,
                                    const std::vector<double>& sent_s,
                                    const std::vector<double>& done_s,
                                    double budget_s, double window_s) {
  OpenLoopSummary s;
  s.attempted = due_s.size();
  std::vector<double> latency, lag, first, last;
  latency.reserve(due_s.size());
  lag.reserve(due_s.size());
  const std::size_t quarter = due_s.size() / 4;
  for (std::size_t i = 0; i < due_s.size(); ++i) {
    lag.push_back(sent_s[i] - due_s[i]);
    if (done_s[i] < 0) {
      ++s.failed;
      continue;
    }
    const double l = due_latency_s(due_s[i], done_s[i]);
    latency.push_back(l);
    if (l <= budget_s) ++s.within_budget;
    if (i < quarter) first.push_back(l);
    if (i >= due_s.size() - quarter) last.push_back(l);
  }
  s.p50_s = quantile(latency, 0.50);
  s.p99_s = quantile(latency, 0.99);
  s.tail_pct = supported_percentile(latency.size());
  s.window_p99_s = median_window_p99(due_s, done_s, window_s);
  s.lag_p99_s = quantile(lag, 0.99);
  if (!first.empty() && !last.empty()) {
    const double late = median(last);
    s.backlog_grew = late > budget_s && late > 2.0 * median(first);
  }
  return s;
}

double median_window_p99(const std::vector<double>& due_s,
                         const std::vector<double>& done_s, double window_s) {
  std::vector<double> all, window, p99s;
  auto close_window = [&] {
    if (window.size() >= 1000) p99s.push_back(quantile(window, 0.99));
    window.clear();
  };
  double window_end = due_s.empty() ? 0 : due_s.front() + window_s;
  for (std::size_t i = 0; i < due_s.size(); ++i) {
    while (due_s[i] >= window_end) {
      close_window();
      window_end += window_s;
    }
    if (done_s[i] < 0) continue;
    const double l = due_latency_s(due_s[i], done_s[i]);
    window.push_back(l);
    all.push_back(l);
  }
  close_window();
  return p99s.empty() ? quantile(all, 0.99) : median(p99s);
}

bool rung_passes(const OpenLoopSummary& s, double budget_s) {
  return s.failed == 0 && s.tail_pct >= 99 && s.window_p99_s <= budget_s &&
         !s.backlog_grew;
}

std::vector<double> window_rates(const std::vector<double>& done_s,
                                 double from_s, double to_s, double window_s) {
  if (!(window_s > 0) || !(to_s > from_s)) return {};
  const auto windows =
      static_cast<std::size_t>(std::floor((to_s - from_s) / window_s + 1e-9));
  std::vector<std::size_t> count(windows, 0);
  std::vector<double> first(windows, 0.0), last(windows, 0.0);
  for (const double t : done_s) {
    if (t < from_s) continue;
    const auto w = static_cast<std::size_t>((t - from_s) / window_s);
    if (w >= windows) continue;
    if (count[w]++ == 0) first[w] = last[w] = t;
    first[w] = std::min(first[w], t);
    last[w] = std::max(last[w], t);
  }
  std::vector<double> rates(windows, 0.0);
  for (std::size_t w = 0; w < windows; ++w)
    if (count[w] >= 2 && last[w] > first[w])
      rates[w] = static_cast<double>(count[w] - 1) / (last[w] - first[w]);
  return rates;
}

}  // namespace e2ebench
