// The end-to-end benchmark's metric arithmetic, kept free of any deepphi type
// so it is testable on its own (metric_math_test.cpp):
//
//  * the percentile rule — a timing is reported as its median plus the
//    highest percentile that still has at least ten samples beyond it;
//  * self time — a span's duration minus the part of its interval that its
//    child spans (deeper spans on the same thread) cover;
//  * the rate ladder — fixed geometric rungs, searched by doubling probes
//    and then bisection for the highest rung that meets the latency budget;
//  * the open loop — a seeded Poisson arrival schedule, and request latency
//    timed from each request's due time, not from when it was sent;
//  * the closed loop — completions per second in fixed windows.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace e2ebench {

// ---- percentiles ---------------------------------------------------------

/// Nearest-rank quantile of `values` (q in [0, 1]); 0 for an empty sample.
/// Sorts a copy, so callers may pass unsorted data.
double quantile(std::vector<double> values, double q);

double median(std::vector<double> values);

/// The highest percentile of {50, 90, 99, 99.9, 99.99, 99.999} that leaves
/// at least ten of `n` samples strictly beyond it (n·(1 − p/100) >= 10);
/// 0 when even the median is unsupported (n < 20).
double supported_percentile(std::size_t n);

// ---- spans and self time -------------------------------------------------

/// One recorded span. `depth` is its nesting depth on `thread` at entry, so
/// a child is a span on the same thread with depth + 1 that starts inside.
struct SpanRecord {
  std::string label;
  double start_s = 0;
  double end_s = 0;
  std::uint32_t thread = 0;
  std::uint32_t depth = 0;
};

struct LabelTime {
  std::int64_t count = 0;
  double total_s = 0;  // sum of span durations
  double self_s = 0;   // sum of (duration − children's covered interval)
};

/// Per-label totals and self times over `spans`. Children of a span are the
/// spans one level deeper on the same thread that start within it; the
/// covered part is clipped to the parent's interval and overlapping children
/// are merged, so self time is never negative.
std::map<std::string, LabelTime> self_times(std::vector<SpanRecord> spans);

/// Seconds during which at least one span labelled `label` was open, on any
/// thread: the length of the union of their intervals. Work rates divide by
/// this, so concurrent callers (replicas) are not double counted.
double busy_seconds(const std::vector<SpanRecord>& spans,
                    const std::string& label);

// ---- rate ladder ---------------------------------------------------------

/// Rung r offers base_rps · 2^(r / steps_per_octave) requests per second.
struct RateLadder {
  double base_rps = 1000;
  int steps_per_octave = 16;
  int max_rung = 160;

  double rate(int rung) const;
};

/// Highest rung in [0, max_rung] for which `passes` holds, assuming the
/// predicate is monotone (true up to some rung, false above). Starts from
/// `known_pass` (a rung already shown to pass) or, when that is negative, by
/// probing rung 0; then doubles the rate (steps_per_octave rungs at a time)
/// until a probe fails, then bisects between the last pass and the first
/// failure. Returns −1 when rung 0 fails. Each rung is probed at most once.
int search_max_rung(const RateLadder& ladder,
                    const std::function<bool(int rung)>& passes,
                    int known_pass = -1);

// ---- open loop -----------------------------------------------------------

/// Poisson arrivals at `rate_rps` over [0, seconds): seeded exponential gaps
/// from a splitmix64 stream, so the same seed gives the same schedule.
std::vector<double> poisson_schedule(double rate_rps, double seconds,
                                     std::uint64_t seed);

/// Latency of one open-loop request, timed from when it was due. A request
/// sent late (generator lag) or queued behind a stall is charged for the
/// whole wait, which a send-to-reply timer would hide.
inline double due_latency_s(double due_s, double done_s) {
  return done_s - due_s;
}

/// Summary of one open-loop phase. Latencies are due-time latencies of the
/// requests that succeeded; failed requests count as missing the budget.
struct OpenLoopSummary {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double p50_s = 0;
  double p99_s = 0;
  double tail_pct = 0;     // supported_percentile(successes)
  double window_p99_s = 0;  // median_window_p99 over window_s windows
  double lag_p99_s = 0;    // generator lateness (sent − due), p99
  std::size_t within_budget = 0;  // successes no later than budget_s
  bool backlog_grew = false;
};

/// Summarizes one phase from per-request due, sent and done times (done < 0
/// marks a failed request), with the windowed p99 over `window_s` windows.
/// The backlog is judged growing when the median latency of the last
/// quarter of requests (by due time) exceeds both `budget_s` and twice the
/// first quarter's.
OpenLoopSummary summarize_open_loop(const std::vector<double>& due_s,
                                    const std::vector<double>& sent_s,
                                    const std::vector<double>& done_s,
                                    double budget_s, double window_s);

/// Median over consecutive `window_s` windows (by due time, from the first
/// request) of each window's p99 latency, counting only windows with at
/// least 1000 successes so each p99 has ten beyond it; the whole-sample p99
/// when no window has that many. One stall then moves one window's p99, not
/// the reported figure. done < 0 marks a failed request.
double median_window_p99(const std::vector<double>& due_s,
                         const std::vector<double>& done_s, double window_s);

/// A ladder rung passes when no request failed, the windowed p99 stays
/// within `budget_s` (so a single stalled window cannot fail it), the sample
/// supports a p99 at all, and the backlog did not grow.
bool rung_passes(const OpenLoopSummary& s, double budget_s);

// ---- closed loop ---------------------------------------------------------

/// Completion rate in each whole `window_s` window of [from_s, to_s), in
/// window order: the gaps between a window's first and last completion over
/// the time they span (0 for a window with fewer than two). done < 0 marks
/// a failed request, which is not counted; a tail shorter than one window
/// is dropped.
std::vector<double> window_rates(const std::vector<double>& done_s,
                                 double from_s, double to_s, double window_s);

}  // namespace e2ebench
