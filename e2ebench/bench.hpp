// Shared declarations of the end-to-end benchmark (README.md): what a run
// reports, how it is asked for, and the open-loop serving load.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/encoder.hpp"
#include "la/matrix.hpp"
#include "metric_math.hpp"
#include "serve/inference_server.hpp"

namespace e2ebench {

using deepphi::la::Index;

/// One reported number. End-to-end metrics go to the result line of an
/// untraced run, per-layer metrics to that of a traced run; both kinds are
/// printed as "name value unit" lines either way.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  bool end_to_end = false;
};

struct RunResult {
  std::vector<Metric> metrics;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> check_failures;  // empty = every check passed
  std::vector<std::string> notes;  // human-readable progress lines
  int replicas = 1;         // training replicas the workload ran
  int replica_threads = 0;  // OpenMP threads per replica (0 = ambient)
  double host_contention_share = 0;  // see contention_share()

  void add(const std::string& name, double value, const std::string& unit,
           bool end_to_end = false) {
    metrics.push_back({name, value, unit, end_to_end});
  }
  void check(bool ok, const std::string& what) {
    if (!ok) {
      check_failures.push_back(what);
      ++failed;
    }
  }
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";  // run ledger, traces, scratch shards
};

/// Runs one named workload; throws std::invalid_argument for unknown names.
RunResult run_workload(const RunOptions& options);

/// Names of every workload, in the order the docs list them.
std::vector<std::string> workload_names();

// ---- open-loop serving (serve_load.cpp) ----------------------------------

/// Two served lanes of one model ("fp32" and its int8 quantization "int8"),
/// each with two versions that the control thread alternates between:
/// version v serves model (v − 1) % 2, where model 0 is the trained
/// checkpoint and model 1 the initial one.
struct ServedModels {
  static constexpr int kLanes = 2;
  static constexpr const char* kLaneNames[kLanes] = {"fp32", "int8"};
  std::shared_ptr<const deepphi::core::Encoder> model[kLanes][2];
  /// Request inputs: row p of `pool` is the input of every request that
  /// draws pool index p.
  deepphi::la::Matrix pool;
  /// expected[lane][m].row(p): a direct one-row encode() of pool row p by
  /// model m of that lane — what every reply must equal bit for bit.
  deepphi::la::Matrix expected[kLanes][2];

  /// Fills `expected` by encoding each pool row on its own.
  void compute_expected();
};

/// Every lane's latency budget (SLO): the rate ladder's pass criterion and
/// the bound serve.good_share counts against.
inline constexpr double kLaneBudgetS = 0.010;

/// What one open-loop phase measured.
struct ServePhase {
  OpenLoopSummary summary;
  std::size_t wrong_replies = 0;     // bitwise mismatches (counted failed)
  std::size_t control_failures = 0;  // unexpected version or empty scrape
  deepphi::serve::ServerStats stats;  // all lanes
  deepphi::serve::ServerStats lane_stats[ServedModels::kLanes];
  std::vector<double> publish_s;  // duration of each publish_shared call
  std::vector<double> scrape_s;   // duration of each prometheus_text call
  double window_begin_s = 0;      // profiler-clock interval of the phase
  double window_end_s = 0;
  /// Per measured request (after the warm-up): when it was due, sent and
  /// done (done < 0: failed), in seconds from the phase's start. Open loop
  /// only.
  std::vector<double> due_s, sent_s, done_s;
  /// Correct replies per second in each window after the warm-up. Closed
  /// loop only.
  std::vector<double> window_rps;
};

/// Offers Poisson traffic at `rate_rps` for a short warm-up plus `seconds`
/// from one generator thread, split 50/50 between the lanes, against a
/// fresh registry and InferenceServer; a control thread publishes and
/// scrapes meanwhile and one collector thread per lane times and checks
/// every reply. The summary covers the requests due after the warm-up; its
/// windowed p99 uses `window_s` windows.
ServePhase run_open_loop(const ServedModels& models, double rate_rps,
                         double seconds, double window_s, std::uint64_t seed);

/// Keeps `outstanding` requests in flight from one client thread, split
/// 50/50 between the lanes, for a short warm-up plus `seconds` against a
/// fresh registry and InferenceServer: as soon as the oldest request is
/// answered and checked, the next is sent. The control thread publishes and
/// scrapes meanwhile. window_rps holds the correct replies per second of
/// each `window_s` window after the warm-up; summary holds only the counts
/// of attempted and failed requests, warm-up included.
ServePhase run_closed_loop(const ServedModels& models, std::size_t outstanding,
                           double seconds, double window_s, std::uint64_t seed);

/// Joins phases offered at one rate into one: counts, server stats and
/// control timings add up, and the summary covers every request, with each
/// phase's `window_s` windows kept apart.
ServePhase join_phases(const std::vector<ServePhase>& parts, double window_s);

}  // namespace e2ebench
