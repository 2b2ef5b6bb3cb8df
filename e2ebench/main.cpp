// Command-line entry point of the deepphi end-to-end benchmark (README.md).
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--out-dir <dir>]
//
// Prints every metric as "metric <name> <value> <unit>", the environment the
// run saw as one "env {...}" line, and as its LAST line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1). Each run is also appended to <out-dir>/runs.jsonl together
// with host, nproc, SIMD tier, thread counts, seed and commit.
#include <omp.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"
#include "la/simd/dispatch.hpp"

namespace {

using e2ebench::Metric;
using e2ebench::RunOptions;
using e2ebench::RunResult;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string host_cpu() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  return "unknown";
}

/// The environment record every run carries: what a number depends on
/// besides the code, so two runs on different machines are never confused.
std::string env_json(const RunOptions& o, const RunResult& r) {
  const char* commit = std::getenv("E2EBENCH_COMMIT");
  const char* default_threads = std::getenv("OMP_NUM_THREADS");
  std::ostringstream os;
  os << "{\"host_cpu\": " << json_string(host_cpu())
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"simd_tier\": "
     << json_string(deepphi::la::simd::tier_name(
            deepphi::la::simd::active_tier()))
     << ", \"omp_threads\": " << omp_get_max_threads()
     << ", \"omp_num_threads_env\": "
     << json_string(default_threads ? default_threads : "")
     << ", \"replicas\": " << r.replicas
     << ", \"replica_threads\": " << r.replica_threads
     << ", \"workload\": " << json_string(o.workload)
     << ", \"seed\": " << o.seed
     << ", \"seconds\": " << json_number(o.seconds)
     << ", \"trace\": " << (o.trace ? 1 : 0)
     << ", \"host_contention_share\": "
     << json_number(r.host_contention_share)
     << ", \"commit\": " << json_string(commit ? commit : "unknown") << "}";
  return os.str();
}

std::string result_json(const RunResult& r, bool trace) {
  std::ostringstream os;
  os << "{\"correct\": " << (r.check_failures.empty() ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : r.metrics) {
    if (m.end_to_end == trace) continue;
    os << (first ? "" : ", ") << json_string(m.name) << ": {\"value\": "
       << json_number(m.value) << ", \"unit\": " << json_string(m.unit) << "}";
    first = false;
  }
  os << "}}";
  return os.str();
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>]\nworkloads:",
               why.c_str());
  for (const std::string& w : e2ebench::workload_names())
    std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

RunOptions parse(int argc, char** argv) {
  RunOptions o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i], value;
    const auto eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      usage("missing value for " + flag);
    }
    try {
      if (flag == "--workload") {
        o.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        o.trace = std::stoi(value) != 0;
      } else if (flag == "--out-dir") {
        o.out_dir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const RunOptions options = parse(argc, argv);
  // Training runs its OpenMP team on this thread with nproc threads whatever
  // OMP_NUM_THREADS says; the environment's default only reaches threads
  // that never set their own team size, which here are the serving pool's.
  omp_set_num_threads(static_cast<int>(std::thread::hardware_concurrency()));
  try {
    const RunResult result = e2ebench::run_workload(options);
    for (const std::string& note : result.notes)
      std::printf("%s\n", note.c_str());
    for (const Metric& m : result.metrics)
      std::printf("metric %-28s %14.6g %s%s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.end_to_end ? "  [end-to-end]" : "");
    for (const std::string& f : result.check_failures)
      std::printf("CHECK FAILED: %s\n", f.c_str());
    const std::string env = env_json(options, result);
    const std::string line = result_json(result, options.trace);
    std::filesystem::create_directories(options.out_dir);
    std::ofstream ledger(
        std::filesystem::path(options.out_dir) / "runs.jsonl", std::ios::app);
    ledger << "{\"env\": " << env << ", \"result\": " << line << "}\n";
    std::printf("env %s\n%s\n", env.c_str(), line.c_str());
    std::fflush(stdout);
    return 0;
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 1;
  }
}
