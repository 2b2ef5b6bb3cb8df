// The three workloads of the end-to-end benchmark (README.md) and the
// pipeline they share: seed → shards → stream-train → checkpoint → quantize
// → serve under open-loop load. Every layer is timed from outside, around
// calls into deepphi's public API; a traced run also turns on obs::Profiler
// and derives per-layer self times from the spans (trace_report.cpp).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "core/model_io.hpp"
#include "core/quantized_encoder.hpp"
#include "core/trainer.hpp"
#include "data/patches.hpp"
#include "data/sharded_dataset.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "phi/machine_spec.hpp"
#include "trace_report.hpp"

namespace e2ebench {

namespace core = deepphi::core;
namespace data = deepphi::data;
namespace obs = deepphi::obs;
namespace phi = deepphi::phi;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

namespace {

/// The run length the training workloads' cost bands were measured at.
constexpr double kBandSeconds = 20;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 7;
/// One core's AVX-512 FMA peak measured on the reference host (4-core
/// Sapphire Rapids), the roofline la.gemm.roofline_share is stated against.
constexpr double kCorePeakGflops = 124.0;
/// Served-input pool: requests draw their input rows from these.
constexpr Index kPoolRows = 512;
/// Offered rates rung r = 2000 · 2^(r/32) req/s (2.2% apart), up to 1M/s.
const RateLadder kLadder{2000, 32, 288};
/// A ladder probe is kProbeWindows windows of at least kWindowRequests
/// requests each, so every window's p99 has ten samples beyond it and the
/// median over windows shrugs off a stall in one or two of them. It lasts
/// the workload's probe share of --seconds, but sends no more than
/// kProbeMaxRequests when the windows allow it.
constexpr int kProbeWindows = 5;
constexpr double kWindowRequests = 1100;
constexpr double kProbeMaxRequests = 25000;
/// Serving runs in this many rounds, each a closed-loop saturation segment:
/// the server's throughput drifts by several percent over seconds, so the
/// segments sample the whole serving period rather than one stretch of it.
constexpr int kServeRounds = 5;
/// Traced runs add one rate-ladder search to each of the first this many
/// rounds; serve.max_rate_rps is the median over the searches, since the
/// verdicts of probes near the knee vary from run to run and one search
/// alone moves by a few rungs.
constexpr int kLadderSearches = 3;
/// The nominal phase runs as kServeRounds + 1 segments, one before each
/// round and one after the last, so its figures sample the whole serving
/// period rather than one stretch of it. Its p99 is the median over windows
/// of this many requests on average: enough that Poisson variation leaves
/// each one above the 1000 a p99 needs, few enough that a scheduling stall
/// lands in a minority of them.
constexpr double kNominalWindowRequests = 1200;
/// serve.saturated_rps is the median over every saturation segment's windows
/// of this length, so a stall moves one window, not the figure.
constexpr double kSaturationWindowS = 0.25;

enum class ModelKind { kSae, kRbm };

struct Workload {
  const char* name;
  ModelKind kind;
  Index visible;
  Index hidden;
  // Corpus and shards.
  Index corpus_rows;
  data::ShardDtype dtype;
  // Trainer.
  Index batch;
  Index chunk;
  Index shuffle_window;
  int replicas;
  int accumulation;
  core::OptimizerKind optimizer;
  float lr;
  /// Training work of the measured phase: ceil(train_batches_per_s ×
  /// seconds) micro-batches (rounded up to whole chunks by the trainer).
  /// 0 = the workload trains only inside its set-up.
  double train_batches_per_s;
  /// Micro-batches each set-up trains (the serve workload's brief training).
  std::int64_t setup_batches;
  /// Trace-overhead probe: micro-batches trained untraced, then traced.
  std::int64_t probe_batches;
  // Serving.
  double nominal_rps;
  double nominal_share;  // of --seconds
  /// Closed-loop saturation: requests kept in flight, and the share of
  /// --seconds the saturation segments take together.
  std::size_t outstanding;
  double saturation_share;
  double probe_share;  // of --seconds, per ladder probe (at least)
  /// Band of the final training cost, measured over seeds 81-83 at
  /// kBandSeconds (README.md); set-up training is the same at any length.
  double cost_lo;
  double cost_hi;
};

const Workload kWorkloads[] = {
    {"sae_gemm_bound", ModelKind::kSae, 576, 1024, 20000,
     data::ShardDtype::kF32, 1000, 10000, 0, 1, 1, core::OptimizerKind::kSgd,
     0.1f, 4.0, 0, 10, 8000, 0.30, 1024, 0.35, 0.02, 650, 1150},
    {"rbm_dp_shuffled", ModelKind::kRbm, 256, 64, 60000,
     data::ShardDtype::kU8, 100, 10000, 20000, 2, 2,
     core::OptimizerKind::kMomentum, 0.05f, 800.0, 0, 400, 16000, 0.15, 1024,
     0.35, 0.015, 2.6, 3.8},
    {"serve_mixed_swap", ModelKind::kSae, 576, 1024, 4000,
     data::ShardDtype::kF32, 1000, 4000, 0, 1, 1, core::OptimizerKind::kSgd,
     0.1f, 0.0, 4, 4, 8000, 0.30, 1024, 0.50, 0.02, 1350, 1500},
};

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return w;
  throw std::invalid_argument("unknown workload '" + name + "'");
}

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

int nproc() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// CPU seconds of the whole host from /proc/stat (zeros where the kernel
/// does not report them) and of this process, for the contention share.
struct CpuTimes {
  double host_total = 0;  // every state, idle included, summed over CPUs
  double host_busy = 0;   // user, nice, system, irq, softirq
  double host_steal = 0;  // taken by the hypervisor for other guests
  double self = 0;        // this process, all threads, user + system
};

CpuTimes cpu_times() {
  CpuTimes t;
  const double tick = static_cast<double>(sysconf(_SC_CLK_TCK));
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double field = 0;
  // user nice system idle iowait irq softirq steal
  for (int i = 0; i < 8 && in >> field; ++i) {
    t.host_total += field / tick;
    if (i <= 2 || i == 5 || i == 6) t.host_busy += field / tick;
    if (i == 7) t.host_steal = field / tick;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  t.self = static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                      usage.ru_stime.tv_usec);
  return t;
}

/// Share of the host's CPU time between `a` and `b` that went to anything
/// but this process: other processes on the host plus hypervisor steal.
double contention_share(const CpuTimes& a, const CpuTimes& b) {
  const double total = b.host_total - a.host_total;
  if (total <= 0) return 0;
  const double others = (b.host_busy - a.host_busy) - (b.self - a.self) +
                        (b.host_steal - a.host_steal);
  return std::clamp(others / total, 0.0, 1.0);
}

/// Opens a profiler span around `fn` and returns fn's wall seconds.
template <typename Fn>
double timed(const char* label, Fn&& fn) {
  DEEPPHI_PROFILE_SCOPE(label);
  const Clock::time_point t0 = Clock::now();
  fn();
  return since(t0);
}

data::Dataset make_corpus(const Workload& w, std::uint64_t seed) {
  const Index side = static_cast<Index>(std::lround(std::sqrt(w.visible)));
  return w.kind == ModelKind::kSae
             ? data::make_natural_patch_dataset(w.corpus_rows, side, seed)
             : data::make_digit_patch_dataset(w.corpus_rows, side, seed);
}

core::TrainerConfig trainer_config(const Workload& w, std::uint64_t seed,
                                   std::int64_t batches) {
  core::TrainerConfig cfg;
  cfg.batch_size = w.batch;
  cfg.chunk_examples = w.chunk;
  cfg.epochs = 1 << 20;  // max_batches ends the run
  cfg.max_batches = batches;
  cfg.level = core::OptLevel::kImproved;
  cfg.policy = core::ExecPolicy::kPhiOffload;
  cfg.shuffle_window = w.shuffle_window;
  cfg.replicas = w.replicas;
  cfg.accumulation_steps = w.accumulation;
  cfg.replica_threads = w.replicas > 1 ? std::max(1, nproc() / w.replicas) : 0;
  cfg.optimizer.kind = w.optimizer;
  cfg.optimizer.lr = w.lr;
  cfg.seed = seed;
  return cfg;
}

/// A freshly initialized model of the workload's kind behind one interface.
struct Model {
  std::unique_ptr<core::SparseAutoencoder> sae;
  std::unique_ptr<core::Rbm> rbm;

  Model(const Workload& w, std::uint64_t seed) {
    if (w.kind == ModelKind::kSae) {
      core::SaeConfig c;
      c.visible = w.visible;
      c.hidden = w.hidden;
      sae = std::make_unique<core::SparseAutoencoder>(c, seed);
    } else {
      core::RbmConfig c;
      c.visible = w.visible;
      c.hidden = w.hidden;
      rbm = std::make_unique<core::Rbm>(c, seed);
    }
  }
  const core::Encoder& encoder() const {
    return sae ? static_cast<const core::Encoder&>(*sae) : *rbm;
  }
  void save(const std::string& path) const {
    if (sae)
      core::save_model(*sae, path);
    else
      core::save_model(*rbm, path);
  }
  core::TrainReport train(const core::TrainerConfig& cfg,
                          const data::StreamingSource& source) {
    return sae ? core::Trainer(cfg).train(*sae, source)
               : core::Trainer(cfg).train(*rbm, source);
  }
};

/// Timings of the checkpoint → quantize stages, one entry per call.
struct StageTimes {
  std::vector<double> save_s, load_s, quantize_s, shard_write_s;
};

/// The models a training run leaves for serving, and what it measured.
struct Prepared {
  ServedModels served;
  core::TrainReport report;
  TimeWindow train_window;       // profiler interval of the training call
  bool roundtrip_exact = false;  // reloaded trained model == in-memory one
};

/// Trains a fresh model on `source`, checkpoints its initial and trained
/// states, reloads both with load_any, quantizes both, round-trips the int8
/// models through .dpqe checkpoints, and returns them as the two served
/// lanes.
Prepared prepare(const Workload& w, const data::StreamingSource& source,
                 const data::Dataset& corpus, std::int64_t batches,
                 std::uint64_t seed, const fs::path& dir, StageTimes& times) {
  DEEPPHI_PROFILE_SCOPE("bench.prepare");
  Prepared p;
  fs::create_directories(dir);
  Model model(w, seed);
  const std::string init_ckpt = (dir / "init.ckpt").string();
  const std::string trained_ckpt = (dir / "trained.ckpt").string();
  times.save_s.push_back(
      timed("bench.ckpt_save", [&] { model.save(init_ckpt); }));

  const core::TrainerConfig cfg = trainer_config(w, seed, batches);
  p.train_window.begin_s = obs::Profiler::now_s();
  {
    DEEPPHI_PROFILE_SCOPE("bench.train");
    p.report = model.train(cfg, source);
  }
  p.train_window.end_s = obs::Profiler::now_s();

  times.save_s.push_back(
      timed("bench.ckpt_save", [&] { model.save(trained_ckpt); }));
  deepphi::model_io::LoadedModel fp32[2];
  times.load_s.push_back(timed("bench.ckpt_load", [&] {
    fp32[0] = deepphi::model_io::load_any(trained_ckpt);
  }));
  times.load_s.push_back(timed("bench.ckpt_load", [&] {
    fp32[1] = deepphi::model_io::load_any(init_ckpt);
  }));
  for (int m = 0; m < 2; ++m) {
    std::unique_ptr<core::QuantizedEncoder> q;
    times.quantize_s.push_back(timed("bench.quantize", [&] {
      q = core::QuantizedEncoder::from(*fp32[m].model);
    }));
    const std::string qpath =
        (dir / (m == 0 ? "trained.dpqe" : "init.dpqe")).string();
    times.save_s.push_back(
        timed("bench.ckpt_save", [&] { core::save_model(*q, qpath); }));
    deepphi::model_io::LoadedModel int8;
    times.load_s.push_back(timed("bench.ckpt_load", [&] {
      int8 = deepphi::model_io::load_any(qpath);
    }));
    p.served.model[1][m] = std::move(int8.model);
    p.served.model[0][m] = std::move(fp32[m].model);
  }

  // Served inputs: the first kPoolRows corpus rows.
  const Index pool_rows = std::min(kPoolRows, corpus.rows());
  p.served.pool = deepphi::la::Matrix(pool_rows, corpus.dim());
  corpus.copy_rows(0, pool_rows, p.served.pool);

  // The reloaded checkpoint must encode exactly like the trained model.
  deepphi::la::Matrix a, b;
  model.encoder().encode(p.served.pool, a);
  p.served.model[0][0]->encode(p.served.pool, b);
  p.roundtrip_exact =
      a.rows() == b.rows() && a.cols() == b.cols() &&
      std::memcmp(a.data(), b.data(), sizeof(float) * a.size()) == 0;
  return p;
}

/// One set-up: shards written to a fresh directory and opened; the serve
/// workload also trains briefly and prepares its served models here.
struct Setup {
  std::optional<data::ShardedDataset> shards;
  std::optional<Prepared> prepared;
  double seconds = 0;
  bool shards_exact = false;  // shard rows decode back to the corpus rows
};

Setup run_setup(const Workload& w, const data::Dataset& corpus,
                std::uint64_t seed, const fs::path& dir, StageTimes& times) {
  DEEPPHI_PROFILE_SCOPE("bench.setup");
  Setup s;
  const Clock::time_point t0 = Clock::now();
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::string manifest;
  times.shard_write_s.push_back(timed("bench.shard_write", [&] {
    data::ShardWriteOptions opts;
    opts.rows_per_shard = 8192;
    opts.dtype = w.dtype;
    manifest = data::write_sharded(corpus, (dir / "shards").string(), opts);
  }));
  timed("bench.shard_open",
        [&] { s.shards.emplace(data::ShardedDataset::open(manifest)); });
  if (w.setup_batches > 0)
    s.prepared.emplace(
        prepare(w, *s.shards, corpus, w.setup_batches, seed, dir, times));
  s.seconds = since(t0);

  // Shards must hand back the corpus: f32 bit for bit, u8 within half a
  // quantization step.
  const Index rows = std::min<Index>(256, corpus.rows());
  deepphi::la::Matrix got(rows, corpus.dim()), want(rows, corpus.dim());
  s.shards->copy_rows(0, rows, got);
  corpus.copy_rows(0, rows, want);
  double worst = 0;
  for (Index i = 0; i < got.size(); ++i)
    worst = std::max(worst, std::fabs(double(got.data()[i]) - want.data()[i]));
  s.shards_exact = w.dtype == data::ShardDtype::kF32
                       ? worst == 0
                       : worst <= 0.5 / 255.0 + 1e-6;
  return s;
}

/// Training throughput, load stalls included: the median over chunks of
/// chunk rows / (chunk wall time + the run's load stall shared evenly among
/// its chunks). Every workload's corpus is a whole number of chunks, so each
/// chunk is full; the median keeps a scheduling burst that slows one chunk
/// from moving the figure.
double samples_per_s(const core::TrainReport& r, Index chunk_rows) {
  const double stall =
      r.load_stall_seconds / static_cast<double>(r.chunk_wall_seconds.size());
  std::vector<double> rates;
  for (const double wall : r.chunk_wall_seconds)
    rates.push_back(static_cast<double>(chunk_rows) / (wall + stall));
  return median(rates);
}

double ms(double seconds) { return seconds * 1e3; }

}  // namespace

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const Workload& w : kWorkloads) names.push_back(w.name);
  return names;
}

RunResult run_workload(const RunOptions& options) {
  const Workload& w = find_workload(options.workload);
  const double T = options.seconds;
  const std::uint64_t seed = options.seed;
  RunResult result;
  result.replicas = w.replicas;
  result.replica_threads = trainer_config(w, seed, 0).replica_threads;
  const fs::path work =
      fs::path(options.out_dir) / "work" /
      (std::string(w.name) + "-" + std::to_string(::getpid()));
  StageTimes times;

  // Inputs are a pure function of the seed, generated before any timing.
  const data::Dataset corpus = make_corpus(w, seed);

  // Trace overhead: one fixed training slice untraced, then traced.
  double probe_wall[2] = {0, 0};
  if (options.trace) {
    for (int traced = 0; traced < 2; ++traced) {
      obs::Profiler::enable(traced == 1);
      Model m(w, seed + 1);
      probe_wall[traced] =
          m.train(trainer_config(w, seed + 1, w.probe_batches), corpus)
              .wall_seconds;
    }
    obs::Profiler::enable(false);
    obs::Profiler::clear();
  }

  obs::Profiler::enable(options.trace);
  const CpuTimes cpu0 = cpu_times();
  obs::Counter& pool_tasks = obs::counter("pool.tasks_executed");
  std::vector<double> setup_s;
  std::vector<TimeWindow> train_windows;
  std::vector<core::TrainReport> reports;
  std::vector<double> train_rates;
  std::int64_t pool_tasks_in_training = 0;
  std::vector<ServePhase> segments;  // the nominal phase, in pieces
  std::vector<ServePhase> saturation;
  std::vector<ServePhase> probes;
  std::vector<double> max_rates;
  double rss_mb = 0;
  {
    DEEPPHI_PROFILE_SCOPE("bench.run");
    // ---- set-up, several times; the last one's shards are used ----------
    std::optional<Setup> setup;
    std::optional<Prepared> prepared;
    for (int k = 0; k < kSetups; ++k) {
      const std::int64_t tasks0 = pool_tasks.value();
      setup.reset();
      setup.emplace(run_setup(w, corpus, seed,
                              work / ("setup-" + std::to_string(k)), times));
      setup_s.push_back(setup->seconds);
      result.check(setup->shards_exact, "shards decode back to the corpus");
      if (setup->prepared) {
        pool_tasks_in_training += pool_tasks.value() - tasks0;
        prepared = std::move(setup->prepared);
        train_windows.push_back(prepared->train_window);
        reports.push_back(prepared->report);
      }
    }

    // ---- measured training: shards → train → checkpoint → quantize -------
    if (w.train_batches_per_s > 0) {
      const auto batches =
          static_cast<std::int64_t>(std::ceil(w.train_batches_per_s * T));
      const std::int64_t tasks0 = pool_tasks.value();
      prepared.emplace(prepare(w, *setup->shards, corpus, batches, seed,
                               work / "train", times));
      pool_tasks_in_training += pool_tasks.value() - tasks0;
      train_windows.push_back(prepared->train_window);
      reports.push_back(prepared->report);
    }
    for (const core::TrainReport& r : reports) {
      train_rates.push_back(samples_per_s(r, w.chunk));
      char line[160];
      std::snprintf(line, sizeof(line),
                    "train  batches %lld  chunks %lld  wall %.3f s  "
                    "stall %.4f s  %.0f samples/s  final cost %.6g",
                    static_cast<long long>(r.batches),
                    static_cast<long long>(r.chunks), r.wall_seconds,
                    r.load_stall_seconds, train_rates.back(), r.final_cost);
      result.notes.push_back(line);
      result.attempted += r.batches;
      result.check(std::isfinite(r.final_cost),
                   "final training cost is finite");
      if (r.chunk_mean_costs.size() > 1)
        result.check(r.chunk_mean_costs.back() < r.chunk_mean_costs.front(),
                     "training lowered the chunk mean cost");
      if (w.train_batches_per_s == 0 || T == kBandSeconds)
        result.check(r.final_cost >= w.cost_lo && r.final_cost <= w.cost_hi,
                     "final training cost " + std::to_string(r.final_cost) +
                         " inside the recorded band");
    }
    result.check(prepared->roundtrip_exact,
                 "reloaded checkpoint encodes like the trained model");

    // ---- serving: nominal segments around saturation rounds -------------
    {
      DEEPPHI_PROFILE_SCOPE("bench.expect");
      prepared->served.compute_expected();
    }
    auto nominal_segment = [&] {
      DEEPPHI_PROFILE_SCOPE("bench.serve.nominal");
      segments.push_back(run_open_loop(
          prepared->served, w.nominal_rps,
          w.nominal_share * T / (kServeRounds + 1),
          kNominalWindowRequests / w.nominal_rps,
          seed * 1000 + 1 + 300 * static_cast<std::uint64_t>(segments.size())));
      const OpenLoopSummary& s = segments.back().summary;
      char line[160];
      std::snprintf(line, sizeof(line),
                    "nominal %zu  %9.0f req/s  n %6zu  p50 %6.2f ms  "
                    "windowed p99 %7.2f ms  failed %zu",
                    segments.size() - 1, w.nominal_rps, s.attempted,
                    ms(s.p50_s), ms(s.window_p99_s), s.failed);
      result.notes.push_back(line);
    };
    nominal_segment();
    // The footprint of steady operation; the saturation rounds then keep
    // deep queues, and the ladder's overload probes hold backlogs whose size
    // depends on how far the search went.
    rss_mb = peak_rss_mb();
    // The nominal segment is itself a probe of its rung when the nominal
    // rate sits on the ladder, so the searches start above it.
    const int nominal_rung = static_cast<int>(
        std::lround(kLadder.steps_per_octave *
                    std::log2(w.nominal_rps / kLadder.base_rps)));
    const bool on_ladder =
        std::fabs(kLadder.rate(nominal_rung) - w.nominal_rps) < 1e-6 &&
        rung_passes(segments.front().summary, kLaneBudgetS);
    for (int round = 0; round < kServeRounds; ++round) {
      {
        DEEPPHI_PROFILE_SCOPE("bench.serve.saturation");
        saturation.push_back(run_closed_loop(
            prepared->served, w.outstanding,
            w.saturation_share * T / kServeRounds, kSaturationWindowS,
            seed * 1000 + 3 + 300 * static_cast<std::uint64_t>(round)));
        const std::vector<double>& r = saturation.back().window_rps;
        char line[160];
        std::snprintf(line, sizeof(line),
                      "saturation %d  %zu in flight  %zu windows  "
                      "min %.0f  median %.0f  max %.0f req/s",
                      round, w.outstanding, r.size(),
                      r.empty() ? 0 : *std::min_element(r.begin(), r.end()),
                      median(r),
                      r.empty() ? 0 : *std::max_element(r.begin(), r.end()));
        result.notes.push_back(line);
      }
      // The ladder searches are diagnostics of the traced run: where the
      // latency budget, not the server's throughput, caps the offered rate.
      if (options.trace && round < kLadderSearches) {
        DEEPPHI_PROFILE_SCOPE("bench.serve.ladder");
        const int found = search_max_rung(
            kLadder,
            [&](int rung) {
              const double rate = kLadder.rate(rung);
              const double seconds = std::max(
                  kProbeWindows * kWindowRequests / rate,
                  std::min(w.probe_share * T, kProbeMaxRequests / rate));
              probes.push_back(run_open_loop(
                  prepared->served, rate, seconds, seconds / kProbeWindows,
                  seed * 1000 + 2 + 300 * round + rung));
              const OpenLoopSummary& s = probes.back().summary;
              const bool pass = rung_passes(s, kLaneBudgetS);
              char line[192];
              std::snprintf(line, sizeof(line),
                            "ladder %d rung %3d  %9.0f req/s  n %6zu  "
                            "p50 %6.2f ms  p99 %7.2f ms  windowed p99 %7.2f "
                            "ms  failed %zu%s  %s",
                            round, rung, rate, s.attempted, ms(s.p50_s),
                            ms(s.p99_s), ms(s.window_p99_s), s.failed,
                            s.backlog_grew ? "  backlog" : "",
                            pass ? "pass" : "FAIL");
              result.notes.push_back(line);
              return pass;
            },
            on_ladder ? nominal_rung : -1);
        // A search whose base rung already fails reports the rung below.
        max_rates.push_back(kLadder.rate(found));
      }
      nominal_segment();
    }
  }
  obs::Profiler::enable(false);
  const CpuTimes cpu1 = cpu_times();
  fs::remove_all(work);

  // ---- serving checks and counts ---------------------------------------
  const ServePhase nominal =
      join_phases(segments, kNominalWindowRequests / w.nominal_rps);
  const OpenLoopSummary& ns = nominal.summary;
  std::size_t wrong = nominal.wrong_replies;
  std::size_t control = nominal.control_failures;
  result.attempted += static_cast<std::int64_t>(ns.attempted);
  for (const ServePhase& p : probes) {
    result.attempted += static_cast<std::int64_t>(p.summary.attempted);
    wrong += p.wrong_replies;
    control += p.control_failures;
  }
  // Saturation keeps no more in flight than the queues hold, so every
  // request must be answered.
  std::vector<double> saturated_rps;
  std::size_t saturated_failed = 0;
  std::int64_t saturated_rows = 0, saturated_batches = 0;
  for (const ServePhase& p : saturation) {
    result.attempted += static_cast<std::int64_t>(p.summary.attempted);
    saturated_failed += p.summary.failed;
    wrong += p.wrong_replies;
    control += p.control_failures;
    saturated_rps.insert(saturated_rps.end(), p.window_rps.begin(),
                         p.window_rps.end());
    saturated_rows += p.stats.completed;
    saturated_batches += p.stats.batches;
  }
  result.failed += static_cast<std::int64_t>(saturated_failed);
  result.check(saturated_failed == 0, "every closed-loop request answered");
  // Every wrong reply is a failed operation; overload rejections on ladder
  // rungs above capacity are the probe's answer, not failures.
  result.failed += static_cast<std::int64_t>(wrong + ns.failed);
  if (wrong > 0)
    result.check_failures.push_back(std::to_string(wrong) +
                                    " replies differ from a direct encode()");
  result.check(control == 0, "publish versions and metric scrapes");

  // ---- end-to-end metrics ----------------------------------------------
  result.add("setup_s", median(setup_s), "s", true);
  result.add("peak_rss_mb", rss_mb, "MB", true);
  result.add("train.samples_per_s", median(train_rates), "1/s", true);
  result.add("serve.p50_ms", ms(ns.p50_s), "ms", true);
  result.add("serve.p99_ms", ms(ns.window_p99_s), "ms", true);
  result.add("serve.saturated_rps", median(saturated_rps), "1/s", true);
  result.add("serve.good_share",
             ns.attempted ? static_cast<double>(ns.within_budget) /
                                static_cast<double>(ns.attempted)
                          : 0,
             "ratio", true);

  // ---- per-layer metrics -----------------------------------------------
  double gemm_flops = 0, wall = 0, stall = 0, modeled_5110p = 0,
         modeled_host = 0;
  std::int64_t batches = 0, updates = 0, chunks = 0;
  for (const core::TrainReport& r : reports) {
    gemm_flops += r.stats.gemm_flops;
    wall += r.wall_seconds;
    stall += r.load_stall_seconds;
    batches += r.batches;
    updates += r.updates;
    chunks += r.chunks;
    phi::Device phi5110p(phi::xeon_phi_5110p());
    modeled_5110p += core::simulate(r, phi5110p).pipelined_s;
    phi::Device host(phi::modern_avx512_server(), nproc());
    modeled_host += core::simulate(r, host).pipelined_s;
  }
  const std::vector<SpanRecord> spans = collect_spans();
  const std::vector<SpanRecord> train_spans = within(spans, train_windows);
  const auto train = self_times(train_spans);
  std::vector<TimeWindow> nominal_windows;
  for (const ServePhase& p : segments)
    nominal_windows.push_back({p.window_begin_s, p.window_end_s});
  const auto serve = self_times(within(spans, nominal_windows));
  auto span_of = [](const std::map<std::string, LabelTime>& m,
                    const std::string& label) {
    const auto it = m.find(label);
    return it == m.end() ? LabelTime{} : it->second;
  };
  const LabelTime gemm = span_of(train, "gemm");
  const double gemm_busy = busy_seconds(train_spans, "gemm");
  const double gflops = gemm_busy > 0 ? gemm_flops / gemm_busy / 1e9 : 0;
  result.add("la.gemm.self_s", gemm.self_s, "s");
  result.add("la.gemm.calls", static_cast<double>(gemm.count), "count");
  result.add("la.gemm.gflops_per_s", gflops, "GF/s");
  result.add("la.gemm.roofline_share", gflops / (nproc() * kCorePeakGflops),
             "ratio");
  const deepphi::serve::ServerStats& int8 = nominal.lane_stats[1];
  result.add("la.quant.encode_ms",
             int8.batches ? ms(int8.total_compute_s / int8.batches) : 0, "ms");

  result.add("core.step.self_s", span_of(train, "trainer.batch").self_s, "s");
  result.add("core.batches", static_cast<double>(batches), "count");
  result.add("core.updates", static_cast<double>(updates), "count");
  result.add("core.ckpt.save_ms", ms(median(times.save_s)), "ms");
  result.add("core.ckpt.load_ms", ms(median(times.load_s)), "ms");
  result.add("core.quantize_ms", ms(median(times.quantize_s)), "ms");

  result.add("data.produce_s", span_of(train, "pipeline.produce").total_s,
             "s");
  result.add("data.consumer_wait_s", stall, "s");
  result.add("data.overlap_efficiency", wall > 0 ? 1.0 - stall / wall : 0,
             "ratio");
  result.add("data.chunks", static_cast<double>(chunks), "count");
  result.add("data.shard_write_s", median(times.shard_write_s), "s");

  double replica_max = 0, replica_sum = 0;
  int replica_count = 0;
  for (const auto& [label, time] : train)
    if (label.rfind("dp.replica[", 0) == 0) {
      replica_max = std::max(replica_max, time.total_s);
      replica_sum += time.total_s;
      ++replica_count;
    }
  result.add("parallel.combine_s", span_of(train, "dp.combine").total_s, "s");
  result.add("parallel.replica_skew",
             replica_sum > 0 ? replica_max / (replica_sum / replica_count) : 1,
             "ratio");
  result.add("parallel.pool_tasks", static_cast<double>(pool_tasks_in_training),
             "count");

  const deepphi::serve::ServerStats& st = nominal.stats;
  const double nb = static_cast<double>(std::max<std::int64_t>(1, st.batches));
  result.add("serve.queue_wait_ms", ms(st.total_queue_wait_s / nb), "ms");
  result.add("serve.compute_ms", ms(st.total_compute_s / nb), "ms");
  result.add("serve.mean_batch", st.mean_batch_size, "rows");
  result.add("serve.batches", static_cast<double>(st.batches), "count");
  result.add("serve.rejected", static_cast<double>(st.rejected), "count");
  result.add("serve.shed", static_cast<double>(st.shed), "count");
  result.add("serve.failed_share",
             ns.attempted ? static_cast<double>(ns.failed) / ns.attempted : 0,
             "ratio");
  for (const char* stage : {"collect", "gather", "encode", "scatter"})
    result.add(std::string("serve.") + stage + ".self_s",
               span_of(serve, std::string("serve.") + stage).self_s, "s");
  std::vector<double> publish_s = nominal.publish_s;
  std::vector<double> scrape_s = nominal.scrape_s;
  for (const std::vector<ServePhase>* phases : {&saturation, &probes})
    for (const ServePhase& p : *phases) {
      publish_s.insert(publish_s.end(), p.publish_s.begin(),
                       p.publish_s.end());
      scrape_s.insert(scrape_s.end(), p.scrape_s.begin(), p.scrape_s.end());
    }
  result.add("serve.max_rate_rps", median(max_rates), "1/s");
  result.add("serve.saturated.mean_batch",
             saturated_batches ? static_cast<double>(saturated_rows) /
                                     static_cast<double>(saturated_batches)
                               : 0,
             "rows");
  result.add("serve.publish_ms.p50", ms(quantile(publish_s, 0.50)), "ms");
  result.add("serve.publish_ms.p99", ms(quantile(publish_s, 0.99)), "ms");

  result.add("obs.scrape_ms", ms(median(scrape_s)), "ms");
  result.add("obs.trace_overhead",
             probe_wall[0] > 0 ? probe_wall[1] / probe_wall[0] - 1 : 0,
             "ratio");

  result.add("phi.modeled_5110p_s", modeled_5110p, "s");
  result.add("phi.model_over_measure", modeled_host / wall, "ratio");
  result.add("bench.gen_lag_ms.p99", ms(ns.lag_p99_s), "ms");
  // CPU the host spent on other work while this run measured: every timing
  // above is suspect when this is more than a few percent.
  result.host_contention_share = contention_share(cpu0, cpu1);
  result.add("bench.host_contention_share", result.host_contention_share,
             "ratio");

  const std::map<std::string, double> layers =
      main_thread_layers(spans, "bench.run");
  const auto run_wall = layers.find("wall");
  result.add("bench.wall_s", run_wall == layers.end() ? 0 : run_wall->second,
             "s");
  for (const char* layer : {"unattributed", "bench", "data", "core", "la",
                            "parallel", "serve", "other"}) {
    const auto it = layers.find(layer);
    result.add(std::string("self.") + layer + "_s",
               it == layers.end() ? 0 : it->second, "s");
  }
  if (options.trace) {
    fs::create_directories(options.out_dir);
    obs::Profiler::write_chrome_json(
        (fs::path(options.out_dir) / ("trace-" + std::string(w.name) +
                                      "-seed" + std::to_string(seed) + ".json"))
            .string());
  }
  return result;
}

}  // namespace e2ebench
