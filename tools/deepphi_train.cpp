// deepphi_train — command-line unsupervised pre-training.
//
// Train any of the paper's models on a dataset file (DPDS binary or MNIST
// IDX) or on the built-in synthetic generators, then report metrics and
// optionally checkpoint the result.
//
// Examples:
//   # quick synthetic run
//   deepphi_train --model=sae --synthetic=digits --examples=4096 --epochs=6
//
//   # stacked autoencoder on MNIST, saved for later
//   deepphi_train --model=stack --idx=train-images-idx3-ubyte
//                 --layers=784,256,64 --epochs=3 --save=stack.dpsa
//
//   # DBN with CD-2 and the Fig. 6 task graph
//   deepphi_train --model=dbn --synthetic=natural --layers=64,32 --cd-k=2
//                 --taskgraph
#include <cstdio>
#include <memory>
#include <thread>

#include "core/dbn.hpp"
#include "core/metrics.hpp"
#include "core/model_io.hpp"
#include "core/stacked_autoencoder.hpp"
#include "core/trainer.hpp"
#include "data/binary_io.hpp"
#include "data/chunk_stream.hpp"
#include "data/idx_io.hpp"
#include "data/sharded_dataset.hpp"
#include "data/patches.hpp"
#include "la/simd/dispatch.hpp"
#include "parallel/collectives.hpp"
#include "phi/cluster.hpp"
#include "phi/interconnect.hpp"
#include "phi/machine_spec.hpp"
#include "obs/profiler.hpp"
#include "obs/telemetry.hpp"
#include "util/logging.hpp"
#include "util/options.hpp"
#include "util/string_util.hpp"
#include "util/timer.hpp"

namespace {

using namespace deepphi;

std::vector<la::Index> parse_layers(const std::string& spec) {
  std::vector<la::Index> sizes;
  for (const std::string& part : util::split(spec, ','))
    sizes.push_back(static_cast<la::Index>(util::parse_int(util::trim(part))));
  return sizes;
}

core::OptLevel parse_level(const std::string& name) {
  const std::string v = util::to_lower(name);
  if (v == "baseline") return core::OptLevel::kBaseline;
  if (v == "openmp") return core::OptLevel::kOpenMp;
  if (v == "openmp+mkl" || v == "mkl") return core::OptLevel::kOpenMpMkl;
  if (v == "improved") return core::OptLevel::kImproved;
  throw util::Error("unknown --level '" + name +
                    "' (baseline|openmp|openmp+mkl|improved)");
}

core::OptimizerKind parse_optimizer(const std::string& name) {
  const std::string v = util::to_lower(name);
  if (v == "sgd") return core::OptimizerKind::kSgd;
  if (v == "momentum") return core::OptimizerKind::kMomentum;
  if (v == "adagrad") return core::OptimizerKind::kAdagrad;
  throw util::Error("unknown --optimizer '" + name + "' (sgd|momentum|adagrad)");
}

data::Dataset load_data(const util::Options& options) {
  if (options.has("data")) return data::load_dataset(options.get_string("data"));
  if (options.has("idx")) return data::load_idx_images(options.get_string("idx"));
  const std::string synthetic = options.get_string("synthetic");
  const la::Index examples = options.get_int("examples");
  const la::Index patch = options.get_int("patch");
  const std::uint64_t seed = options.get_int("seed");
  if (synthetic == "digits")
    return data::make_digit_patch_dataset(examples, patch, seed);
  if (synthetic == "natural")
    return data::make_natural_patch_dataset(examples, patch, seed);
  throw util::Error("unknown --synthetic '" + synthetic + "' (digits|natural)");
}

void print_report(const char* label, const core::TrainReport& report) {
  std::printf(
      "%s: %lld batches / %lld updates / %lld chunks, cost %.5f -> %.5f, "
      "%.2fs wall\n",
      label, static_cast<long long>(report.batches),
      static_cast<long long>(report.updates),
      static_cast<long long>(report.chunks),
      report.chunk_mean_costs.front(), report.chunk_mean_costs.back(),
      report.wall_seconds);
}

// Per-slot row counts of one full gradient group, e.g. "128,128,128,128" —
// the shard layout every full group of the run uses (ragged tails shrink it).
std::string shard_layout(const core::TrainerConfig& tcfg) {
  const int slots = tcfg.replicas * tcfg.accumulation_steps * tcfg.cards;
  const la::Index group = std::min(
      static_cast<la::Index>(slots) * tcfg.batch_size, tcfg.chunk_examples);
  std::string out;
  for (const data::RowShard& shard : data::shard_rows(group, slots)) {
    if (!out.empty()) out += ',';
    out += std::to_string(shard.rows);
  }
  return out;
}

}  // namespace

int run(int argc, char** argv) {
  using namespace deepphi;
  util::Options options = util::Options::parse(argc, argv);
  options.declare("model", "sae | rbm | stack | dbn", "sae");
  options.declare("data", "path to a DPDS dataset file");
  options.declare("data-manifest",
                  "path to a deepphi.manifest.v1 sharded-dataset manifest "
                  "(mmap'd out-of-core streaming; see deepphi_shard)");
  options.declare("verify-shards",
                  "re-hash every shard against its manifest checksum at open");
  options.declare("idx", "path to an IDX3 image file (e.g. MNIST)");
  options.declare("synthetic", "built-in generator: digits | natural", "digits");
  options.declare("examples", "synthetic examples to generate", "4096");
  options.declare("patch", "synthetic patch side (dim = patch^2)", "8");
  options.declare("layers", "comma-separated layer sizes (first = input dim)",
                  "");
  options.declare("hidden", "hidden units for sae/rbm", "32");
  options.declare("batch", "mini-batch size", "128");
  options.declare("chunk", "chunk size (examples per device load)", "2048");
  options.declare("shuffle-window",
                  "windowed-shuffle span in examples (0 = feed in order; "
                  "otherwise >= chunk; docs/data_pipeline.md)", "0");
  options.declare("epochs", "training epochs", "6");
  options.declare("lr", "learning rate", "0.3");
  options.declare("optimizer", "sgd | momentum | adagrad", "sgd");
  options.declare("level", "baseline | openmp | openmp+mkl | improved",
                  "improved");
  options.declare("replicas",
                  "data-parallel replica workers (matrix-form levels; "
                  "docs/data_parallel.md)", "1");
  options.declare("replica-threads",
                  "OpenMP threads per replica (0 = split evenly)", "0");
  options.declare("accum",
                  "gradient accumulation steps per replica per update", "1");
  options.declare("cards",
                  "simulated Xeon Phi cards the global step spreads over "
                  "(docs/cluster.md)", "1");
  options.declare("interconnect",
                  "inter-card path: pcie-p2p | host-staged", "pcie-p2p");
  options.declare("collective",
                  "inter-card all-reduce: auto | tree | rdouble | ring "
                  "(DEEPPHI_COLLECTIVE overrides)", "auto");
  options.declare("cd-k", "contrastive divergence steps (rbm/dbn)", "1");
  options.declare("gaussian-visible", "Gaussian visible units (rbm/dbn)");
  options.declare("taskgraph", "run the RBM step as the Fig. 6 task graph");
  options.declare("tied", "tied weights W2 = W1^T (sae/stack)");
  options.declare("rho", "sparsity target (sae/stack)", "0.05");
  options.declare("beta", "sparsity weight (sae/stack)", "1.0");
  options.declare("lambda", "weight decay (sae/stack)", "1e-4");
  options.declare("seed", "random seed", "42");
  options.declare("save", "checkpoint path to write the trained model");
  options.declare("profile",
                  "write a Chrome-trace JSON of the real host timeline "
                  "(load it in ui.perfetto.dev) to this path");
  options.declare("telemetry",
                  "write JSONL run telemetry (one record per chunk/epoch) "
                  "to this path");
  options.validate();

  if (options.has("profile")) {
    obs::set_thread_name("main");
    obs::Profiler::enable(true);
  }

  const std::string model_kind = options.get_string("model");
  DEEPPHI_CHECK_MSG(
      !options.has("data-manifest") ||
          (model_kind == "sae" || model_kind == "rbm"),
      "--data-manifest streams chunks and supports --model=sae|rbm only; "
      "stack/dbn pretrain on materialized layer activations -- load the set "
      "with --data/--idx/--synthetic instead");

  // The trained path consumes any StreamingSource; the in-memory Dataset is
  // kept when available because the post-train metrics and the stack/dbn
  // pretrain (which materialize layer activations) need it.
  std::unique_ptr<data::Dataset> in_memory;
  std::unique_ptr<data::ShardedDataset> sharded;
  if (options.has("data-manifest")) {
    data::ShardedDataset::OpenOptions open_opts;
    open_opts.verify_checksums = options.has("verify-shards");
    sharded = std::make_unique<data::ShardedDataset>(data::ShardedDataset::open(
        options.get_string("data-manifest"), open_opts));
  } else {
    in_memory = std::make_unique<data::Dataset>(load_data(options));
  }
  const data::StreamingSource& source =
      sharded ? static_cast<const data::StreamingSource&>(*sharded)
              : static_cast<const data::StreamingSource&>(*in_memory);
  const data::SourceInfo source_info = source.info();
  std::printf("dataset: %lld examples of dim %lld (%s, %s, %.1f MB%s)\n",
              static_cast<long long>(source.rows()),
              static_cast<long long>(source.dim()), source_info.kind.c_str(),
              source_info.format.c_str(),
              static_cast<double>(source_info.bytes) / 1e6,
              sharded ? (", " + std::to_string(sharded->shard_count()) +
                         " shards").c_str()
                      : "");

  core::TrainerConfig tcfg;
  tcfg.batch_size = options.get_int("batch");
  tcfg.chunk_examples = std::max<la::Index>(options.get_int("chunk"),
                                            tcfg.batch_size);
  tcfg.epochs = static_cast<int>(options.get_int("epochs"));
  tcfg.shuffle_window = options.get_int("shuffle-window");
  tcfg.level = parse_level(options.get_string("level"));
  tcfg.policy = core::ExecPolicy::kPhiOffload;
  tcfg.use_taskgraph = options.has("taskgraph");
  tcfg.replicas = static_cast<int>(options.get_int("replicas"));
  tcfg.replica_threads = static_cast<int>(options.get_int("replica-threads"));
  tcfg.accumulation_steps = static_cast<int>(options.get_int("accum"));
  tcfg.cards = static_cast<int>(options.get_int("cards"));
  tcfg.collective = par::parse_collective(options.get_string("collective"));
  std::unique_ptr<phi::Cluster> cluster;
  if (tcfg.cards > 1) {
    phi::ClusterConfig ccfg;
    ccfg.cards = tcfg.cards;
    ccfg.interconnect =
        phi::parse_interconnect(options.get_string("interconnect"));
    cluster = std::make_unique<phi::Cluster>(phi::xeon_phi_5110p(), ccfg);
    tcfg.cluster = cluster.get();
    std::printf("cluster: %d cards, %s\n", tcfg.cards,
                ccfg.interconnect.to_string().c_str());
  }
  tcfg.optimizer.kind = parse_optimizer(options.get_string("optimizer"));
  tcfg.optimizer.lr = static_cast<float>(options.get_double("lr"));
  tcfg.seed = static_cast<std::uint64_t>(options.get_int("seed"));

  const std::uint64_t seed = tcfg.seed;

  std::unique_ptr<obs::TelemetrySink> telemetry;
  if (options.has("telemetry")) {
    telemetry =
        std::make_unique<obs::TelemetrySink>(options.get_string("telemetry"));
    using obs::TelemetryField;
    telemetry->emit_run_header(
        "deepphi_train",
        {TelemetryField::str("model", model_kind),
         TelemetryField::str("simd_tier",
                             la::simd::tier_name(la::simd::active_tier())),
         TelemetryField::integer("host_threads",
                                 std::thread::hardware_concurrency()),
         TelemetryField::integer("examples",
                                 static_cast<std::int64_t>(source.rows())),
         TelemetryField::integer("dim",
                                 static_cast<std::int64_t>(source.dim())),
         TelemetryField::str("dataset_source", source_info.kind),
         TelemetryField::str("dataset_format", source_info.format),
         TelemetryField::integer(
             "dataset_bytes", static_cast<std::int64_t>(source_info.bytes)),
         TelemetryField::integer(
             "total_chunks",
             (source.rows() + tcfg.chunk_examples - 1) / tcfg.chunk_examples),
         TelemetryField::integer("batch_size", tcfg.batch_size),
         TelemetryField::integer("chunk_examples", tcfg.chunk_examples),
         TelemetryField::integer("shuffle_window", tcfg.shuffle_window),
         TelemetryField::integer("epochs", tcfg.epochs),
         TelemetryField::str("level", options.get_string("level")),
         TelemetryField::str("optimizer", options.get_string("optimizer")),
         TelemetryField::num("lr", options.get_double("lr")),
         TelemetryField::boolean("taskgraph", tcfg.use_taskgraph),
         TelemetryField::integer("replicas", tcfg.replicas),
         TelemetryField::integer("replica_threads", tcfg.replica_threads),
         TelemetryField::integer("accumulation_steps",
                                 tcfg.accumulation_steps),
         TelemetryField::integer("cards", tcfg.cards),
         TelemetryField::str("interconnect",
                             cluster ? cluster->interconnect().name
                                     : std::string("none")),
         TelemetryField::str(
             "collective",
             par::collective_name(
                 // The env override changes what actually runs; record that.
                 // Guarded on cards like the trainer's own resolution, so a
                 // stray DEEPPHI_COLLECTIVE can't fail a single-card run.
                 tcfg.cards > 1 ? par::effective_collective(tcfg.collective)
                                : tcfg.collective)),
         TelemetryField::integer(
             "slots",
             static_cast<std::int64_t>(tcfg.replicas) *
                 tcfg.accumulation_steps * tcfg.cards),
         TelemetryField::str("shard_rows", shard_layout(tcfg)),
         TelemetryField::integer("seed", static_cast<std::int64_t>(seed))});
    tcfg.telemetry = telemetry.get();
  }

  core::Trainer trainer(tcfg);

  if (model_kind == "sae") {
    core::SaeConfig cfg;
    cfg.visible = source.dim();
    cfg.hidden = options.get_int("hidden");
    cfg.rho = static_cast<float>(options.get_double("rho"));
    cfg.beta = static_cast<float>(options.get_double("beta"));
    cfg.lambda = static_cast<float>(options.get_double("lambda"));
    cfg.tied_weights = options.has("tied");
    core::SparseAutoencoder model(cfg, seed);
    print_report("sae", trainer.train(model, source));
    if (in_memory)
      std::printf("reconstruction error: %.5f, mean activation: %.4f\n",
                  core::reconstruction_error(model, *in_memory),
                  core::mean_hidden_activation(model, *in_memory));
    if (options.has("save")) {
      core::save_model(model, options.get_string("save"));
      std::printf("saved to %s\n", options.get_string("save").c_str());
    }
  } else if (model_kind == "rbm") {
    core::RbmConfig cfg;
    cfg.visible = source.dim();
    cfg.hidden = options.get_int("hidden");
    cfg.cd_k = static_cast<int>(options.get_int("cd-k"));
    if (options.has("gaussian-visible"))
      cfg.visible_type = core::VisibleType::kGaussian;
    core::Rbm model(cfg, seed);
    print_report("rbm", trainer.train(model, source));
    if (in_memory)
      std::printf("reconstruction error: %.5f\n",
                  core::reconstruction_error(model, *in_memory));
    if (options.has("save")) {
      core::save_model(model, options.get_string("save"));
      std::printf("saved to %s\n", options.get_string("save").c_str());
    }
  } else if (model_kind == "stack") {
    DEEPPHI_CHECK_MSG(in_memory != nullptr,
                      "--model=stack pretrains on materialized layer "
                      "activations and cannot stream --data-manifest; load "
                      "the set with --data/--idx/--synthetic instead");
    const std::string spec = options.get_string("layers");
    DEEPPHI_CHECK_MSG(!spec.empty(), "--model=stack needs --layers=a,b,c");
    core::SaeConfig proto;
    proto.rho = static_cast<float>(options.get_double("rho"));
    proto.beta = static_cast<float>(options.get_double("beta"));
    proto.lambda = static_cast<float>(options.get_double("lambda"));
    proto.tied_weights = options.has("tied");
    core::StackedAutoencoder model(parse_layers(spec), proto, seed);
    DEEPPHI_CHECK_MSG(model.layer_sizes().front() == in_memory->dim(),
                      "--layers first entry must equal the dataset dim");
    const auto reports = model.pretrain(*in_memory, tcfg);
    for (std::size_t k = 0; k < reports.size(); ++k)
      print_report(("stack layer " + std::to_string(k)).c_str(), reports[k]);
    if (options.has("save")) {
      core::save_model(model, options.get_string("save"));
      std::printf("saved to %s\n", options.get_string("save").c_str());
    }
  } else if (model_kind == "dbn") {
    DEEPPHI_CHECK_MSG(in_memory != nullptr,
                      "--model=dbn pretrains on materialized layer "
                      "activations and cannot stream --data-manifest; load "
                      "the set with --data/--idx/--synthetic instead");
    const std::string spec = options.get_string("layers");
    DEEPPHI_CHECK_MSG(!spec.empty(), "--model=dbn needs --layers=a,b,c");
    core::RbmConfig proto;
    proto.cd_k = static_cast<int>(options.get_int("cd-k"));
    if (options.has("gaussian-visible"))
      proto.visible_type = core::VisibleType::kGaussian;
    core::Dbn model(parse_layers(spec), proto, seed);
    DEEPPHI_CHECK_MSG(model.layer_sizes().front() == in_memory->dim(),
                      "--layers first entry must equal the dataset dim");
    const auto reports = model.pretrain(*in_memory, tcfg);
    for (std::size_t k = 0; k < reports.size(); ++k)
      print_report(("dbn layer " + std::to_string(k)).c_str(), reports[k]);
    if (options.has("save")) {
      core::save_model(model, options.get_string("save"));
      std::printf("saved to %s\n", options.get_string("save").c_str());
    }
  } else {
    throw util::Error("unknown --model '" + model_kind +
                      "' (sae|rbm|stack|dbn)");
  }

  if (cluster) {
    const phi::ClusterCommStats& comm = cluster->comm();
    const double per_step_ms =
        comm.collectives > 0
            ? comm.seconds / static_cast<double>(comm.collectives) * 1e3
            : 0.0;
    std::printf(
        "cluster: %lld all-reduces (%.3f ms each), %.2f MB on the wire, "
        "communication %.1f%% of modeled step time\n",
        static_cast<long long>(comm.collectives), per_step_ms,
        comm.wire_bytes / 1e6, cluster->comm_share() * 100.0);
  }
  if (options.has("profile")) {
    const std::string path = options.get_string("profile");
    obs::Profiler::write_chrome_json(path);
    std::printf("profile: %u host threads traced, written to %s\n",
                obs::Profiler::thread_count(), path.c_str());
    const std::string report = obs::Profiler::report();
    if (!report.empty()) std::printf("%s", report.c_str());
  }
  if (telemetry) {
    telemetry->flush();
    std::printf("telemetry: %lld records written to %s\n",
                static_cast<long long>(telemetry->records_written()),
                options.get_string("telemetry").c_str());
  }
  return 0;
}

int main(int argc, char** argv) {
  return deepphi::util::run_main(argc, argv, run);
}
