// Quickstart: train a Sparse Autoencoder on synthetic handwritten-digit
// patches — the paper's core workload at laptop scale — and watch the
// reconstruction improve.
//
//   $ ./quickstart [--examples=4096] [--epochs=8]
//
// This uses the full pipeline (chunked feeding with the background loading
// thread, fused "Improved"-level kernels, SGD) executed for real on this
// machine; no simulation involved.
#include <cstdio>

#include "core/metrics.hpp"
#include "core/trainer.hpp"
#include "data/patches.hpp"
#include "util/options.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace deepphi;
  util::Options options = util::Options::parse(argc, argv);
  options.declare("examples", "number of 8x8 training patches", "4096");
  options.declare("epochs", "training epochs", "8");
  options.validate();

  const la::Index examples = options.get_int("examples");
  const int epochs = static_cast<int>(options.get_int("epochs"));

  std::printf("deepphi quickstart — Sparse Autoencoder on digit patches\n\n");

  // 1. Data: random 8x8 patches cut from procedural handwritten digits,
  //    normalized to [0.1, 0.9] (the standard sparse-autoencoder recipe).
  data::Dataset patches = data::make_digit_patch_dataset(examples, 8, /*seed=*/1);
  std::printf("dataset: %lld patches of dim %lld (range [%.2f, %.2f])\n",
              static_cast<long long>(patches.size()),
              static_cast<long long>(patches.dim()), patches.min(),
              patches.max());

  // 2. Model: 64 visible -> 25 hidden sigmoid units with KL sparsity.
  core::SaeConfig cfg;
  cfg.visible = 64;
  cfg.hidden = 25;
  cfg.rho = 0.05f;
  cfg.beta = 1.0f;
  cfg.lambda = 1e-4f;
  core::SparseAutoencoder model(cfg, /*seed=*/7);

  const double err0 = core::reconstruction_error(model, patches);
  const double act0 = core::mean_hidden_activation(model, patches);
  std::printf("before training: reconstruction error %.4f, mean activation %.3f\n",
              err0, act0);

  // 3. Train: mini-batch SGD through the chunked pipeline (Fig. 5 of the
  //    paper — a background thread keeps the next chunk ready).
  core::TrainerConfig tcfg;
  tcfg.batch_size = 128;
  tcfg.chunk_examples = 1024;
  tcfg.epochs = epochs;
  tcfg.level = core::OptLevel::kImproved;
  tcfg.policy = core::ExecPolicy::kPhiOffload;
  tcfg.optimizer.lr = 0.5f;
  core::Trainer trainer(tcfg);
  const core::TrainReport report = trainer.train(model, patches);

  std::printf("trained %lld batches over %lld chunk loads in %.2fs wall\n",
              static_cast<long long>(report.batches),
              static_cast<long long>(report.chunks), report.wall_seconds);
  std::printf("cost per chunk: first %.4f -> last %.4f\n",
              report.chunk_mean_costs.front(), report.chunk_mean_costs.back());

  const double err1 = core::reconstruction_error(model, patches);
  const double act1 = core::mean_hidden_activation(model, patches);
  std::printf("after training:  reconstruction error %.4f (was %.4f)\n", err1,
              err0);
  std::printf("mean hidden activation %.3f (target rho = %.2f)\n", act1,
              cfg.rho);

  // 4. Look at one learned feature.
  std::printf("\nfirst hidden unit's weights (8x8 ASCII heat map):\n%s\n",
              core::ascii_filter(model.w1(), 0, 8).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return deepphi::util::run_main(argc, argv, run);
}
