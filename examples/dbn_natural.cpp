// Deep Belief Network pre-training on natural-image patches — the paper's
// second building block (stacked RBMs, CD-1) on its second dataset family.
//
//   $ ./dbn_natural [--examples=6144] [--epochs=6]
#include <cstdio>

#include "core/dbn.hpp"
#include "core/metrics.hpp"
#include "data/patches.hpp"
#include "util/options.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace deepphi;
  util::Options options = util::Options::parse(argc, argv);
  options.declare("examples", "number of 8x8 training patches", "6144");
  options.declare("epochs", "training epochs per layer", "6");
  options.validate();

  const la::Index examples = options.get_int("examples");
  const int epochs = static_cast<int>(options.get_int("epochs"));

  std::printf("deepphi — DBN (stacked RBM) pre-training on natural patches\n\n");

  data::Dataset patches = data::make_natural_patch_dataset(examples, 8, 21);
  // Binary RBMs model binary visibles; binarize the patches at mid-gray
  // (bright structure vs background). Continuous visibles would want the
  // Gaussian-visible RBM variant.
  for (la::Index i = 0; i < patches.size(); ++i)
    for (la::Index j = 0; j < patches.dim(); ++j)
      patches.example(i)[j] = patches.example(i)[j] > 0.5f ? 1.0f : 0.0f;
  std::printf("dataset: %lld patches of dim %lld (binarized at 0.5)\n",
              static_cast<long long>(patches.size()),
              static_cast<long long>(patches.dim()));

  core::RbmConfig proto;
  proto.cd_k = 1;
  core::Dbn dbn({64, 36, 16}, proto, 5);

  core::TrainerConfig tcfg;
  tcfg.batch_size = 128;
  tcfg.chunk_examples = 2048;
  tcfg.epochs = epochs;
  tcfg.level = core::OptLevel::kImproved;
  tcfg.policy = core::ExecPolicy::kPhiOffload;
  // The paper's Fig. 6 concurrency: run the CD-1 step as a task graph.
  tcfg.use_taskgraph = true;
  tcfg.taskgraph_threads = 3;
  tcfg.optimizer.lr = 0.3f;

  std::printf("pre-training %zu RBMs greedily (CD-1, Fig. 6 task graph)...\n",
              dbn.layers());
  const auto reports = dbn.pretrain(patches, tcfg);
  for (std::size_t layer = 0; layer < reports.size(); ++layer) {
    std::printf(
        "  rbm %zu (%lld -> %lld): recon error per chunk %.4f -> %.4f\n", layer,
        static_cast<long long>(dbn.layer(layer).visible()),
        static_cast<long long>(dbn.layer(layer).hidden()),
        reports[layer].chunk_mean_costs.front(),
        reports[layer].chunk_mean_costs.back());
  }

  // Free energy separation: the trained bottom RBM should assign the data
  // lower free energy (higher probability) than shuffled noise.
  la::Matrix data_batch(256, 64);
  patches.copy_batch(0, 256, data_batch);
  la::Matrix noise = data_batch;
  util::Rng rng(99);
  for (la::Index i = 0; i < noise.size(); ++i)
    noise.data()[i] = noise.data()[static_cast<la::Index>(
        rng.uniform_index(static_cast<std::uint64_t>(noise.size())))];
  core::Rbm::Workspace ws;
  const double fe_data = dbn.layer(0).free_energy(data_batch, ws);
  const double fe_noise = dbn.layer(0).free_energy(noise, ws);
  std::printf("\nbottom RBM free energy: data %.2f vs shuffled noise %.2f%s\n",
              fe_data, fe_noise,
              fe_data < fe_noise ? "  (data preferred ✓)" : "");

  la::Matrix top;
  dbn.encode(data_batch, top);
  double mean_top = 0;
  for (la::Index i = 0; i < top.size(); ++i) mean_top += top.data()[i];
  std::printf("top-layer code: %lld units, mean activity %.3f\n",
              static_cast<long long>(top.cols()),
              mean_top / static_cast<double>(top.size()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return deepphi::util::run_main(argc, argv, run);
}
