// Reproduces paper Fig. 8: training time vs DATASET SIZE for the Sparse
// Autoencoder (a) and the RBM (b).
//
// Paper setup: network fixed at 1024×4096, batch 1000, dataset swept from
// 10,000 to 100,000 examples. Expected shape: the single-core time grows
// linearly and much faster than the Phi time ("Intel Xeon Phi works much
// better when dealing with large dataset size").
#include <cstdio>

#include "bench_common.hpp"
#include "core/levels.hpp"

namespace {

using namespace deepphi;
using core::OptLevel;

void run_model(const util::Options& options, bool rbm) {
  const la::Index visible = 1024, hidden = 4096, batch = 1000, chunk = 10000;
  const phi::MachineSpec phi_spec = phi::xeon_phi_5110p();
  const phi::MachineSpec host_spec = phi::xeon_e5620_single_core();

  std::printf("--- Fig. 8(%s): %s, network 1024x4096, batch 1000 ---\n",
              rbm ? "b" : "a", rbm ? "RBM (CD-1)" : "Sparse Autoencoder");
  util::Table table({"examples", "phi_s", "cpu1core_s", "speedup"});
  for (la::Index examples = 10000; examples <= 100000; examples += 10000) {
    const core::TrainShape run{examples, batch, chunk, 1};
    phi::KernelStats stats;
    if (rbm) {
      stats = core::rbm_train_stats(run, core::RbmShape{batch, visible, hidden},
                                    OptLevel::kImproved);
    } else {
      stats = core::sae_train_stats(run, core::SaeShape{batch, visible, hidden},
                                    OptLevel::kImproved);
    }
    const double chunk_bytes = 4.0 * static_cast<double>(chunk) * visible;
    const double phi_s = bench::phi_run_seconds(
        stats, core::train_counts(run).chunks, chunk_bytes, phi_spec, 240);
    const double host_s = bench::host_run_seconds(stats, host_spec, 1);
    table.add_row({util::Table::cell(static_cast<long long>(examples)),
                   util::Table::cell(phi_s), util::Table::cell(host_s),
                   util::Table::cell(host_s / phi_s)});
  }
  bench::emit(options, table);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace deepphi;
  util::Options options = util::Options::parse(argc, argv);
  bench::declare_common_flags(options);
  options.declare("model", "which panel to run: sae, rbm, or both", "both");
  options.validate();

  bench::banner("Fig. 8 — impact of dataset size",
                "Training time vs dataset size at fixed network 1024x4096.");
  const std::string which = options.get_string("model");
  if (which == "sae" || which == "both") run_model(options, /*rbm=*/false);
  if (which == "rbm" || which == "both") run_model(options, /*rbm=*/true);
  return 0;
}
