// Reproduces paper Fig. 9: training time vs BATCH SIZE for the Sparse
// Autoencoder (a) and the RBM (b).
//
// Paper setup: network 1024×4096, dataset 100,000 examples, batch swept from
// 200 to 10,000. Expected shape: the Phi time drops by about two thirds from
// batch 200 to 10,000 (small batches mean skinny GEMMs that cannot fill 240
// threads), while the single-core change is modest ("the time decreases on
// single CPU core is not obvious").
#include <cstdio>

#include "bench_common.hpp"
#include "core/levels.hpp"

namespace {

using namespace deepphi;
using core::OptLevel;

void run_model(const util::Options& options, bool rbm) {
  const la::Index visible = 1024, hidden = 4096, examples = 100000;
  const la::Index chunk = 10000;
  const phi::MachineSpec phi_spec = phi::xeon_phi_5110p();
  const phi::MachineSpec host_spec = phi::xeon_e5620_single_core();

  std::printf("--- Fig. 9(%s): %s, network 1024x4096, 100k examples ---\n",
              rbm ? "b" : "a", rbm ? "RBM (CD-1)" : "Sparse Autoencoder");
  util::Table table({"batch", "phi_s", "cpu1core_s", "speedup"});
  for (la::Index batch : {200, 500, 1000, 2000, 5000, 10000}) {
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
    table.add_row({util::Table::cell(static_cast<long long>(batch)),
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

  bench::banner("Fig. 9 — impact of batch size",
                "Training time vs mini-batch size at fixed network and dataset.");
  const std::string which = options.get_string("model");
  if (which == "sae" || which == "both") run_model(options, /*rbm=*/false);
  if (which == "rbm" || which == "both") run_model(options, /*rbm=*/true);
  return 0;
}
