// Reproduces paper Fig. 7: training time vs NETWORK SIZE for the Sparse
// Autoencoder (a) and the RBM (b), Xeon Phi vs a single host CPU core.
//
// Paper setup: SAE over ~1M examples in batches of 1000; RBM over 100,000
// examples in batches of 200; network (visible×hidden) swept from 576×1024
// to 4096×16384. Expected shape: the single-core curve climbs steeply and
// almost linearly in the weight count; the Phi curve grows mildly, and the
// gap is smallest at the smallest network.
#include <cstdio>

#include "bench_common.hpp"
#include "core/levels.hpp"

namespace {

using namespace deepphi;
using core::OptLevel;
using core::RbmShape;
using core::SaeShape;
using core::TrainShape;

struct NetworkPoint {
  la::Index visible, hidden;
};

const NetworkPoint kNetworks[] = {
    {576, 1024}, {1024, 2048}, {1024, 4096}, {2048, 8192}, {4096, 16384}};

void run_model(const util::Options& options, bool rbm) {
  const la::Index examples = rbm ? 100000 : 1000000;
  const la::Index batch = rbm ? 200 : 1000;
  const la::Index chunk = 10000;
  const TrainShape run{examples, batch, chunk, 1};

  const phi::MachineSpec phi_spec = phi::xeon_phi_5110p();
  const phi::MachineSpec host_spec = phi::xeon_e5620_single_core();

  std::printf("--- Fig. 7(%s): %s, %lld examples, batch %lld ---\n",
              rbm ? "b" : "a", rbm ? "RBM (CD-1)" : "Sparse Autoencoder",
              static_cast<long long>(examples), static_cast<long long>(batch));
  util::Table table({"network", "weights", "phi_s", "cpu1core_s", "speedup"});
  for (const auto& net : kNetworks) {
    phi::KernelStats stats;
    if (rbm) {
      stats = core::rbm_train_stats(run, RbmShape{batch, net.visible, net.hidden},
                                    OptLevel::kImproved);
    } else {
      stats = core::sae_train_stats(run, SaeShape{batch, net.visible, net.hidden},
                                    OptLevel::kImproved);
    }
    const double chunk_bytes = 4.0 * static_cast<double>(chunk) * net.visible;
    const double phi_s = bench::phi_run_seconds(
        stats, core::train_counts(run).chunks, chunk_bytes, phi_spec, 240);
    const double host_s = bench::host_run_seconds(stats, host_spec, 1);
    table.add_row({std::to_string(net.visible) + "x" + std::to_string(net.hidden),
                   util::Table::cell(static_cast<long long>(net.visible * net.hidden)),
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

  bench::banner("Fig. 7 — impact of network size",
                "Training time vs network size: Phi (240 threads, Improved "
                "level,\npipelined chunk loading) vs one Xeon E5620 core.");
  const std::string which = options.get_string("model");
  if (which == "sae" || which == "both") run_model(options, /*rbm=*/false);
  if (which == "rbm" || which == "both") run_model(options, /*rbm=*/true);
  return 0;
}
