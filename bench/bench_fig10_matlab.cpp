// Reproduces paper Fig. 10: the fully-optimized Sparse Autoencoder on the
// Xeon Phi vs a Matlab implementation on the host CPU (all 4 cores,
// Matlab's own optimized BLAS).
//
// Paper setup: 1M examples, mini-batch 10,000. Expected: ≈16× speedup for
// the Phi even though Matlab's matrix products go to an optimized BLAS —
// Matlab computes in double precision and materializes a temporary for
// every vectorized expression (see baseline/matlab_like.hpp).
#include <cstdio>

#include "baseline/matlab_like.hpp"
#include "bench_common.hpp"
#include "core/levels.hpp"

int main(int argc, char** argv) {
  using namespace deepphi;
  util::Options options = util::Options::parse(argc, argv);
  bench::declare_common_flags(options);
  options.declare("visible", "visible layer size", "1024");
  options.declare("hidden", "hidden layer size", "4096");
  options.validate();

  bench::banner("Fig. 10 — comparison with Matlab",
                "Sparse Autoencoder, 1M examples, batch 10,000: Matlab on the\n"
                "4-core host vs the fully-optimized code on the Phi.");

  const la::Index visible = options.get_int("visible");
  const la::Index hidden = options.get_int("hidden");
  const la::Index examples = 1000000, batch = 10000, chunk = 10000;
  const core::TrainShape run{examples, batch, chunk, 1};
  const core::SaeShape shape{batch, visible, hidden};

  const phi::KernelStats phi_stats =
      core::sae_train_stats(run, shape, core::OptLevel::kImproved);
  const phi::KernelStats matlab_stats =
      baseline::matlab_sae_train_stats(run, shape);

  const double chunk_bytes = 4.0 * static_cast<double>(chunk) * visible;
  const double phi_s = bench::phi_run_seconds(
      phi_stats, core::train_counts(run).chunks, chunk_bytes, phi::xeon_phi_5110p(), 240);
  const double matlab_s =
      bench::host_run_seconds(matlab_stats, phi::matlab_host(), 8);

  util::Table table({"implementation", "machine", "time_s", "speedup_vs_matlab"});
  table.add_row({"Matlab R2012a-style", "xeon-e5620 (4 cores)",
                 util::Table::cell(matlab_s), util::Table::cell(1.0)});
  table.add_row({"deepphi (Improved)", "xeon-phi-5110p (240 thr)",
                 util::Table::cell(phi_s), util::Table::cell(matlab_s / phi_s)});
  bench::emit(options, table);
  std::printf("paper reports ~16x; shape target is Phi >> Matlab at this scale\n");
  return 0;
}
