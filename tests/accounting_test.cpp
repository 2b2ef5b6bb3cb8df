// The model==measure contract: the analytic work accounting
// (core/cost_accounting) must reproduce, exactly, the KernelStats recorded
// by really executing each code path. This equality is what licenses the
// benches to evaluate paper-scale configurations analytically. Also checks
// the simulated-time orderings the reproduction depends on (the Table I
// ladder, Phi vs single core, Matlab).
#include <algorithm>
#include <cmath>
#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "baseline/matlab_like.hpp"
#include "core/autoencoder_loops.hpp"
#include "core/cost_accounting.hpp"
#include "core/rbm.hpp"
#include "core/rbm_loops.hpp"
#include "core/rbm_taskgraph.hpp"
#include "core/sparse_autoencoder.hpp"
#include "core/trainer.hpp"
#include "data/patches.hpp"
#include "phi/cost_model.hpp"
#include "phi/device.hpp"
#include "util/rng.hpp"

namespace deepphi::core {
namespace {

la::Matrix random_batch(la::Index rows, la::Index cols, std::uint64_t seed) {
  util::Rng rng(seed);
  la::Matrix m = la::Matrix::uninitialized(rows, cols);
  for (la::Index i = 0; i < m.size(); ++i)
    m.data()[i] = static_cast<float>(rng.uniform(0.1, 0.9));
  return m;
}

// Executes one SAE gradient+update exactly as Trainer does and returns the
// recorded stats.
phi::KernelStats measure_sae_batch(la::Index batch, la::Index visible,
                                   la::Index hidden, OptLevel level,
                                   OptimizerKind kind) {
  SaeConfig cfg;
  cfg.visible = visible;
  cfg.hidden = hidden;
  SparseAutoencoder model(cfg, 7);
  la::Matrix x = random_batch(batch, visible, 1);
  SparseAutoencoder::Workspace ws;
  AeGradients grads;
  OptimizerConfig ocfg;
  ocfg.kind = kind;
  ocfg.lr = 0.1f;
  Optimizer opt(ocfg);

  phi::KernelStats stats;
  phi::StatsScope scope(stats);
  if (is_matrix_form(level)) {
    model.gradient(x, ws, grads, is_fused(level));
    opt.update(model.w1(), grads.g_w1);
    opt.update(model.b1(), grads.g_b1);
    opt.update(model.w2(), grads.g_w2);
    opt.update(model.b2(), grads.g_b2);
  } else {
    sae_gradient_loops(model, x, ws, grads, level == OptLevel::kOpenMp);
    sae_apply_update_loops(model, grads, 0.1f, level == OptLevel::kOpenMp);
  }
  return stats;
}

phi::KernelStats measure_rbm_batch(la::Index batch, la::Index visible,
                                   la::Index hidden, OptLevel level,
                                   OptimizerKind kind, int cd_k,
                                   bool sample_visible, bool taskgraph) {
  RbmConfig cfg;
  cfg.visible = visible;
  cfg.hidden = hidden;
  cfg.cd_k = cd_k;
  cfg.sample_visible = sample_visible;
  Rbm model(cfg, 7);
  la::Matrix v1 = random_batch(batch, visible, 2);
  Rbm::Workspace ws;
  RbmGradients grads;
  OptimizerConfig ocfg;
  ocfg.kind = kind;
  ocfg.lr = 0.1f;
  Optimizer opt(ocfg);
  util::Rng rng(99);

  phi::KernelStats stats;
  phi::StatsScope scope(stats);
  if (is_matrix_form(level)) {
    if (taskgraph) {
      par::ThreadPool pool(3);
      RbmTaskGraphStep step(model, pool);
      step.run(v1, ws, grads, rng);
    } else {
      model.gradient(v1, ws, grads, rng, is_fused(level));
    }
    opt.update(model.w(), grads.g_w);
    opt.update(model.b(), grads.g_b);
    opt.update(model.c(), grads.g_c);
  } else {
    rbm_gradient_loops(model, v1, ws, grads, rng, level == OptLevel::kOpenMp);
    rbm_apply_update_loops(model, grads, 0.1f, level == OptLevel::kOpenMp);
  }
  return stats;
}

struct LevelShapeCase {
  OptLevel level;
  la::Index batch, visible, hidden;
};

// Names the ctest case by its fields, e.g. "openmp_mkl_b8_v12_h9".
void PrintTo(const LevelShapeCase& c, std::ostream* os) {
  std::string level = to_string(c.level);
  std::replace(level.begin(), level.end(), '+', '_');
  *os << level << "_b" << c.batch << "_v" << c.visible << "_h" << c.hidden;
}

class SaeAccounting : public ::testing::TestWithParam<LevelShapeCase> {};

TEST_P(SaeAccounting, ModelEqualsMeasure) {
  const auto& p = GetParam();
  const phi::KernelStats measured =
      measure_sae_batch(p.batch, p.visible, p.hidden, p.level,
                        OptimizerKind::kSgd);
  const phi::KernelStats modeled = sae_batch_stats(
      SaeShape{p.batch, p.visible, p.hidden}, p.level, OptimizerKind::kSgd);
  EXPECT_TRUE(measured.approx_equal(modeled, 1e-6))
      << "measured: " << measured.to_string()
      << "\nmodeled:  " << modeled.to_string();
}

INSTANTIATE_TEST_SUITE_P(
    LevelsAndShapes, SaeAccounting,
    ::testing::Values(
        LevelShapeCase{OptLevel::kBaseline, 8, 12, 9},
        LevelShapeCase{OptLevel::kOpenMp, 8, 12, 9},
        LevelShapeCase{OptLevel::kOpenMpMkl, 8, 12, 9},
        LevelShapeCase{OptLevel::kImproved, 8, 12, 9},
        LevelShapeCase{OptLevel::kBaseline, 1, 5, 3},
        LevelShapeCase{OptLevel::kImproved, 1, 5, 3},
        LevelShapeCase{OptLevel::kImproved, 33, 20, 40},
        LevelShapeCase{OptLevel::kOpenMpMkl, 17, 30, 11}));

TEST(SaeAccounting, MomentumAndAdagradUpdates) {
  for (OptimizerKind kind :
       {OptimizerKind::kMomentum, OptimizerKind::kAdagrad}) {
    const phi::KernelStats measured =
        measure_sae_batch(6, 10, 7, OptLevel::kImproved, kind);
    const phi::KernelStats modeled =
        sae_batch_stats(SaeShape{6, 10, 7}, OptLevel::kImproved, kind);
    EXPECT_TRUE(measured.approx_equal(modeled, 1e-6)) << to_string(kind);
  }
}

class RbmAccounting : public ::testing::TestWithParam<LevelShapeCase> {};

TEST_P(RbmAccounting, ModelEqualsMeasure) {
  const auto& p = GetParam();
  const phi::KernelStats measured =
      measure_rbm_batch(p.batch, p.visible, p.hidden, p.level,
                        OptimizerKind::kSgd, 1, false, false);
  const phi::KernelStats modeled =
      rbm_batch_stats(RbmShape{p.batch, p.visible, p.hidden, 1, false},
                      p.level, OptimizerKind::kSgd, false);
  EXPECT_TRUE(measured.approx_equal(modeled, 1e-6))
      << "measured: " << measured.to_string()
      << "\nmodeled:  " << modeled.to_string();
}

INSTANTIATE_TEST_SUITE_P(
    LevelsAndShapes, RbmAccounting,
    ::testing::Values(
        LevelShapeCase{OptLevel::kBaseline, 8, 12, 9},
        LevelShapeCase{OptLevel::kOpenMp, 8, 12, 9},
        LevelShapeCase{OptLevel::kOpenMpMkl, 8, 12, 9},
        LevelShapeCase{OptLevel::kImproved, 8, 12, 9},
        LevelShapeCase{OptLevel::kImproved, 25, 16, 31}));

TEST(RbmAccounting, CdKAndSampleVisibleVariants) {
  for (int cd_k : {1, 2, 3}) {
    for (bool sv : {false, true}) {
      for (OptLevel level : {OptLevel::kBaseline, OptLevel::kImproved,
                             OptLevel::kOpenMpMkl}) {
        const phi::KernelStats measured = measure_rbm_batch(
            6, 8, 5, level, OptimizerKind::kSgd, cd_k, sv, false);
        const phi::KernelStats modeled =
            rbm_batch_stats(RbmShape{6, 8, 5, cd_k, sv}, level,
                            OptimizerKind::kSgd, false);
        EXPECT_TRUE(measured.approx_equal(modeled, 1e-6))
            << "cd_k=" << cd_k << " sv=" << sv << " level=" << to_string(level)
            << "\nmeasured: " << measured.to_string()
            << "\nmodeled:  " << modeled.to_string();
      }
    }
  }
}

TEST(RbmAccounting, TaskGraphModelEqualsMeasure) {
  const phi::KernelStats measured = measure_rbm_batch(
      9, 10, 7, OptLevel::kImproved, OptimizerKind::kSgd, 1, false, true);
  const phi::KernelStats modeled = rbm_batch_stats(
      RbmShape{9, 10, 7, 1, false}, OptLevel::kImproved, OptimizerKind::kSgd,
      true);
  EXPECT_TRUE(measured.approx_equal(modeled, 1e-6))
      << "measured: " << measured.to_string()
      << "\nmodeled:  " << modeled.to_string();
}

// --- full training runs ---

TEST(TrainAccounting, SaeTrainerMatchesModel) {
  const la::Index examples = 150, batch = 16, chunk = 64;
  data::Dataset patches = data::make_digit_patch_dataset(examples, 4, 3);
  SaeConfig mcfg;
  mcfg.visible = 16;
  mcfg.hidden = 8;
  SparseAutoencoder model(mcfg, 5);
  TrainerConfig tcfg;
  tcfg.batch_size = batch;
  tcfg.chunk_examples = chunk;
  tcfg.level = OptLevel::kImproved;
  tcfg.policy = ExecPolicy::kHost;
  const TrainReport report = Trainer(tcfg).train(model, patches);

  const phi::KernelStats modeled =
      sae_train_stats(TrainShape{examples, batch, chunk, 1},
                      SaeShape{batch, 16, 8}, OptLevel::kImproved);
  EXPECT_TRUE(report.stats.approx_equal(modeled, 1e-6))
      << "measured: " << report.stats.to_string()
      << "\nmodeled:  " << modeled.to_string();
  const TrainCounts counts = train_counts(TrainShape{examples, batch, chunk, 1});
  EXPECT_EQ(report.batches, counts.batches);
  EXPECT_EQ(report.updates, counts.updates);
  EXPECT_EQ(report.chunks, counts.chunks);
}

TEST(TrainAccounting, RbmTrainerMatchesModelAcrossLevels) {
  const la::Index examples = 130, batch = 16, chunk = 64;
  data::Dataset patches = data::make_digit_patch_dataset(examples, 4, 7);
  for (OptLevel level : {OptLevel::kBaseline, OptLevel::kOpenMpMkl}) {
    RbmConfig mcfg;
    mcfg.visible = 16;
    mcfg.hidden = 8;
    Rbm model(mcfg, 11);
    TrainerConfig tcfg;
    tcfg.batch_size = batch;
    tcfg.chunk_examples = chunk;
    tcfg.level = level;
    tcfg.policy = ExecPolicy::kHost;
    const TrainReport report = Trainer(tcfg).train(model, patches);
    const phi::KernelStats modeled =
        rbm_train_stats(TrainShape{examples, batch, chunk, 1},
                        RbmShape{batch, 16, 8, 1, false}, level);
    EXPECT_TRUE(report.stats.approx_equal(modeled, 1e-6)) << to_string(level);
  }
}

TEST(TrainAccounting, MultiEpochScales) {
  const TrainShape one{100, 10, 50, 1};
  const TrainShape three{100, 10, 50, 3};
  const SaeShape shape{10, 8, 6};
  const phi::KernelStats s1 = sae_train_stats(one, shape, OptLevel::kImproved);
  const phi::KernelStats s3 = sae_train_stats(three, shape, OptLevel::kImproved);
  EXPECT_TRUE(s3.approx_equal(s1.scaled(3.0), 1e-9));
  EXPECT_EQ(train_counts(three).batches, 3 * train_counts(one).batches);
}

TEST(TrainAccounting, CountsHandleShortTails) {
  // 105 examples, chunks of 50: 50+50+5; batches per chunk 5+5+1.
  const TrainShape run{105, 10, 50, 1};
  EXPECT_EQ(train_counts(run).chunks, 3);
  EXPECT_EQ(train_counts(run).batches, 11);
  EXPECT_EQ(train_counts(run).updates, 11);
}

TEST(TrainAccounting, RbmTaskGraphTrainerMatchesModel) {
  const la::Index examples = 130, batch = 16, chunk = 64;
  data::Dataset patches = data::make_digit_patch_dataset(examples, 4, 31);
  RbmConfig mcfg;
  mcfg.visible = 16;
  mcfg.hidden = 8;
  Rbm model(mcfg, 37);
  TrainerConfig tcfg;
  tcfg.batch_size = batch;
  tcfg.chunk_examples = chunk;
  tcfg.level = OptLevel::kImproved;
  tcfg.policy = ExecPolicy::kHost;
  tcfg.use_taskgraph = true;
  tcfg.taskgraph_threads = 2;
  const TrainReport report = Trainer(tcfg).train(model, patches);
  const phi::KernelStats modeled =
      rbm_train_stats(TrainShape{examples, batch, chunk, 1},
                      RbmShape{batch, 16, 8, 1, false}, OptLevel::kImproved,
                      OptimizerKind::kSgd, /*taskgraph=*/true);
  EXPECT_TRUE(report.stats.approx_equal(modeled, 1e-6))
      << "measured: " << report.stats.to_string()
      << "\nmodeled:  " << modeled.to_string();
}

TEST(TrainAccounting, GaussianRbmTrainerMatchesModel) {
  const la::Index examples = 100, batch = 20, chunk = 50;
  data::Dataset patches = data::make_digit_patch_dataset(examples, 4, 41);
  RbmConfig mcfg;
  mcfg.visible = 16;
  mcfg.hidden = 8;
  mcfg.cd_k = 2;
  mcfg.sample_visible = true;
  mcfg.visible_type = VisibleType::kGaussian;
  Rbm model(mcfg, 43);
  TrainerConfig tcfg;
  tcfg.batch_size = batch;
  tcfg.chunk_examples = chunk;
  tcfg.level = OptLevel::kImproved;
  tcfg.policy = ExecPolicy::kHost;
  const TrainReport report = Trainer(tcfg).train(model, patches);
  const phi::KernelStats modeled = rbm_train_stats(
      TrainShape{examples, batch, chunk, 1},
      RbmShape{batch, 16, 8, 2, true, true}, OptLevel::kImproved);
  EXPECT_TRUE(report.stats.approx_equal(modeled, 1e-6))
      << "measured: " << report.stats.to_string()
      << "\nmodeled:  " << modeled.to_string();
}

// --- simulated-time orderings (the reproduction's qualitative claims) ---

TEST(SimOrdering, TableILadderIsMonotone) {
  // 4-layer stacked AE flavor at one layer: 1024 -> 512, batch 10000.
  const SaeShape shape{10000, 1024, 512};
  const phi::CostModel phi_model(phi::xeon_phi_5110p());
  double prev = 1e300;
  for (OptLevel level : {OptLevel::kBaseline, OptLevel::kOpenMp,
                         OptLevel::kOpenMpMkl, OptLevel::kImproved}) {
    const phi::KernelStats stats = sae_batch_stats(shape, level);
    const int threads = level_threads(level, 240);
    const double t = phi_model.evaluate(stats, threads).compute_s();
    EXPECT_LT(t, prev) << to_string(level);
    prev = t;
  }
}

TEST(SimOrdering, PhiBeatsSingleHostCoreAtPaperScale) {
  // Fig. 7's mid-size point: 1024 visible x 4096 hidden, batch 1000.
  const SaeShape shape{1000, 1024, 4096};
  const phi::KernelStats stats = sae_batch_stats(shape, OptLevel::kImproved);
  const double phi_t =
      phi::CostModel(phi::xeon_phi_5110p()).evaluate(stats, 240).compute_s();
  const double host_t =
      phi::CostModel(phi::xeon_e5620_single_core()).evaluate(stats, 1).compute_s();
  EXPECT_LT(phi_t * 5, host_t);  // Phi wins by a wide margin at this size
}

TEST(SimOrdering, SingleCoreCompetitiveAtTinyNetworks) {
  // "the difference ... is small when the size of network is small":
  // the Phi's advantage collapses by orders of magnitude at tiny shapes.
  const SaeShape big{1000, 1024, 4096};
  const SaeShape tiny{100, 24, 16};
  auto ratio = [](const SaeShape& s) {
    const phi::KernelStats stats = sae_batch_stats(s, OptLevel::kImproved);
    const double phi_t =
        phi::CostModel(phi::xeon_phi_5110p()).evaluate(stats, 240).compute_s();
    const double host_t = phi::CostModel(phi::xeon_e5620_single_core())
                              .evaluate(stats, 1)
                              .compute_s();
    return host_t / phi_t;
  };
  EXPECT_GT(ratio(big), 10 * ratio(tiny));
}

TEST(SimOrdering, MatlabSlowerThanPhi) {
  const core::SaeShape shape{10000, 1024, 4096};
  const phi::KernelStats matlab_stats =
      baseline::matlab_sae_batch_stats(shape);
  const phi::KernelStats phi_stats =
      sae_batch_stats(shape, OptLevel::kImproved);
  const double matlab_t =
      phi::CostModel(phi::matlab_host()).evaluate(matlab_stats, 8).compute_s();
  const double phi_t =
      phi::CostModel(phi::xeon_phi_5110p()).evaluate(phi_stats, 240).compute_s();
  EXPECT_GT(matlab_t, 4 * phi_t);
}

TEST(MatlabAccounting, TrainStatsSumBatches) {
  const core::TrainShape run{100, 10, 100, 1};
  const core::SaeShape shape{10, 8, 6};
  const phi::KernelStats total = baseline::matlab_sae_train_stats(run, shape);
  const phi::KernelStats one = baseline::matlab_sae_batch_stats(shape);
  EXPECT_TRUE(total.approx_equal(one.scaled(10.0), 1e-9));
  EXPECT_EQ(total.transfers, 0);  // host run: no PCIe
}

// --- real vs predicted per-chunk timelines ---

// TrainReport now carries the measured wall seconds of every chunk; the
// simulated side predicts per-chunk timings via Offload::process_chunks on
// the same per-chunk work. The two timelines must agree structurally (one
// entry per chunk, in order, finite and positive, chunk sum bounded by the
// run total). Absolute times are machine-dependent, so that part is not
// asserted.
TEST(TrainAccounting, ChunkWallSecondsMatchSimulatedChunkTimeline) {
  const la::Index examples = 256, batch = 16, chunk = 64;
  data::Dataset patches = data::make_digit_patch_dataset(examples, 4, 9);
  SaeConfig mcfg;
  mcfg.visible = 16;
  mcfg.hidden = 8;
  SparseAutoencoder model(mcfg, 3);

  phi::Device device(phi::xeon_phi_5110p());
  TrainerConfig tcfg;
  tcfg.batch_size = batch;
  tcfg.chunk_examples = chunk;
  tcfg.epochs = 2;
  tcfg.level = OptLevel::kImproved;
  tcfg.policy = ExecPolicy::kPhiOffload;
  tcfg.device = &device;
  const TrainReport report = Trainer(tcfg).train(model, patches);

  ASSERT_GT(report.chunks, 0);
  ASSERT_EQ(report.chunk_wall_seconds.size(),
            static_cast<std::size_t>(report.chunks));
  double chunk_sum = 0;
  for (double s : report.chunk_wall_seconds) {
    EXPECT_TRUE(std::isfinite(s));
    EXPECT_GT(s, 0.0);
    chunk_sum += s;
  }
  // Chunk training is a subset of the run (setup/teardown excluded), with
  // a little slack for timer granularity.
  EXPECT_LE(chunk_sum, report.wall_seconds * 1.05 + 1e-3);

  // The simulated timeline predicts the same number of chunks, each with a
  // positive compute interval, and their simulated spans sum consistently
  // with what simulate() reports end-to-end.
  phi::Device sim_device(phi::xeon_phi_5110p());
  phi::Offload offload(sim_device, phi::OffloadConfig{true, 4});
  const phi::OffloadReport predicted = offload.process_chunks(
      static_cast<int>(report.chunks), report.chunk_bytes,
      report.per_chunk_compute_stats());
  ASSERT_EQ(predicted.chunks.size(), report.chunk_wall_seconds.size());
  for (const phi::ChunkTiming& t : predicted.chunks) {
    EXPECT_GT(t.compute_end_s, t.compute_start_s);
    EXPECT_GE(t.compute_start_s, t.transfer_start_s);
  }

  phi::Device sim_device2(phi::xeon_phi_5110p());
  const SimulatedTime sim = simulate(report, sim_device2);
  EXPECT_GT(sim.pipelined_s, 0.0);
  EXPECT_LE(sim.pipelined_s, sim.serialized_s * (1.0 + 1e-9));
  EXPECT_NEAR(sim.pipelined_s, predicted.total_s,
              1e-6 * std::max(1.0, predicted.total_s));
}

}  // namespace
}  // namespace deepphi::core
