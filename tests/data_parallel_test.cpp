// Data-parallel training tests (docs/data_parallel.md): shard coverage and
// determinism of data::shard_rows, the S-slot step's determinism contract —
// trained-parameter hashes pinned for every level, the task graph and S = 4,
// and any (replicas, accumulation_steps) factorization of the same slot
// count S training bit-identical parameters regardless of replica thread
// budgets — plus the model==measure accounting of the slot replay.
#include <gtest/gtest.h>

#include <vector>

#include "core/cost_accounting.hpp"
#include "core/trainer.hpp"
#include "data/chunk_stream.hpp"
#include "data/patches.hpp"
#include "data/sharded_dataset.hpp"
#include "forced_tier.hpp"

namespace deepphi::core {
namespace {

// --- data::shard_rows ---

TEST(ShardRows, CoversDisjointContiguous) {
  for (la::Index rows : {0, 1, 5, 63, 64, 65, 1000}) {
    for (int shards : {1, 2, 3, 4, 7, 16}) {
      const std::vector<data::RowShard> out = data::shard_rows(rows, shards);
      ASSERT_EQ(out.size(), static_cast<std::size_t>(shards));
      la::Index cursor = 0;
      for (const data::RowShard& s : out) {
        EXPECT_EQ(s.begin, cursor);
        EXPECT_GE(s.rows, 0);
        cursor = s.end();
      }
      EXPECT_EQ(cursor, rows) << rows << " rows over " << shards;
    }
  }
}

TEST(ShardRows, BalancedWithinOneRow) {
  for (la::Index rows : {11, 64, 129, 1000}) {
    for (int shards : {2, 3, 4, 7}) {
      la::Index lo = rows, hi = 0;
      for (const data::RowShard& s : data::shard_rows(rows, shards)) {
        lo = std::min(lo, s.rows);
        hi = std::max(hi, s.rows);
      }
      EXPECT_LE(hi - lo, 1);
    }
  }
}

TEST(ShardRows, RaggedTailLeavesTrailingShardsEmpty) {
  const std::vector<data::RowShard> out = data::shard_rows(3, 5);
  EXPECT_EQ(out[0].rows, 1);
  EXPECT_EQ(out[1].rows, 1);
  EXPECT_EQ(out[2].rows, 1);
  EXPECT_EQ(out[3].rows, 0);
  EXPECT_EQ(out[4].rows, 0);
  // Shard 0 is never empty while any rows exist — the combine relies on it.
  EXPECT_GT(data::shard_rows(1, 16)[0].rows, 0);
}

TEST(ShardRows, SingleShardIsWholeRange) {
  const std::vector<data::RowShard> out = data::shard_rows(77, 1);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].begin, 0);
  EXPECT_EQ(out[0].rows, 77);
}

// --- training helpers ---

std::vector<float> sae_params(const SparseAutoencoder& m) {
  std::vector<float> p(static_cast<std::size_t>(m.param_count()));
  m.get_params(p.data());
  return p;
}

std::vector<float> rbm_params(const Rbm& m) {
  std::vector<float> out;
  auto push = [&](const float* p, la::Index n) {
    out.insert(out.end(), p, p + n);
  };
  push(m.w().data(), m.w().size());
  push(m.b().data(), m.b().size());
  push(m.c().data(), m.c().size());
  return out;
}

// 330 examples / chunk 128 / batch 24 exercises ragged chunk tails AND
// ragged gradient groups (the last group of each chunk is short).
TrainerConfig dp_config(int replicas, int accum, int replica_threads = 0) {
  TrainerConfig cfg;
  cfg.batch_size = 24;
  cfg.chunk_examples = 128;
  cfg.epochs = 2;
  cfg.level = OptLevel::kImproved;
  cfg.optimizer.lr = 0.1f;
  cfg.seed = 42;
  cfg.replicas = replicas;
  cfg.accumulation_steps = accum;
  cfg.replica_threads = replica_threads;
  return cfg;
}

data::Dataset ragged_patches() {
  return data::make_digit_patch_dataset(330, 4, 5);  // dim 16
}

std::vector<float> train_sae(const TrainerConfig& cfg,
                             const data::Dataset& data,
                             TrainReport* report_out = nullptr) {
  SaeConfig mcfg;
  mcfg.visible = data.dim();
  mcfg.hidden = 8;
  SparseAutoencoder model(mcfg, 7);
  TrainReport report = Trainer(cfg).train(model, data);
  if (report_out) *report_out = report;
  return sae_params(model);
}

std::vector<float> train_rbm(const TrainerConfig& cfg,
                             const data::Dataset& data,
                             TrainReport* report_out = nullptr) {
  RbmConfig mcfg;
  mcfg.visible = data.dim();
  mcfg.hidden = 8;
  Rbm model(mcfg, 7);
  TrainReport report = Trainer(cfg).train(model, data);
  if (report_out) *report_out = report;
  return rbm_params(model);
}

// --- trained-parameter hashes, captured before the S-slot step became the
// only trainer. FNV-1a over the raw float bytes, so any change to kernel
// order, RNG streams, update order or the combine shows up as a mismatch. ---

std::uint64_t param_hash(const std::vector<float>& params) {
  return data::fnv1a64(params.data(), params.size() * sizeof(float));
}

constexpr OptLevel kAllLevels[] = {OptLevel::kBaseline, OptLevel::kOpenMp,
                                   OptLevel::kOpenMpMkl, OptLevel::kImproved};

// Each hash must hold at every SIMD tier this CPU runs — the tiers have their
// own GEMM register tiles, and CI runners differ in which tier they dispatch.

TEST(TrainedParamHash, SaeEveryLevel) {
  const data::Dataset data = ragged_patches();
  const std::uint64_t expected[] = {0x1db7dd71cc1a0df6ULL, 0x1db7dd71cc1a0df6ULL,
                                    0xc427db23d81c09f6ULL, 0x3010edc395b68ea9ULL};
  for (la::simd::Tier tier : test::available_tiers()) {
    test::ForcedTier forced(tier);
    for (int i = 0; i < 4; ++i) {
      TrainerConfig cfg = dp_config(1, 1);
      cfg.level = kAllLevels[i];
      const std::uint64_t hash = param_hash(train_sae(cfg, data));
      EXPECT_EQ(hash, expected[i]) << la::simd::tier_name(tier) << " "
                                   << to_string(cfg.level) << std::hex
                                   << " 0x" << hash;
    }
  }
}

TEST(TrainedParamHash, RbmEveryLevel) {
  const data::Dataset data = ragged_patches();
  const std::uint64_t expected[] = {0x9aeb1307138ce10aULL, 0x9aeb1307138ce10aULL,
                                    0xff4a37370b1cc6c9ULL, 0xff4a37370b1cc6c9ULL};
  for (la::simd::Tier tier : test::available_tiers()) {
    test::ForcedTier forced(tier);
    for (int i = 0; i < 4; ++i) {
      TrainerConfig cfg = dp_config(1, 1);
      cfg.level = kAllLevels[i];
      const std::uint64_t hash = param_hash(train_rbm(cfg, data));
      EXPECT_EQ(hash, expected[i]) << la::simd::tier_name(tier) << " "
                                   << to_string(cfg.level) << std::hex
                                   << " 0x" << hash;
    }
  }
}

TEST(TrainedParamHash, RbmTaskGraph) {
  const data::Dataset data = ragged_patches();
  TrainerConfig cfg = dp_config(1, 1);
  cfg.use_taskgraph = true;
  for (la::simd::Tier tier : test::available_tiers()) {
    test::ForcedTier forced(tier);
    const std::uint64_t hash = param_hash(train_rbm(cfg, data));
    EXPECT_EQ(hash, 0x475e126d6486804aULL)
        << la::simd::tier_name(tier) << std::hex << " 0x" << hash;
  }
}

TEST(TrainedParamHash, RbmFourSlots) {
  const data::Dataset data = ragged_patches();
  for (la::simd::Tier tier : test::available_tiers()) {
    test::ForcedTier forced(tier);
    const std::uint64_t hash = param_hash(train_rbm(dp_config(2, 2), data));
    EXPECT_EQ(hash, 0xe57767104635c720ULL)
        << la::simd::tier_name(tier) << std::hex << " 0x" << hash;
  }
}

// --- factorization parity: fixed S, any (R, A), any thread budget ---

TEST(DataParallel, FactorizationsOfSameSlotCountBitIdenticalSae) {
  const data::Dataset data = ragged_patches();
  TrainReport r41, r14, r22;
  const std::vector<float> p41 = train_sae(dp_config(4, 1), data, &r41);
  const std::vector<float> p14 = train_sae(dp_config(1, 4), data, &r14);
  const std::vector<float> p22 = train_sae(dp_config(2, 2), data, &r22);
  EXPECT_EQ(p41, p14);
  EXPECT_EQ(p41, p22);
  EXPECT_EQ(r41.updates, r14.updates);
  EXPECT_EQ(r41.batches, r14.batches);
  EXPECT_EQ(r41.chunk_mean_costs, r22.chunk_mean_costs);
}

TEST(DataParallel, FactorizationsOfSameSlotCountBitIdenticalRbm) {
  const data::Dataset data = ragged_patches();
  const std::vector<float> p41 = train_rbm(dp_config(4, 1), data);
  const std::vector<float> p14 = train_rbm(dp_config(1, 4), data);
  const std::vector<float> p22 = train_rbm(dp_config(2, 2), data);
  EXPECT_EQ(p41, p14);
  EXPECT_EQ(p41, p22);
}

TEST(DataParallel, ReplicaThreadBudgetDoesNotChangeParameters) {
  const data::Dataset data = ragged_patches();
  const std::vector<float> one = train_sae(dp_config(2, 2, 1), data);
  const std::vector<float> two = train_sae(dp_config(2, 2, 2), data);
  const std::vector<float> four = train_sae(dp_config(4, 1, 3), data);
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, four);
}

// --- accumulation semantics ---

TEST(DataParallel, UpdateCountMatchesAccounting) {
  const data::Dataset data = ragged_patches();
  TrainReport report;
  train_sae(dp_config(2, 2), data, &report);
  const TrainCounts counts = train_counts(TrainShape{330, 24, 128, 2, 4});
  EXPECT_EQ(report.updates, counts.updates);
  EXPECT_EQ(report.batches, counts.batches);
  // Every update consumes at least one and at most S micro-batches.
  EXPECT_GE(report.batches, report.updates);
  EXPECT_LE(report.batches, report.updates * 4);
}

TEST(DataParallel, LearnsOnPatches) {
  const data::Dataset data = data::make_digit_patch_dataset(512, 4, 5);
  TrainerConfig cfg = dp_config(4, 1);
  cfg.epochs = 6;
  TrainReport report;
  train_sae(cfg, data, &report);
  ASSERT_GE(report.chunk_mean_costs.size(), 2u);
  EXPECT_LT(report.chunk_mean_costs.back(), report.chunk_mean_costs.front());
}

// --- model == measure for the dp accounting ---

TEST(DataParallel, ModelEqualsMeasureSae) {
  const data::Dataset data = ragged_patches();
  TrainReport report;
  train_sae(dp_config(2, 2), data, &report);
  const phi::KernelStats modeled =
      sae_train_stats(TrainShape{330, 24, 128, 2, 4}, SaeShape{24, 16, 8},
                      OptLevel::kImproved);
  EXPECT_TRUE(report.stats.approx_equal(modeled, 1e-6));
}

TEST(DataParallel, ModelEqualsMeasureRbm) {
  const data::Dataset data = ragged_patches();
  TrainReport report;
  train_rbm(dp_config(4, 1), data, &report);
  const phi::KernelStats modeled =
      rbm_train_stats(TrainShape{330, 24, 128, 2, 4}, RbmShape{24, 16, 8},
                      OptLevel::kImproved);
  EXPECT_TRUE(report.stats.approx_equal(modeled, 1e-6));
}

TEST(DataParallel, SingleSlotAccountingEqualsTrainStats) {
  // At S = 1 the slot replay is Algorithm 1's loop: per chunk one transfer,
  // per batch one gradient + update, nothing else.
  const TrainShape run{330, 24, 128, 2};
  const SaeShape shape{24, 16, 8};
  phi::KernelStats flat;
  for (int epoch = 0; epoch < run.epochs; ++epoch)
    for (la::Index begin = 0; begin < run.examples; begin += run.chunk) {
      const la::Index rows = std::min(run.chunk, run.examples - begin);
      flat += phi::h2d_contribution(4.0 * static_cast<double>(rows) * 16);
      for (la::Index b0 = 0; b0 < rows; b0 += run.batch) {
        SaeShape s = shape;
        s.batch = std::min(run.batch, rows - b0);
        flat += sae_batch_stats(s, OptLevel::kImproved);
      }
    }
  EXPECT_TRUE(sae_train_stats(run, shape, OptLevel::kImproved)
                  .approx_equal(flat, 1e-9));
}

TEST(DataParallel, CombineStatsZeroForSingleLiveSlot) {
  const phi::KernelStats none = dp_combine_stats({128, 8, 128, 16}, 1);
  EXPECT_EQ(none.loop_flops, 0.0);
  EXPECT_EQ(none.kernel_launches, 0);
  const phi::KernelStats some = dp_combine_stats({128, 8, 128, 16}, 4);
  EXPECT_GT(some.loop_flops, 0.0);
  // 3 tree edges + 1 scal per buffer.
  EXPECT_EQ(some.kernel_launches, 4 * 4);
}

// --- configuration validation ---

TEST(DataParallel, RejectsLoopFormLevels) {
  TrainerConfig cfg = dp_config(2, 1);
  cfg.level = OptLevel::kOpenMp;
  EXPECT_THROW(Trainer{cfg}, util::Error);
}

TEST(DataParallel, RejectsTaskGraphCombination) {
  TrainerConfig cfg = dp_config(2, 1);
  cfg.use_taskgraph = true;
  EXPECT_THROW(Trainer{cfg}, util::Error);
}

TEST(DataParallel, RejectsNonPositiveGeometry) {
  TrainerConfig bad_replicas = dp_config(0, 1);
  EXPECT_THROW(Trainer{bad_replicas}, util::Error);
  TrainerConfig bad_accum = dp_config(1, 0);
  EXPECT_THROW(Trainer{bad_accum}, util::Error);
}

}  // namespace
}  // namespace deepphi::core
