// Analytic ("model mode") work accounting: produces the KernelStats a
// training run WOULD record, without executing it. This is what lets the
// benches evaluate paper-scale configurations (e.g. a 4096×16384 autoencoder
// over 10⁶ examples) that would take hours to execute functionally on the
// build machine.
//
// Every function here replays, contribution by contribution, the exact
// kernel sequence of the corresponding real code path (sparse_autoencoder /
// autoencoder_loops / rbm / rbm_loops / rbm_taskgraph / trainer). The
// model==measure property tests pin this equality at small sizes; if you
// change a kernel sequence, change its replay here and the tests will tell
// you whether you got it right.
#pragma once

#include <vector>

#include "core/levels.hpp"
#include "core/optimizer.hpp"
#include "la/matrix.hpp"
#include "parallel/collectives.hpp"
#include "phi/kernel_stats.hpp"

namespace deepphi::core {

struct SaeShape {
  la::Index batch = 0;
  la::Index visible = 0;
  la::Index hidden = 0;
  bool tied_weights = false;  // matrix-form only
};

struct RbmShape {
  la::Index batch = 0;
  la::Index visible = 0;
  la::Index hidden = 0;
  int cd_k = 1;
  bool sample_visible = false;
  bool gaussian_visible = false;  // VisibleType::kGaussian
};

/// Work of one SAE gradient + parameter update at the given ladder level.
phi::KernelStats sae_batch_stats(const SaeShape& shape, OptLevel level,
                                 OptimizerKind opt = OptimizerKind::kSgd);

/// Work of one RBM CD-k gradient + update. `taskgraph` selects the Fig. 6
/// step (matrix-form, cd_k == 1 only).
phi::KernelStats rbm_batch_stats(const RbmShape& shape, OptLevel level,
                                 OptimizerKind opt = OptimizerKind::kSgd,
                                 bool taskgraph = false);

/// Gradient-only work of one micro-batch — the per-slot work of a training
/// step (the update is applied once per S slots, not once per slot).
phi::KernelStats sae_gradient_stats(const SaeShape& shape, OptLevel level);
phi::KernelStats rbm_gradient_stats(const RbmShape& shape, OptLevel level,
                                    bool taskgraph = false);

/// Work of one Optimizer::update call on an n-element parameter buffer
/// (matrix-form levels).
phi::KernelStats optimizer_update_stats(la::Index n, OptimizerKind kind);

/// Combine work of one step with `live_slots` non-empty gradient slots over
/// the model's gradient buffers (element counts in `buffer_sizes`): live−1
/// axpy contributions per buffer (the binary tree) plus one mean scal per
/// buffer. Zero work when live_slots == 1, so the S == 1 step is exactly
/// gradient + update.
phi::KernelStats dp_combine_stats(const std::vector<la::Index>& buffer_sizes,
                                  int live_slots);

/// How a training run is shaped: dataset size, batch, chunking, passes, and
/// the gradient slots per update, S = replicas × accumulation_steps × cards.
/// Only S matters to the work: the trainer combines the slots with one flat
/// tree whatever the factorization (docs/cluster.md).
struct TrainShape {
  la::Index examples = 0;
  la::Index batch = 1000;
  la::Index chunk = 10000;
  int epochs = 1;
  int slots = 1;
};

/// Full-run stats (chunk h2d transfers + every step), replaying Trainer's
/// chunk / group / shard structure exactly: ragged chunk tails, empty slots,
/// the tree combine and one update per group of up to S·batch rows.
/// S > 1 requires a matrix-form level and no task graph, as in the trainer.
phi::KernelStats sae_train_stats(const TrainShape& run, const SaeShape& shape,
                                 OptLevel level,
                                 OptimizerKind opt = OptimizerKind::kSgd);
phi::KernelStats rbm_train_stats(const TrainShape& run, const RbmShape& shape,
                                 OptLevel level,
                                 OptimizerKind opt = OptimizerKind::kSgd,
                                 bool taskgraph = false);

/// What a run performs, counted by the same replay.
struct TrainCounts {
  std::int64_t chunks = 0;   // chunk transfers
  std::int64_t batches = 0;  // micro-batch gradient evaluations
  std::int64_t updates = 0;  // optimizer updates (one per slot group)
};
TrainCounts train_counts(const TrainShape& run);

// --- cluster accounting (docs/cluster.md) ---

/// One card's share of a global step's combine under the cluster charging
/// model: the card folds its own live slots with a local tree (live−1 axpy
/// contributions per buffer); the root card additionally applies the mean
/// scal (when any combining happened globally) and the optimizer update
/// after the inter-card all-reduce. Summed over cards plus the collective's
/// data movement, this accounts for the same reduction the flat tree runs.
phi::KernelStats cluster_card_combine_stats(
    const std::vector<la::Index>& buffer_sizes, int card_live_slots,
    int global_live_slots, bool root, OptimizerKind opt);

/// Modeled interconnect activity of a full run over `cards` cards (run.slots
/// counts the global slots): one all-reduce of `message_bytes` per optimizer
/// update, under `algorithm`'s schedule on `link`. Pinned equal to
/// phi::Cluster's measured accumulation by tests/cluster_test.cpp.
struct ClusterCommReplay {
  double seconds = 0;
  double wire_bytes = 0;
  std::int64_t rounds = 0;
  std::int64_t collectives = 0;
};
ClusterCommReplay cluster_comm_replay(const TrainShape& run, int cards,
                                      double message_bytes,
                                      par::Collective algorithm,
                                      const phi::InterconnectSpec& link);

// --- quantized inference accounting (docs/serving.md "Precision") ---

/// Work of one quantized layer forward on a batch — the exact contribution
/// sequence of la::quant: activation quantize loop, int8 GEMM with the fused
/// a_scale epilogue, then the bias_sigmoid pass.
phi::KernelStats quant_encode_stats(la::Index batch, la::Index inputs,
                                    la::Index units);

/// QuantizedEncoder::encode over a layer chain, dims = {input, h1, h2, ...}.
phi::KernelStats quant_encode_stats(la::Index batch,
                                    const std::vector<la::Index>& dims);

}  // namespace deepphi::core
