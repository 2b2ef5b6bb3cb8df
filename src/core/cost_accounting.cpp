#include "core/cost_accounting.hpp"

#include "data/chunk_stream.hpp"
#include "util/error.hpp"

namespace deepphi::core {

namespace {

using phi::KernelStats;
using phi::epilogue_contribution;
using phi::gemm_contribution;
using phi::loop_contribution;
using phi::naive_gemm_contribution;
using phi::naive_loop_contribution;

// One Optimizer::update call on an n-element parameter (matrix-form levels).
KernelStats optimizer_update(la::Index n, OptimizerKind kind) {
  switch (kind) {
    case OptimizerKind::kSgd: return loop_contribution(n, 2.0, 2.0, 1.0);
    case OptimizerKind::kMomentum: return loop_contribution(n, 4.0, 3.0, 2.0);
    case OptimizerKind::kAdagrad: return loop_contribution(n, 6.0, 3.0, 2.0);
  }
  return {};
}

// --- SAE, matrix form (mirrors SparseAutoencoder::gradient) ---
KernelStats sae_matrix_gradient(const SaeShape& s, bool fused) {
  const la::Index b = s.batch, v = s.visible, h = s.hidden;
  KernelStats k;
  // forward: y = sigmoid(x·W1ᵀ + b1)
  k += gemm_contribution(b, h, v);
  if (fused) {
    k += epilogue_contribution(b * h, 9.0, 0.0);  // bias_sigmoid epilogue
  } else {
    k += naive_loop_contribution(b * h, 1.0, 1, 1);    // add_row_broadcast
    k += naive_loop_contribution(b * h, 400.0, 1, 1);  // sigmoid_inplace (scalar exp)
  }
  // forward: z = sigmoid(y·W2ᵀ + b2)
  k += gemm_contribution(b, v, h);
  if (fused) {
    k += epilogue_contribution(b * v, 9.0, 0.0);
  } else {
    k += naive_loop_contribution(b * v, 1.0, 1, 1);
    k += naive_loop_contribution(b * v, 400.0, 1, 1);
  }
  // cost pieces
  k += loop_contribution(b * h, 1.0, 1.0, 0.0);  // col_mean (via col_sum)
  k += loop_contribution(b * v, 3.0, 2.0, 0.0);  // sum_sq_diff
  k += loop_contribution(h * v, 2.0, 1.0, 0.0);  // nrm2sq(W1)
  k += loop_contribution(v * h, 2.0, 1.0, 0.0);  // nrm2sq(W2)
  k += loop_contribution(h, 12.0, 1.0, 0.0);     // kl_divergence
  // output delta
  if (fused) {
    k += loop_contribution(b * v, 4.0, 2.0, 1.0);  // output_delta
  } else {
    k += naive_loop_contribution(b * v, 1.0, 2, 1);  // sub
    k += naive_loop_contribution(b * v, 3.0, 2, 1);  // dsigmoid_mul
  }
  // W2/b2 gradients
  k += gemm_contribution(v, h, b);
  k += loop_contribution(v * h, 2.0, 2.0, 1.0);  // axpy(λ·W2)
  k += loop_contribution(b * v, 1.0, 1.0, 0.0);  // col_sum
  k += loop_contribution(v, 1.0, 1.0, 1.0);      // scal
  // hidden delta
  k += gemm_contribution(b, h, v);               // delta2·W2
  k += loop_contribution(h, 6.0, 1.0, 1.0);      // sparsity_delta
  if (fused) {
    k += epilogue_contribution(b * h, 4.0, 1.0);  // bias_dsigmoid_mul (reads y)
  } else {
    k += naive_loop_contribution(b * h, 1.0, 1, 1);  // add_row_broadcast
    k += naive_loop_contribution(b * h, 3.0, 2, 1);  // dsigmoid_mul
  }
  // W1/b1 gradients
  k += gemm_contribution(h, v, b);
  k += loop_contribution(h * v, 2.0, 2.0, 1.0);
  k += loop_contribution(b * h, 1.0, 1.0, 0.0);
  k += loop_contribution(h, 1.0, 1.0, 1.0);
  if (s.tied_weights) {
    k += loop_contribution(v * h, 0.0, 1.0, 1.0);  // transpose g_w2
    k += loop_contribution(h * v, 2.0, 2.0, 1.0);  // axpy combine
    k += loop_contribution(h * v, 0.0, 1.0, 1.0);  // transpose back
  }
  return k;
}

// --- SAE, loop form (mirrors sae_gradient_loops) ---
KernelStats sae_loop_gradient(const SaeShape& s) {
  const la::Index b = s.batch, v = s.visible, h = s.hidden;
  KernelStats k;
  k += naive_gemm_contribution(b, h, v);          // matmul_nt
  k += naive_loop_contribution(b * h, 1.0, 1, 1); // add_bias
  k += naive_loop_contribution(b * h, 400.0, 1, 1);  // sigmoid (scalar exp)
  k += naive_gemm_contribution(b, v, h);
  k += naive_loop_contribution(b * v, 1.0, 1, 1);
  k += naive_loop_contribution(b * v, 400.0, 1, 1);
  k += naive_loop_contribution(b * h, 1.0, 1, 0); // col_mean
  k += naive_loop_contribution(b * v, 3.0, 2, 0); // sum_sq_diff
  k += naive_loop_contribution(h * v, 2.0, 1, 0); // nrm2sq(W1)
  k += naive_loop_contribution(v * h, 2.0, 1, 0); // nrm2sq(W2)
  k += naive_loop_contribution(h, 12.0, 1, 0);    // kl
  k += naive_loop_contribution(b * v, 1.0, 2, 1); // sub
  k += naive_loop_contribution(b * v, 3.0, 2, 1); // dsigmoid
  k += naive_gemm_contribution(v, h, b);          // matmul_tn
  k += naive_loop_contribution(v * h, 2.0, 2, 1); // axpy(λW2)
  k += naive_loop_contribution(b * v, 1.0, 1, 0); // col_sum_scaled
  k += naive_gemm_contribution(b, h, v);          // matmul_nn
  k += naive_loop_contribution(h, 6.0, 1, 1);     // sparsity
  k += naive_loop_contribution(b * h, 1.0, 1, 1); // add_bias(sparse)
  k += naive_loop_contribution(b * h, 3.0, 2, 1); // dsigmoid
  k += naive_gemm_contribution(h, v, b);
  k += naive_loop_contribution(h * v, 2.0, 2, 1);
  k += naive_loop_contribution(b * h, 1.0, 1, 0);
  return k;
}

KernelStats sae_loop_update(const SaeShape& s) {
  const la::Index v = s.visible, h = s.hidden;
  KernelStats k;
  k += naive_loop_contribution(h * v, 2.0, 2, 1);
  k += naive_loop_contribution(h, 2.0, 2, 1);
  k += naive_loop_contribution(v * h, 2.0, 2, 1);
  k += naive_loop_contribution(v, 2.0, 2, 1);
  return k;
}

// --- RBM, matrix form (mirrors Rbm::gradient) ---
KernelStats rbm_matrix_gradient(const RbmShape& s, bool fused) {
  const la::Index b = s.batch, v = s.visible, h = s.hidden;
  KernelStats k;
  // positive phase
  k += gemm_contribution(b, h, v);
  if (fused) {
    k += loop_contribution(b * h, 20.0, 1.0, 2.0);  // bias_sigmoid_sample
  } else {
    k += naive_loop_contribution(b * h, 1.0, 1, 1);
    k += naive_loop_contribution(b * h, 400.0, 1, 1);
    k += naive_loop_contribution(b * h, 100.0, 1, 1);  // sample (scalar RNG)
  }
  // Gibbs chain
  for (int step = 0; step < s.cd_k; ++step) {
    k += gemm_contribution(b, v, h);  // v2 pre-activation
    if (s.gaussian_visible) {
      if (fused) {
        k += epilogue_contribution(b * v, 1.0, 0.0);  // bias_add epilogue
      } else {
        k += loop_contribution(b * v, 1.0, 1.0, 1.0);  // add_row_broadcast_vec
      }
      if (s.sample_visible) k += loop_contribution(b * v, 15.0, 1.0, 1.0);
    } else {
      if (fused) {
        k += epilogue_contribution(b * v, 9.0, 0.0);
      } else {
        k += naive_loop_contribution(b * v, 1.0, 1, 1);
        k += naive_loop_contribution(b * v, 400.0, 1, 1);
      }
      if (s.sample_visible) k += naive_loop_contribution(b * v, 100.0, 1, 1);
    }

    k += gemm_contribution(b, h, v);  // h2 pre-activation
    if (step + 1 < s.cd_k) {
      if (fused) {
        k += loop_contribution(b * h, 20.0, 1.0, 2.0);
      } else {
        k += naive_loop_contribution(b * h, 1.0, 1, 1);
        k += naive_loop_contribution(b * h, 400.0, 1, 1);
        k += naive_loop_contribution(b * h, 100.0, 1, 1);
      }
    } else {
      if (fused) {
        k += epilogue_contribution(b * h, 9.0, 0.0);
      } else {
        k += naive_loop_contribution(b * h, 1.0, 1, 1);
        k += naive_loop_contribution(b * h, 400.0, 1, 1);
      }
    }
  }
  // statistics
  k += gemm_contribution(h, v, b);  // positive
  k += gemm_contribution(h, v, b);  // negative
  k += loop_contribution(b * v, 1.0, 1.0, 0.0);  // col_sum(v1)
  k += loop_contribution(b * v, 1.0, 1.0, 0.0);  // col_sum(v2)
  k += loop_contribution(v, 2.0, 2.0, 1.0);      // axpy
  k += loop_contribution(v, 1.0, 1.0, 1.0);      // scal
  k += loop_contribution(b * h, 1.0, 1.0, 0.0);  // col_sum(h1)
  k += loop_contribution(b * h, 1.0, 1.0, 0.0);  // col_sum(h2)
  k += loop_contribution(h, 2.0, 2.0, 1.0);
  k += loop_contribution(h, 1.0, 1.0, 1.0);
  k += loop_contribution(b * v, 3.0, 2.0, 0.0);  // recon error
  return k;
}

// --- RBM, Fig. 6 task graph (mirrors RbmTaskGraphStep) ---
KernelStats rbm_taskgraph_gradient(const RbmShape& s) {
  const la::Index b = s.batch, v = s.visible, h = s.hidden;
  KernelStats k;
  k += loop_contribution(b * v, 1.0, 1.0, 0.0);   // gb_pos
  k += gemm_contribution(b, h, v);                // h1 gemm
  k += loop_contribution(b * h, 20.0, 1.0, 2.0);  // h1 bias_sigmoid_sample
  k += gemm_contribution(h, v, b);                // gw_pos
  k += loop_contribution(b * h, 1.0, 1.0, 0.0);   // gc_pos
  k += gemm_contribution(b, v, h);                // v2 gemm
  k += epilogue_contribution(b * v, 9.0, 0.0);    // v2 bias_sigmoid epilogue
  k += loop_contribution(b * v, 1.0, 1.0, 0.0);   // gb_neg
  k += loop_contribution(b * v, 3.0, 2.0, 0.0);   // recon
  k += gemm_contribution(b, h, v);                // h2 gemm
  k += epilogue_contribution(b * h, 9.0, 0.0);    // h2 bias_sigmoid epilogue
  k += gemm_contribution(h, v, b);                // gw_neg
  k += loop_contribution(b * h, 1.0, 1.0, 0.0);   // gc_neg
  // combine: axpy+scal per parameter
  k += loop_contribution(h * v, 2.0, 2.0, 1.0);
  k += loop_contribution(h * v, 1.0, 1.0, 1.0);
  k += loop_contribution(v, 2.0, 2.0, 1.0);
  k += loop_contribution(v, 1.0, 1.0, 1.0);
  k += loop_contribution(h, 2.0, 2.0, 1.0);
  k += loop_contribution(h, 1.0, 1.0, 1.0);
  return k;
}

// --- RBM, loop form (mirrors rbm_gradient_loops) ---
KernelStats rbm_loop_gradient(const RbmShape& s) {
  const la::Index b = s.batch, v = s.visible, h = s.hidden;
  KernelStats k;
  k += naive_gemm_contribution(b, h, v);
  k += naive_loop_contribution(b * h, 1.0, 1, 1);
  k += naive_loop_contribution(b * h, 400.0, 1, 1);
  k += naive_loop_contribution(b * h, 100.0, 1, 1);  // sample
  for (int step = 0; step < s.cd_k; ++step) {
    k += naive_gemm_contribution(b, v, h);
    k += naive_loop_contribution(b * v, 1.0, 1, 1);
    k += naive_loop_contribution(b * v, 400.0, 1, 1);
    if (s.sample_visible) k += naive_loop_contribution(b * v, 100.0, 1, 1);
    k += naive_gemm_contribution(b, h, v);
    k += naive_loop_contribution(b * h, 1.0, 1, 1);
    k += naive_loop_contribution(b * h, 400.0, 1, 1);
    if (step + 1 < s.cd_k) k += naive_loop_contribution(b * h, 100.0, 1, 1);
  }
  k += naive_gemm_contribution(h, v, b);  // matmul_tn_acc (pos)
  k += naive_gemm_contribution(h, v, b);  // matmul_tn_acc (neg)
  k += naive_loop_contribution(b * v, 1.0, 1, 0);
  k += naive_loop_contribution(b * v, 1.0, 1, 0);
  k += naive_loop_contribution(v, 2.0, 2, 1);  // diff_scale
  k += naive_loop_contribution(b * h, 1.0, 1, 0);
  k += naive_loop_contribution(b * h, 1.0, 1, 0);
  k += naive_loop_contribution(h, 2.0, 2, 1);
  k += naive_loop_contribution(b * v, 3.0, 2, 0);  // recon
  return k;
}

KernelStats rbm_loop_update(const RbmShape& s) {
  KernelStats k;
  k += naive_loop_contribution(s.hidden * s.visible, 2.0, 2, 1);
  k += naive_loop_contribution(s.visible, 2.0, 2, 1);
  k += naive_loop_contribution(s.hidden, 2.0, 2, 1);
  return k;
}

// Update work of one step: one Optimizer::update per parameter buffer on the
// matrix-form levels (`buffers` in update order), the SGD loops otherwise.
KernelStats matrix_update(const std::vector<la::Index>& buffers,
                          OptimizerKind opt) {
  KernelStats k;
  for (const la::Index n : buffers) k += optimizer_update(n, opt);
  return k;
}

std::vector<la::Index> sae_buffers(const SaeShape& s) {
  return {s.hidden * s.visible, s.hidden, s.visible * s.hidden, s.visible};
}

std::vector<la::Index> rbm_buffers(const RbmShape& s) {
  return {s.hidden * s.visible, s.visible, s.hidden};
}

// The one replay of Trainer's loop: per chunk (up to run.chunk rows of the
// epoch) `on_chunk(rows)`, then per group of up to S·batch rows
// `on_group(shards)` with the slot shards exactly as the trainer computes
// them (data::shard_rows over S).
template <typename ChunkFn, typename GroupFn>
void walk_train(const TrainShape& run, ChunkFn&& on_chunk,
                GroupFn&& on_group) {
  DEEPPHI_CHECK_MSG(run.examples >= 1 && run.batch >= 1 &&
                        run.chunk >= run.batch && run.slots >= 1,
                    "bad TrainShape");
  const la::Index group_capacity =
      static_cast<la::Index>(run.slots) * run.batch;
  for (int epoch = 0; epoch < run.epochs; ++epoch) {
    for (la::Index begin = 0; begin < run.examples; begin += run.chunk) {
      const la::Index chunk_rows = std::min(run.chunk, run.examples - begin);
      on_chunk(chunk_rows);
      for (la::Index b0 = 0; b0 < chunk_rows; b0 += group_capacity)
        on_group(data::shard_rows(std::min(group_capacity, chunk_rows - b0),
                                  run.slots));
    }
  }
}

// Full-run stats: each chunk's h2d transfer of `dim`-float rows, then per
// group one `gradient(rows)` per live slot, the tree combine over `buffers`
// and the step's `update`.
template <typename GradFn>
KernelStats replay_train(const TrainShape& run, la::Index dim,
                         const std::vector<la::Index>& buffers,
                         const KernelStats& update, GradFn&& gradient) {
  KernelStats k;
  walk_train(
      run,
      [&](la::Index rows) {
        k += phi::h2d_contribution(4.0 * static_cast<double>(rows) *
                                   static_cast<double>(dim));
      },
      [&](const std::vector<data::RowShard>& shards) {
        KernelStats step;
        int live = 0;
        for (const data::RowShard& shard : shards)
          if (shard.rows > 0) {
            step += gradient(shard.rows);
            ++live;
          }
        step += dp_combine_stats(buffers, live);
        step += update;
        k += step;
      });
  return k;
}

}  // namespace

phi::KernelStats sae_gradient_stats(const SaeShape& shape, OptLevel level) {
  DEEPPHI_CHECK_MSG(!shape.tied_weights || is_matrix_form(level),
                    "tied weights are matrix-form only");
  return is_matrix_form(level) ? sae_matrix_gradient(shape, is_fused(level))
                               : sae_loop_gradient(shape);
}

phi::KernelStats rbm_gradient_stats(const RbmShape& shape, OptLevel level,
                                    bool taskgraph) {
  DEEPPHI_CHECK_MSG(!shape.gaussian_visible || is_matrix_form(level),
                    "Gaussian visibles are matrix-form only");
  DEEPPHI_CHECK_MSG(!shape.gaussian_visible || !taskgraph,
                    "the Fig. 6 graph models the binary RBM");
  DEEPPHI_CHECK_MSG(!taskgraph || is_matrix_form(level),
                    "task graph requires a matrix-form level");
  if (taskgraph) return rbm_taskgraph_gradient(shape);
  return is_matrix_form(level) ? rbm_matrix_gradient(shape, is_fused(level))
                               : rbm_loop_gradient(shape);
}

phi::KernelStats sae_batch_stats(const SaeShape& shape, OptLevel level,
                                 OptimizerKind opt) {
  return sae_gradient_stats(shape, level) +
         (is_matrix_form(level) ? matrix_update(sae_buffers(shape), opt)
                                : sae_loop_update(shape));
}

phi::KernelStats rbm_batch_stats(const RbmShape& shape, OptLevel level,
                                 OptimizerKind opt, bool taskgraph) {
  return rbm_gradient_stats(shape, level, taskgraph) +
         (is_matrix_form(level) ? matrix_update(rbm_buffers(shape), opt)
                                : rbm_loop_update(shape));
}

phi::KernelStats optimizer_update_stats(la::Index n, OptimizerKind kind) {
  return optimizer_update(n, kind);
}

phi::KernelStats dp_combine_stats(const std::vector<la::Index>& buffer_sizes,
                                  int live_slots) {
  DEEPPHI_CHECK_MSG(live_slots >= 1, "live_slots must be >= 1");
  KernelStats k;
  if (live_slots == 1) return k;
  for (const la::Index n : buffer_sizes) {
    for (int edge = 0; edge < live_slots - 1; ++edge)
      k += loop_contribution(n, 2.0, 2.0, 1.0);  // tree axpy
    k += loop_contribution(n, 1.0, 1.0, 1.0);    // mean scal
  }
  return k;
}

phi::KernelStats sae_train_stats(const TrainShape& run, const SaeShape& shape,
                                 OptLevel level, OptimizerKind opt) {
  DEEPPHI_CHECK_MSG(run.slots == 1 || is_matrix_form(level),
                    "S > 1 requires a matrix-form level");
  const std::vector<la::Index> buffers = sae_buffers(shape);
  const KernelStats update = is_matrix_form(level)
                                 ? matrix_update(buffers, opt)
                                 : sae_loop_update(shape);
  return replay_train(run, shape.visible, buffers, update,
                      [&](la::Index rows) {
                        SaeShape s = shape;
                        s.batch = rows;
                        return sae_gradient_stats(s, level);
                      });
}

phi::KernelStats rbm_train_stats(const TrainShape& run, const RbmShape& shape,
                                 OptLevel level, OptimizerKind opt,
                                 bool taskgraph) {
  DEEPPHI_CHECK_MSG(run.slots == 1 || (is_matrix_form(level) && !taskgraph),
                    "S > 1 requires a matrix-form level and no task graph");
  const std::vector<la::Index> buffers = rbm_buffers(shape);
  const KernelStats update = is_matrix_form(level)
                                 ? matrix_update(buffers, opt)
                                 : rbm_loop_update(shape);
  return replay_train(run, shape.visible, buffers, update,
                      [&](la::Index rows) {
                        RbmShape s = shape;
                        s.batch = rows;
                        return rbm_gradient_stats(s, level, taskgraph);
                      });
}

TrainCounts train_counts(const TrainShape& run) {
  TrainCounts counts;
  walk_train(
      run, [&](la::Index) { ++counts.chunks; },
      [&](const std::vector<data::RowShard>& shards) {
        ++counts.updates;
        for (const data::RowShard& shard : shards)
          if (shard.rows > 0) ++counts.batches;
      });
  return counts;
}

phi::KernelStats quant_encode_stats(la::Index batch, la::Index inputs,
                                    la::Index units) {
  KernelStats k;
  // QuantizedActivations::quantize: range scan + code loop.
  k += loop_contribution(batch * inputs, 4.0, 1.0, 0.25);
  // la::quant::encode_sigmoid: int8 GEMM + fused a_scale epilogue.
  k += gemm_contribution(batch, units, inputs);
  k += epilogue_contribution(batch * units, 1.0, 0.0);
  // la::bias_sigmoid over the output.
  k += loop_contribution(batch * units, 9.0, 1.0, 1.0);
  return k;
}

phi::KernelStats quant_encode_stats(la::Index batch,
                                    const std::vector<la::Index>& dims) {
  DEEPPHI_CHECK_MSG(dims.size() >= 2,
                    "quantized chain needs >= 2 dims, got " << dims.size());
  KernelStats k;
  for (std::size_t i = 0; i + 1 < dims.size(); ++i)
    k += quant_encode_stats(batch, dims[i], dims[i + 1]);
  return k;
}

phi::KernelStats cluster_card_combine_stats(
    const std::vector<la::Index>& buffer_sizes, int card_live_slots,
    int global_live_slots, bool root, OptimizerKind opt) {
  DEEPPHI_CHECK_MSG(card_live_slots >= 0, "negative live slot count");
  DEEPPHI_CHECK_MSG(global_live_slots >= card_live_slots,
                    "card has more live slots than the whole step");
  KernelStats k;
  for (const la::Index n : buffer_sizes) {
    for (int edge = 0; edge < card_live_slots - 1; ++edge)
      k += loop_contribution(n, 2.0, 2.0, 1.0);  // local tree axpy
    if (root) {
      if (global_live_slots > 1)
        k += loop_contribution(n, 1.0, 1.0, 1.0);  // mean scal
      k += optimizer_update(n, opt);
    }
  }
  return k;
}

ClusterCommReplay cluster_comm_replay(const TrainShape& run, int cards,
                                      double message_bytes,
                                      par::Collective algorithm,
                                      const phi::InterconnectSpec& link) {
  DEEPPHI_CHECK_MSG(algorithm != par::Collective::kAuto,
                    "cluster_comm_replay needs a concrete algorithm "
                    "(resolve_collective first)");
  DEEPPHI_CHECK_MSG(cards >= 1, "cards must be >= 1");
  ClusterCommReplay replay;
  if (cards == 1) return replay;  // nothing crosses a link
  const std::int64_t updates = train_counts(run).updates;
  const par::CollectiveSchedule sched =
      par::all_reduce_schedule(algorithm, message_bytes, cards);
  replay.seconds = static_cast<double>(updates) * sched.time_s(link);
  replay.wire_bytes = static_cast<double>(updates) * sched.wire_bytes;
  replay.rounds = updates * sched.rounds;
  replay.collectives = updates;
  return replay;
}

}  // namespace deepphi::core
