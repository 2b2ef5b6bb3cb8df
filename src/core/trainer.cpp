#include "core/trainer.hpp"

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/autoencoder_loops.hpp"
#include "core/cost_accounting.hpp"
#include "core/rbm_loops.hpp"
#include "core/rbm_taskgraph.hpp"
#include "data/chunk_stream.hpp"
#include "la/blas1.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/telemetry.hpp"
#include "parallel/replica_group.hpp"
#include "phi/cluster.hpp"
#include "phi/interconnect.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace deepphi::core {

namespace {

// Copies rows [begin, begin+count) of `chunk` into the reusable batch buffer.
// Host-side staging (pointer bookkeeping on the real device), so it is not
// recorded as kernel work.
void slice_batch(const la::Matrix& chunk, la::Index begin, la::Index count,
                 la::Matrix& batch) {
  if (batch.rows() != count || batch.cols() != chunk.cols())
    batch = la::Matrix::uninitialized(count, chunk.cols());
  std::memcpy(batch.data(), chunk.row(begin),
              sizeof(float) * static_cast<std::size_t>(count * chunk.cols()));
}

/// What one chunk of training produced.
struct ChunkOutcome {
  double cost_sum = 0;       // Σ of per-micro-batch costs over the chunk
  std::int64_t batches = 0;  // micro-batch gradient evaluations
  std::int64_t updates = 0;  // optimizer steps applied
  double final_cost = 0;     // cost of the chunk's last micro-batch

  // Cluster charging (populated only when config.cluster drives the run):
  // per-card modeled compute and shard-transfer bytes for the chunk, plus
  // the chunk's accumulated collective schedule on the interconnect.
  std::vector<phi::KernelStats> card_stats;
  std::vector<double> card_h2d_bytes;
  double comm_seconds = 0;
  double comm_wire_bytes = 0;
  std::int64_t comm_rounds = 0;
  std::int64_t comm_collectives = 0;
};

// RAII over the arena reservations of a monitored run: each device (the one
// card, or every card of a cluster) reserves the model + gradients, the
// workspace and its share of the chunk ring — the paper's "keep all the
// parameters ... in our global memory permanently" as a real constraint.
class ArenaReservation {
 public:
  ArenaReservation(const std::vector<phi::Device*>& devices,
                   double model_bytes, double workspace_bytes,
                   double ring_bytes) {
    try {
      for (phi::Device* dev : devices) {
        ids_.emplace_back(dev, dev->alloc("model+gradients", model_bytes));
        ids_.emplace_back(dev, dev->alloc("workspace", workspace_bytes));
        ids_.emplace_back(dev, dev->alloc("chunk-ring", ring_bytes));
      }
    } catch (...) {
      // A partially constructed object gets no destructor call: release
      // whatever was reserved before the OOM, then rethrow.
      release();
      throw;
    }
  }
  ~ArenaReservation() { release(); }
  ArenaReservation(const ArenaReservation&) = delete;
  ArenaReservation& operator=(const ArenaReservation&) = delete;

 private:
  void release() {
    for (const auto& [dev, id] : ids_) dev->free(id);
    ids_.clear();
  }

  std::vector<std::pair<phi::Device*, phi::Device::BufferId>> ids_;
};

using ChunkFn = std::function<ChunkOutcome(const la::Matrix&)>;

// Algorithm 1's outer structure: pop a chunk from the Fig. 5 ring, record
// its h2d transfer, time it, drive the simulated device (or cluster)
// timeline, emit per-chunk/epoch/run telemetry, apply the stop conditions.
// `process(chunk)` performs the chunk's gradient work inside a StatsScope
// that captures the chunk's KernelStats. `model_bytes` / `workspace_bytes`
// size the device-arena reservation — PER CARD when config.cluster drives
// the run, whole-run otherwise.
TrainReport run_chunks(const TrainerConfig& config,
                       const data::StreamingSource& dataset, la::Index dim,
                       double model_bytes, double workspace_bytes,
                       const ChunkFn& process) {
  DEEPPHI_PROFILE_SCOPE("trainer.run");
  DEEPPHI_CHECK_MSG(dataset.dim() == dim,
                    "dataset dim " << dataset.dim() << " != model visible "
                                   << dim);
  DEEPPHI_CHECK_MSG(!dataset.empty(), "empty dataset");
  DEEPPHI_CHECK_MSG(!(config.device && config.cluster),
                    "config.device and config.cluster are mutually exclusive "
                    "(a cluster owns its per-card devices)");
  phi::Cluster* cluster = config.cluster;
  if (cluster)
    DEEPPHI_CHECK_MSG(cluster->cards() == config.cards,
                      "config.cards (" << config.cards
                                       << ") != cluster cards ("
                                       << cluster->cards() << ")");

  TrainReport report;
  report.chunk_bytes = 4.0 * static_cast<double>(config.chunk_examples) * dim;
  util::Timer timer;
  phi::StatsScope scope(report.stats);

  // Each card of a cluster holds its 1/cards share of the chunk ring (the
  // loading thread scatters each chunk's shards to the cards owning them).
  phi::Device* device = config.device;
  std::vector<phi::Device*> arena_devices;
  if (device) arena_devices.push_back(device);
  for (int c = 0; cluster && c < cluster->cards(); ++c)
    arena_devices.push_back(&cluster->device(c));
  const double ring_bytes = static_cast<double>(config.ring_chunks) *
                            report.chunk_bytes / (cluster ? config.cards : 1);
  ArenaReservation reservation(arena_devices, model_bytes, workspace_bytes,
                               ring_bytes);
  const bool async_loading = config.policy == ExecPolicy::kPhiOffload;
  std::vector<double> slot_free(config.ring_chunks, 0.0);
  double last_compute_end = 0.0;

  bool stop = false;
  for (int epoch = 0; epoch < config.epochs && !stop; ++epoch) {
    data::ChunkStreamConfig stream_cfg;
    stream_cfg.chunk_examples = config.chunk_examples;
    stream_cfg.background = async_loading;
    stream_cfg.ring_chunks = config.ring_chunks;
    stream_cfg.shuffle_window = config.shuffle_window;
    // A fresh shuffle per epoch, derived only from (config.seed, epoch), so
    // the visit order is bitwise-reproducible across backings, slot
    // factorizations, and resumed runs.
    stream_cfg.shuffle_seed =
        config.seed ^ (0x9e3779b97f4a7c15ULL *
                       (static_cast<std::uint64_t>(epoch) + 1));
    data::ChunkStream stream(dataset, stream_cfg);
    const std::int64_t epoch_first_chunk = report.chunks;
    const double epoch_start_s = timer.seconds();

    while (!stop) {
      auto chunk = stream.next();
      if (!chunk) break;
      DEEPPHI_PROFILE_SCOPE("trainer.chunk");
      // How far ahead the Fig. 5 loading thread is right after this pop.
      const std::size_t ring_buffered = stream.buffered();
      static obs::Gauge& ring_gauge = obs::gauge("train.ring_buffered");
      ring_gauge.set(static_cast<double>(ring_buffered));
      util::Timer chunk_timer;
      // The chunk crosses the host→device link (Fig. 5). Its ring slot is
      // free once the chunk that last used it has been trained; without the
      // loading thread, the load also waits for the previous chunk.
      const double chunk_bytes = 4.0 * static_cast<double>(chunk->size());
      phi::record(phi::h2d_contribution(chunk_bytes));
      const std::string label = "chunk[" + std::to_string(report.chunks) + "]";
      const std::size_t ring_slot =
          static_cast<std::size_t>(report.chunks) % config.ring_chunks;
      double ready = slot_free[ring_slot];
      if (!async_loading) ready = std::max(ready, last_compute_end);
      double transfer_end = 0.0;
      if (device)
        transfer_end =
            device->submit_transfer(label + " h2d", chunk_bytes, ready);

      ChunkOutcome outcome;
      phi::KernelStats chunk_stats;
      {
        phi::StatsScope chunk_scope(chunk_stats);
        outcome = process(*chunk);
      }
      phi::record(chunk_stats);  // merge the chunk's work into report.stats
      stream.recycle(std::move(*chunk));  // buffer returns to the decode pool
      report.final_cost = outcome.final_cost;
      if (device || cluster) {
        // A cluster's cards each DMA their shards and compute their share,
        // then the chunk's collectives occupy the interconnect; the step
        // barrier frees the ring slot.
        const double step_end =
            device ? device->submit_compute(label + " train", chunk_stats,
                                            transfer_end)
                   : cluster->submit_step(
                         label, outcome.card_stats, outcome.card_h2d_bytes,
                         outcome.comm_seconds, outcome.comm_wire_bytes,
                         outcome.comm_rounds, outcome.comm_collectives, ready);
        slot_free[ring_slot] = step_end;
        last_compute_end = step_end;
      }

      report.batches += outcome.batches;
      report.updates += outcome.updates;
      static obs::Counter& batches_counter = obs::counter("train.batches");
      batches_counter.add(outcome.batches);
      const double chunk_wall_s = chunk_timer.seconds();
      report.chunk_wall_seconds.push_back(chunk_wall_s);
      const double chunk_mean =
          outcome.cost_sum / static_cast<double>(outcome.batches);
      report.chunk_mean_costs.push_back(chunk_mean);
      if (config.telemetry) {
        using obs::TelemetryField;
        config.telemetry->emit(
            "chunk",
            {TelemetryField::integer("chunk", report.chunks),
             TelemetryField::integer("epoch", epoch),
             TelemetryField::integer("batches", outcome.batches),
             TelemetryField::num("mean_cost", chunk_mean),
             TelemetryField::num("wall_s", chunk_wall_s),
             TelemetryField::num("batches_per_s",
                                 chunk_wall_s > 0
                                     ? static_cast<double>(outcome.batches) /
                                           chunk_wall_s
                                     : 0.0),
             TelemetryField::num("gflops_per_s",
                                 chunk_wall_s > 0
                                     ? chunk_stats.total_flops() / chunk_wall_s /
                                           1e9
                                     : 0.0),
             TelemetryField::integer(
                 "ring_buffered", static_cast<std::int64_t>(ring_buffered))});
      }
      ++report.chunks;
      // Algorithm 1's stop condition.
      if (config.target_cost > 0 && chunk_mean <= config.target_cost)
        stop = true;
      if (config.max_batches > 0 && report.batches >= config.max_batches)
        stop = true;
    }

    report.load_stall_seconds += stream.consumer_wait_seconds();

    if (config.telemetry) {
      using obs::TelemetryField;
      const std::int64_t epoch_chunks = report.chunks - epoch_first_chunk;
      double epoch_cost = 0;
      for (std::int64_t k = epoch_first_chunk; k < report.chunks; ++k)
        epoch_cost += report.chunk_mean_costs[static_cast<std::size_t>(k)];
      config.telemetry->emit(
          "epoch",
          {TelemetryField::integer("epoch", epoch),
           TelemetryField::integer("chunks", epoch_chunks),
           TelemetryField::num("mean_cost",
                               epoch_chunks > 0
                                   ? epoch_cost /
                                         static_cast<double>(epoch_chunks)
                                   : 0.0),
           TelemetryField::num("wall_s", timer.seconds() - epoch_start_s)});
    }
  }

  report.wall_seconds = timer.seconds();
  if (config.telemetry) {
    using obs::TelemetryField;
    // Fraction of the run's wall time NOT spent waiting on the data
    // pipeline: 1.0 = loading fully overlapped compute (Fig. 5's goal).
    const double overlap =
        report.wall_seconds > 0
            ? std::clamp(1.0 - report.load_stall_seconds / report.wall_seconds,
                         0.0, 1.0)
            : 0.0;
    config.telemetry->emit_metrics(
        "run_summary",
        {TelemetryField::integer("chunks", report.chunks),
         TelemetryField::integer("batches", report.batches),
         TelemetryField::num("final_cost", report.final_cost),
         TelemetryField::num("wall_s", report.wall_seconds),
         TelemetryField::num("gflops_per_s",
                             report.wall_seconds > 0
                                 ? report.stats.total_flops() /
                                       report.wall_seconds / 1e9
                                 : 0.0),
         TelemetryField::num("load_stall_s", report.load_stall_seconds),
         TelemetryField::num("overlap_efficiency", overlap)});
  }
  return report;
}

// Model-specific hooks of the S-slot step. Each Ops type binds one building
// block's gradient (picked by the Table I level: matrix form fused or
// unfused, loop form, or the Fig. 6 task graph), gradient-buffer combine,
// and parameter update (Optimizer on the matrix-form levels, plain SGD
// loops on the loop-form ones, matching the paper's unoptimized code).
class SaeOps {
 public:
  using Model = SparseAutoencoder;
  using Grads = AeGradients;

  SaeOps(const TrainerConfig& config, SparseAutoencoder& model)
      : model_(model), level_(config.level), optimizer_(config.optimizer) {}

  double gradient(const la::Matrix& batch, Model::Workspace& ws, Grads& g,
                  const util::Rng&) {
    if (is_matrix_form(level_))
      return model_.gradient(batch, ws, g, is_fused(level_));
    return sae_gradient_loops(model_, batch, ws, g,
                              level_ == OptLevel::kOpenMp);
  }
  void update(const Grads& g) {
    if (!is_matrix_form(level_)) {
      sae_apply_update_loops(model_, g, optimizer_.config().lr,
                             level_ == OptLevel::kOpenMp);
      return;
    }
    optimizer_.update(model_.w1(), g.g_w1);
    optimizer_.update(model_.b1(), g.g_b1);
    optimizer_.update(model_.w2(), g.g_w2);
    optimizer_.update(model_.b2(), g.g_b2);
    optimizer_.end_step();
  }
  static void combine(Grads& dst, const Grads& src) {
    la::axpy(1.0f, src.g_w1, dst.g_w1);
    la::axpy(1.0f, src.g_b1, dst.g_b1);
    la::axpy(1.0f, src.g_w2, dst.g_w2);
    la::axpy(1.0f, src.g_b2, dst.g_b2);
  }
  static void scale(Grads& g, float alpha) {
    la::scal(alpha, g.g_w1);
    la::scal(alpha, g.g_b1);
    la::scal(alpha, g.g_w2);
    la::scal(alpha, g.g_b2);
  }
  std::vector<la::Index> buffer_sizes() const {
    return {model_.w1().size(), model_.b1().size(), model_.w2().size(),
            model_.b2().size()};
  }

 private:
  SparseAutoencoder& model_;
  OptLevel level_;
  Optimizer optimizer_;
};

class RbmOps {
 public:
  using Model = Rbm;
  using Grads = RbmGradients;

  RbmOps(const TrainerConfig& config, Rbm& model)
      : model_(model), level_(config.level), optimizer_(config.optimizer) {
    if (config.use_taskgraph) {
      pool_ = std::make_unique<par::ThreadPool>(
          static_cast<unsigned>(config.taskgraph_threads));
      graph_step_ = std::make_unique<RbmTaskGraphStep>(model, *pool_);
    }
  }

  double gradient(const la::Matrix& batch, Model::Workspace& ws, Grads& g,
                  const util::Rng& rng) {
    if (graph_step_) return graph_step_->run(batch, ws, g, rng);
    if (is_matrix_form(level_))
      return model_.gradient(batch, ws, g, rng, is_fused(level_));
    return rbm_gradient_loops(model_, batch, ws, g, rng,
                              level_ == OptLevel::kOpenMp);
  }
  void update(const Grads& g) {
    if (!is_matrix_form(level_)) {
      rbm_apply_update_loops(model_, g, optimizer_.config().lr,
                             level_ == OptLevel::kOpenMp);
      return;
    }
    optimizer_.update(model_.w(), g.g_w);
    optimizer_.update(model_.b(), g.g_b);
    optimizer_.update(model_.c(), g.g_c);
    optimizer_.end_step();
  }
  static void combine(Grads& dst, const Grads& src) {
    la::axpy(1.0f, src.g_w, dst.g_w);
    la::axpy(1.0f, src.g_b, dst.g_b);
    la::axpy(1.0f, src.g_c, dst.g_c);
  }
  static void scale(Grads& g, float alpha) {
    la::scal(alpha, g.g_w);
    la::scal(alpha, g.g_b);
    la::scal(alpha, g.g_c);
  }
  std::vector<la::Index> buffer_sizes() const {
    return {model_.w().size(), model_.b().size(), model_.c().size()};
  }

 private:
  Rbm& model_;
  OptLevel level_;
  Optimizer optimizer_;
  std::unique_ptr<par::ThreadPool> pool_;
  std::unique_ptr<RbmTaskGraphStep> graph_step_;
};

// The S-slot step (docs/data_parallel.md) under the chunk loop. Each group of
// up to S·batch_size chunk rows is sharded over S gradient slots, R replica
// workers compute the slots, a binary tree combines the live ones, and one
// update is applied. S == 1 is Algorithm 1's plain per-batch step: one slot,
// run inline, with no combine work.
template <typename Ops>
TrainReport run_slots(const TrainerConfig& config, typename Ops::Model& model,
                      const data::StreamingSource& dataset) {
  const int R = config.replicas;
  const int A = config.accumulation_steps;
  const int C = config.cards;
  const int S = R * A * C;
  phi::Cluster* cluster = config.cluster;
  const la::Index dim = model.visible();

  Ops ops(config, model);
  par::ReplicaGroup group(
      par::ReplicaGroupConfig{R, config.replica_threads});
  std::vector<typename Ops::Grads> grads(static_cast<std::size_t>(S));
  std::vector<typename Ops::Model::Workspace> ws(static_cast<std::size_t>(R));
  std::vector<la::Matrix> staging(static_cast<std::size_t>(R));
  util::Rng sampling_base(config.seed, /*stream=*/0x5a3bULL);
  std::int64_t update_index = 0;

  static obs::Gauge& slots_gauge = obs::gauge("dp.slots");
  slots_gauge.set(static_cast<double>(S));
  static obs::Counter& updates_counter = obs::counter("dp.updates");

  // One step consumes up to S micro-batches of the chunk at once.
  const la::Index group_capacity =
      static_cast<la::Index>(S) * config.batch_size;
  // Arena (per card under a cluster): model + the card's R·A gradient
  // slots, R concurrent 4-matrix workspaces (the SAE's y/z/delta2/back; the
  // RBM's four phase matrices are no larger).
  const std::vector<la::Index> buffer_sizes = ops.buffer_sizes();
  la::Index param_count = 0;
  for (const la::Index n : buffer_sizes) param_count += n;
  const double model_bytes = 4.0 * static_cast<double>(param_count);
  const double arena_model_bytes =
      model_bytes * (1.0 + static_cast<double>(cluster ? R * A : S));
  const double workspace_bytes = 4.0 * 4.0 *
                                 static_cast<double>(config.batch_size) * dim *
                                 static_cast<double>(R);

  // The inter-card combine's modeled schedule: one all-reduce of the full
  // gradient per optimizer update, with the algorithm resolved ONCE for the
  // run from the gradient message size and the active interconnect (the
  // functional combine below never changes with it — docs/cluster.md).
  par::CollectiveSchedule comm_schedule;
  double comm_step_s = 0.0;
  if (C > 1) {
    const phi::InterconnectSpec link =
        cluster ? cluster->interconnect() : phi::pcie_p2p_interconnect();
    const par::Collective algorithm =
        par::resolve_collective(config.collective, model_bytes, C, link);
    comm_schedule = par::all_reduce_schedule(algorithm, model_bytes, C);
    comm_step_s = comm_schedule.time_s(link);
  }

  std::vector<double> slot_cost(static_cast<std::size_t>(S), 0.0);
  // One stats sink per (card, replica) pair, indexed c·R + r.
  std::vector<phi::KernelStats> worker_stats(static_cast<std::size_t>(C * R));
  std::vector<int> live;
  live.reserve(static_cast<std::size_t>(S));

  return run_chunks(
      config, dataset, dim, arena_model_bytes, workspace_bytes,
      [&](const la::Matrix& chunk) {
        ChunkOutcome outcome;
        if (cluster) {
          outcome.card_stats.assign(static_cast<std::size_t>(C),
                                    phi::KernelStats{});
          outcome.card_h2d_bytes.assign(static_cast<std::size_t>(C), 0.0);
        }
        for (la::Index begin = 0; begin < chunk.rows();
             begin += group_capacity) {
          const la::Index rows = std::min(group_capacity, chunk.rows() - begin);
          // Slot s owns shard s — a function of (rows, S) only. Shard 0 is
          // never empty, so the combined gradient always lands in slot 0.
          const std::vector<data::RowShard> shards = data::shard_rows(rows, S);
          std::fill(slot_cost.begin(), slot_cost.end(), 0.0);
          std::fill(worker_stats.begin(), worker_stats.end(),
                    phi::KernelStats{});
          group.run([&](int r) {
            auto& batch = staging[static_cast<std::size_t>(r)];
            auto& workspace = ws[static_cast<std::size_t>(r)];
            // Replica r sweeps the cards in order, computing slot
            // (c·R + r)·A + a of card c — so card c's slot block is the
            // contiguous [c·R·A, (c+1)·R·A) and C == 1 degenerates to the
            // slot = r·A + a loop exactly.
            for (int c = 0; c < C; ++c) {
              // Per-(card, replica) stats sink: StatsScope is thread-local,
              // so each worker measures its share of each card into its own
              // KernelStats; the sinks merge below in (card, replica) order,
              // keeping the chunk record deterministic.
              phi::StatsScope sink(
                  worker_stats[static_cast<std::size_t>(c * R + r)]);
              for (int a = 0; a < A; ++a) {
                const int slot = (c * R + r) * A + a;
                const data::RowShard& shard =
                    shards[static_cast<std::size_t>(slot)];
                if (shard.rows == 0) continue;  // ragged tail: slot sits out
                DEEPPHI_PROFILE_SCOPE("trainer.batch");
                slice_batch(chunk, begin + shard.begin, shard.rows, batch);
                const util::Rng slot_rng = sampling_base.split(
                    static_cast<std::uint64_t>(update_index) *
                        static_cast<std::uint64_t>(S) +
                    static_cast<std::uint64_t>(slot));
                slot_cost[static_cast<std::size_t>(slot)] = ops.gradient(
                    batch, workspace, grads[static_cast<std::size_t>(slot)],
                    slot_rng);
              }
            }
          });
          for (int i = 0; i < C * R; ++i)
            phi::record(worker_stats[static_cast<std::size_t>(i)]);

          live.clear();
          for (int s = 0; s < S; ++s)
            if (shards[static_cast<std::size_t>(s)].rows > 0) live.push_back(s);
          {
            // Binary-tree all-reduce over the live slots in ascending slot
            // order — pairing depends only on live.size(), so the combined
            // sum is associatively identical run to run. live.size() == 1
            // does no kernel work at all.
            DEEPPHI_PROFILE_SCOPE("dp.combine");
            for (std::size_t stride = 1; stride < live.size(); stride *= 2)
              for (std::size_t i = 0; i + stride < live.size(); i += 2 * stride)
                Ops::combine(
                    grads[static_cast<std::size_t>(live[i])],
                    grads[static_cast<std::size_t>(live[i + stride])]);
            if (live.size() > 1)
              Ops::scale(grads[static_cast<std::size_t>(live.front())],
                         1.0f / static_cast<float>(live.size()));
          }
          ops.update(grads[static_cast<std::size_t>(live.front())]);
          ++update_index;
          updates_counter.add();
          ++outcome.updates;
          for (int s : live) {
            outcome.cost_sum += slot_cost[static_cast<std::size_t>(s)];
            ++outcome.batches;
            outcome.final_cost = slot_cost[static_cast<std::size_t>(s)];
          }
          if (cluster) {
            // Charge the step to the cards: card c's timeline gets its
            // replicas' measured gradient work plus its analytic combine
            // share (cost_accounting keeps this equal to what the flat tree
            // really ran), its shards' h2d bytes, and — per update — the
            // resolved collective schedule on the interconnect.
            for (int c = 0; c < C; ++c) {
              auto& card = outcome.card_stats[static_cast<std::size_t>(c)];
              for (int r = 0; r < R; ++r)
                card += worker_stats[static_cast<std::size_t>(c * R + r)];
              int card_live = 0;
              la::Index card_rows = 0;
              for (int s = c * R * A; s < (c + 1) * R * A; ++s) {
                const data::RowShard& shard =
                    shards[static_cast<std::size_t>(s)];
                if (shard.rows > 0) ++card_live;
                card_rows += shard.rows;
              }
              card += cluster_card_combine_stats(
                  buffer_sizes, card_live, static_cast<int>(live.size()),
                  /*root=*/c == 0, config.optimizer.kind);
              outcome.card_h2d_bytes[static_cast<std::size_t>(c)] +=
                  4.0 * static_cast<double>(card_rows) *
                  static_cast<double>(dim);
            }
            if (C > 1) {
              outcome.comm_seconds += comm_step_s;
              outcome.comm_wire_bytes += comm_schedule.wire_bytes;
              outcome.comm_rounds += comm_schedule.rounds;
              outcome.comm_collectives += 1;
            }
          }
        }
        return outcome;
      });
}

}  // namespace

phi::KernelStats TrainReport::per_chunk_compute_stats() const {
  phi::KernelStats compute = stats;
  compute.h2d_bytes = 0;
  compute.d2h_bytes = 0;
  compute.transfers = 0;
  return chunks > 0 ? compute.scaled(1.0 / static_cast<double>(chunks))
                    : compute;
}

Trainer::Trainer(TrainerConfig config) : config_(config) {
  DEEPPHI_CHECK_MSG(config.batch_size >= 1, "batch_size must be >= 1");
  DEEPPHI_CHECK_MSG(config.chunk_examples >= config.batch_size,
                    "chunk_examples (" << config.chunk_examples
                                       << ") must cover at least one batch ("
                                       << config.batch_size << ")");
  DEEPPHI_CHECK_MSG(config.epochs >= 1, "epochs must be >= 1");
  DEEPPHI_CHECK_MSG(config.ring_chunks >= 1, "ring_chunks must be >= 1");
  DEEPPHI_CHECK_MSG(
      config.shuffle_window == 0 ||
          config.shuffle_window >= config.chunk_examples,
      "shuffle_window (" << config.shuffle_window
                         << ") must be 0 (off) or >= chunk_examples ("
                         << config.chunk_examples << ")");
  DEEPPHI_CHECK_MSG(!config.use_taskgraph || is_matrix_form(config.level),
                    "the Fig. 6 task graph requires a matrix-form level");
  DEEPPHI_CHECK_MSG(config.replicas >= 1, "replicas must be >= 1");
  DEEPPHI_CHECK_MSG(config.replica_threads >= 0,
                    "replica_threads must be >= 0 (0 = auto)");
  DEEPPHI_CHECK_MSG(config.accumulation_steps >= 1,
                    "accumulation_steps must be >= 1");
  DEEPPHI_CHECK_MSG(config.cards >= 1, "cards must be >= 1");
  const bool data_parallel =
      config.replicas * config.accumulation_steps * config.cards > 1;
  DEEPPHI_CHECK_MSG(!data_parallel || is_matrix_form(config.level),
                    "data-parallel training (replicas/accumulation/cards) "
                    "requires a matrix-form level");
  DEEPPHI_CHECK_MSG(!data_parallel || !config.use_taskgraph,
                    "the Fig. 6 task graph cannot be combined with "
                    "data-parallel replicas");
}

TrainReport Trainer::train(SparseAutoencoder& model,
                           const data::StreamingSource& dataset) {
  return run_slots<SaeOps>(config_, model, dataset);
}

TrainReport Trainer::train(Rbm& model, const data::StreamingSource& dataset) {
  return run_slots<RbmOps>(config_, model, dataset);
}

SimulatedTime simulate(const TrainReport& report, phi::Device& device,
                       int ring_chunks) {
  SimulatedTime out;
  const phi::KernelStats per_chunk = report.per_chunk_compute_stats();
  out.total = device.cost_model().evaluate(
      per_chunk.scaled(static_cast<double>(report.chunks)), device.threads());

  // Pipelined (Fig. 5 loading thread).
  device.reset_timeline();
  phi::Offload pipelined(device, phi::OffloadConfig{true, ring_chunks});
  out.pipelined_s = pipelined
                        .process_chunks(static_cast<int>(report.chunks),
                                        report.chunk_bytes, per_chunk)
                        .total_s;

  // Serialized (no loading thread).
  device.reset_timeline();
  phi::Offload serialized(device, phi::OffloadConfig{false, ring_chunks});
  out.serialized_s = serialized
                         .process_chunks(static_cast<int>(report.chunks),
                                         report.chunk_bytes, per_chunk)
                         .total_s;
  device.reset_timeline();
  return out;
}

}  // namespace deepphi::core
