// Mini-batch trainer implementing the paper's Algorithm 1:
//
//   while stop condition not satisfied:
//     get a chunk of data from the buffer area in global memory
//     split the chunk into many smaller training batches
//     for each small training batch:
//       compute the gradient; update the parameters
//
// The chunk feed follows Fig. 5 (background loading thread + ring buffer
// under ExecPolicy::kPhiOffload); the gradient step follows the Table I
// ladder level (core/levels.hpp). All work is recorded as KernelStats, so a
// finished TrainReport can be replayed on any simulated machine via
// simulate() — that replay is how the benches obtain Phi/CPU/Matlab times on
// hardware that no longer exists.
//
// Every batch step is the S-slot step (docs/data_parallel.md), with
// S = replicas × accumulation_steps × cards gradient slots: a group of up
// to S·batch_size chunk rows is split by data::shard_rows into S slots,
// R replica workers (par::ReplicaGroup) compute the slot gradients, a fixed
// binary tree combines the live slots, and ONE update is applied. The
// default S == 1 is Algorithm 1's plain step: one slot, run inline on the
// calling thread, with no combine work. Determinism contract (tested in
// tests/data_parallel_test.cpp and tests/cluster_test.cpp):
//   - Slot row ranges depend only on the group's row count and S, and a
//     slot's RNG stream is split(update_index·S + slot), never on which
//     replica or card ran it or with how many threads.
//   - The combine pairs the live slots in ascending order and then
//     mean-scales — no atomics, no arrival order — so a fixed seed and a
//     fixed S give bit-identical parameters for ANY (replicas,
//     accumulation_steps, cards) factorization and any replica_threads.
//   - cards > 1 (docs/cluster.md) only re-labels WHERE slots live and
//     charges the modeled inter-card all-reduce to the interconnect.
#pragma once

#include <cstdint>
#include <vector>

#include "core/levels.hpp"
#include "core/optimizer.hpp"
#include "core/rbm.hpp"
#include "core/sparse_autoencoder.hpp"
#include "data/dataset.hpp"
#include "parallel/collectives.hpp"
#include "phi/cost_model.hpp"
#include "phi/device.hpp"
#include "phi/offload.hpp"

namespace deepphi::obs {
class TelemetrySink;
}

namespace deepphi::phi {
class Cluster;
}

namespace deepphi::core {

struct TrainerConfig {
  la::Index batch_size = 1000;
  la::Index chunk_examples = 10000;
  int epochs = 1;
  /// Algorithm 1's "while stop condition is not satisfied": training also
  /// ends early once a chunk's mean cost falls to `target_cost` (0 = run all
  /// epochs) or after `max_batches` gradient steps (0 = unlimited).
  double target_cost = 0.0;
  std::int64_t max_batches = 0;
  OptLevel level = OptLevel::kImproved;
  ExecPolicy policy = ExecPolicy::kPhiOffload;
  /// Fig. 6 concurrent matrix ops for the RBM step (matrix-form levels only).
  bool use_taskgraph = false;
  int taskgraph_threads = 4;
  /// Shared-memory data parallelism (docs/data_parallel.md). A global step
  /// evaluates S = replicas × accumulation_steps gradient slots, each on one
  /// micro-batch of up to batch_size rows (slot row ranges come from
  /// data::shard_rows, so they depend only on the row count and S), combines
  /// them with a deterministic binary-tree reduction, and applies ONE
  /// optimizer update — an effective batch of up to S × batch_size examples.
  /// Replica r computes slots r·A+a concurrently with the other replicas on
  /// a private OpenMP team. With replicas == 1 and accumulation_steps == 1
  /// the single slot runs inline on the calling thread. S > 1 requires a
  /// matrix-form level and is incompatible with use_taskgraph.
  int replicas = 1;
  /// OpenMP threads per replica's kernels; 0 = ambient threads / replicas.
  int replica_threads = 0;
  /// Gradient slots each replica evaluates sequentially per global step.
  int accumulation_steps = 1;
  /// Simulated cards the global step spreads over (docs/cluster.md). A
  /// global step then has S = replicas × accumulation_steps × cards slots;
  /// card c owns the contiguous block [c·R·A, (c+1)·R·A), computed by the
  /// same R replica workers sweeping the cards in order. The functional
  /// combine stays the flat global-slot tree, so trained parameters are
  /// bitwise invariant to ANY (replicas, accumulation_steps, cards)
  /// factorization of S — the inter-card all-reduce exists as a modeled
  /// communication schedule charged to the cluster's interconnect, never as
  /// a different summation order. cards > 1 has the same requirements as
  /// replicas > 1 (matrix-form level, no task graph).
  int cards = 1;
  /// All-reduce algorithm the modeled inter-card combine is charged as;
  /// kAuto picks the cheapest schedule for the gradient message size on the
  /// active interconnect. DEEPPHI_COLLECTIVE overrides either way.
  par::Collective collective = par::Collective::kAuto;
  /// Update rule for the matrix-form levels; the loop-form levels (Baseline /
  /// OpenMP) always use plain SGD at optimizer.lr, matching the paper's
  /// unoptimized code.
  OptimizerConfig optimizer{};
  std::uint64_t seed = 42;
  std::size_t ring_chunks = 4;
  /// Windowed-shuffle span in examples for the streaming pipeline
  /// (docs/data_pipeline.md). 0 = feed chunks in source order (the historic
  /// behavior); otherwise must be >= chunk_examples. The visit order is a
  /// pure function of (rows, shuffle_window, seed, epoch) — independent of
  /// the data backing and of the S factorization — so shuffled runs stay
  /// bitwise reproducible.
  la::Index shuffle_window = 0;
  /// Optional simulated coprocessor. When set, train() reserves the model,
  /// gradients, workspace and chunk ring in the device's 8 GB arena (throws
  /// on OOM — the paper's "keep all the parameters ... in our global memory
  /// permanently" is a real constraint), and drives the device timeline
  /// chunk by chunk as the real training executes: one DMA event per chunk
  /// load (overlapped per Fig. 5 under kPhiOffload, serialized under kHost)
  /// and one compute event per chunk of training. The populated trace is
  /// available on the device afterwards. The device must outlive train().
  phi::Device* device = nullptr;
  /// Optional simulated multi-card cluster (requires cards > 1 matching
  /// cluster->cards(); mutually exclusive with `device`). Each card's arena
  /// takes its share of the reservation, each card's timeline is driven by
  /// its replicas' measured work plus its analytic combine share, and the
  /// per-update collective schedule occupies the interconnect between
  /// steps. The cluster must outlive train().
  phi::Cluster* cluster = nullptr;
  /// Optional JSONL telemetry sink: train() emits one record per chunk
  /// (cost, batches/s, GF/s, ring occupancy, wall seconds), one per epoch,
  /// and a run_summary with the metrics-registry snapshot. The sink must
  /// outlive train(). Null disables emission at zero cost.
  obs::TelemetrySink* telemetry = nullptr;
};

struct TrainReport {
  double final_cost = 0;        // cost of the last batch
  std::vector<double> chunk_mean_costs;
  std::int64_t batches = 0;     // micro-batch gradient evaluations
  /// Optimizer steps applied: one per S-slot group, so updates == batches
  /// at S == 1 and updates ≈ batches / S otherwise (exactly, up to ragged
  /// chunk tails).
  std::int64_t updates = 0;
  std::int64_t chunks = 0;
  double chunk_bytes = 0;       // bytes of one full chunk
  phi::KernelStats stats;       // measured work, including h2d transfers
  double wall_seconds = 0;      // actual host wall time of the run
  /// Seconds the consumer spent blocked on the chunk ring (summed over
  /// epochs) — 0 when loading fully overlapped compute. The run_summary
  /// telemetry derives overlap_efficiency = 1 - load_stall/wall from it.
  double load_stall_seconds = 0;
  /// Measured host wall seconds of each chunk's training (same indexing as
  /// chunk_mean_costs) — the real-timeline counterpart of the per-chunk
  /// predictions phi::Offload::process_chunks makes for simulate().
  std::vector<double> chunk_wall_seconds;

  /// Compute-only work of an average chunk (transfers stripped) — the
  /// quantity phi::Offload::process_chunks consumes.
  phi::KernelStats per_chunk_compute_stats() const;
};

class Trainer {
 public:
  explicit Trainer(TrainerConfig config);

  const TrainerConfig& config() const { return config_; }

  /// Trains the Sparse Autoencoder over `dataset` for config.epochs passes.
  /// Any StreamingSource feeds the same loop: an in-memory data::Dataset or
  /// an out-of-core data::ShardedDataset train bitwise identically under the
  /// same config.
  TrainReport train(SparseAutoencoder& model,
                    const data::StreamingSource& dataset);

  /// Trains the RBM likewise; the reported costs are mean squared
  /// reconstruction errors.
  TrainReport train(Rbm& model, const data::StreamingSource& dataset);

 private:
  TrainerConfig config_;
};

/// Simulated end-to-end time of a finished training run on `device`
/// (threads already set on the device):
struct SimulatedTime {
  double serialized_s = 0;  // no loading thread: transfer + compute in series
  double pipelined_s = 0;   // Fig. 5 loading thread with the given ring depth
  phi::CostBreakdown total; // compute breakdown of the whole run
};
SimulatedTime simulate(const TrainReport& report, phi::Device& device,
                       int ring_chunks = 4);

}  // namespace deepphi::core
