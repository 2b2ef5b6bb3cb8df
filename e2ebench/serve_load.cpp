// Serving load on two lanes of one InferenceServer, with one control thread
// that hot-swaps both lanes every 250 ms and scrapes /metrics at 10 Hz:
//  * open loop — one generator thread offers seeded Poisson traffic and one
//    collector thread per lane times each reply from its due time;
//  * closed loop — one client thread keeps a fixed number of requests
//    outstanding and counts completions per window.
// Every reply is checked bit for bit against a direct encode().
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <exception>
#include <future>
#include <mutex>
#include <thread>

#include "bench.hpp"
#include "obs/exposition.hpp"
#include "obs/profiler.hpp"
#include "serve/model_registry.hpp"

namespace e2ebench {

namespace ds = deepphi::serve;
using Clock = std::chrono::steady_clock;

namespace {

constexpr double kPublishEveryS = 0.250;  // publish_shared cadence
constexpr double kScrapeEveryS = 0.100;   // prometheus_text() cadence
/// Lead-in traffic before each phase's measured window: a fresh server
/// starts its threads here, a cost a long-running server pays once.
constexpr double kWarmupS = 0.15;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Both lanes at version 1 (model 0 of each) in a fresh registry.
void register_lanes(ds::ModelRegistry& registry, const ServedModels& models) {
  for (int lane = 0; lane < ServedModels::kLanes; ++lane) {
    const auto& m = models.model[lane][0];
    registry.add_shared(ServedModels::kLaneNames[lane], m, kLaneBudgetS,
                        "mem", ds::encoder_precision(*m));
  }
}

/// The library's static batching defaults (64 rows, 2 ms deadline). The
/// adaptive batcher spends half the slack below the budget by design, so its
/// p99 sits within a few ms of the budget at every rate and one scheduling
/// stall would decide a ladder rung. Three workers each encode a batch on
/// one core (README.md, "Noise"); deep queues ride out stalls.
ds::ServeConfig serve_config() {
  ds::ServeConfig config;
  config.max_batch = 64;
  config.max_delay_s = 2e-3;
  config.queue_capacity = 4096;
  config.workers = 3;
  config.adaptive = false;
  return config;
}

/// A reply is correct when it is bit for bit what the model of the version
/// it names gives for its input row.
bool reply_matches(const ServedModels& models, int lane, Index row,
                   const ds::Reply& reply) {
  const int m = static_cast<int>((reply.version - 1) % 2);
  const deepphi::la::Matrix& want = models.expected[lane][m];
  return reply.version >= 1 &&
         reply.row.size() == static_cast<std::size_t>(want.cols()) &&
         std::memcmp(reply.row.data(), want.row(row),
                     sizeof(float) * reply.row.size()) == 0;
}

/// The control thread: hot swaps (publish k serves model k % 2 as version
/// k + 1) and metric scrapes, timed into `phase`, from construction until
/// stop() or destruction.
class Control {
 public:
  Control(ds::ModelRegistry& registry, const ServedModels& models,
          ServePhase& phase, Clock::time_point t0)
      : thread_([&registry, &models, &phase, t0, this] {
          int publishes = 0;
          double next_publish = kPublishEveryS;
          double next_scrape = kScrapeEveryS;
          std::unique_lock<std::mutex> lock(mutex_);
          while (true) {
            const double wake = std::min(next_publish, next_scrape);
            const auto deadline =
                t0 + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(wake));
            if (cv_.wait_until(lock, deadline, [&] { return stop_; })) break;
            lock.unlock();
            if (next_publish <= next_scrape) {
              ++publishes;
              for (int lane = 0; lane < ServedModels::kLanes; ++lane) {
                const auto& m = models.model[lane][publishes % 2];
                const Clock::time_point p0 = Clock::now();
                const std::uint64_t v = registry.publish_shared(
                    ServedModels::kLaneNames[lane], m, "mem",
                    ds::encoder_precision(*m));
                phase.publish_s.push_back(since(p0));
                if (v != static_cast<std::uint64_t>(publishes) + 1)
                  ++phase.control_failures;
              }
              next_publish += kPublishEveryS;
            } else {
              const Clock::time_point s0 = Clock::now();
              const std::string text = deepphi::obs::prometheus_text();
              phase.scrape_s.push_back(since(s0));
              if (text.empty()) ++phase.control_failures;
              next_scrape += kScrapeEveryS;
            }
            lock.lock();
          }
        }) {}
  Control(const Control&) = delete;
  Control& operator=(const Control&) = delete;
  ~Control() { stop(); }

  void stop() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;  // declared last: starts once the members above exist
};

}  // namespace

void ServedModels::compute_expected() {
  deepphi::la::Matrix one(1, pool.cols());
  deepphi::la::Matrix out;
  for (int lane = 0; lane < kLanes; ++lane)
    for (int m = 0; m < 2; ++m) {
      const auto& encoder = *model[lane][m];
      deepphi::la::Matrix& table = expected[lane][m];
      table = deepphi::la::Matrix(pool.rows(), encoder.output_dim());
      for (Index p = 0; p < pool.rows(); ++p) {
        std::memcpy(one.data(), pool.row(p), sizeof(float) * pool.cols());
        encoder.encode(one, out);
        std::memcpy(table.row(p), out.data(), sizeof(float) * table.cols());
      }
    }
}

ServePhase run_open_loop(const ServedModels& models, double rate_rps,
                         double seconds, double window_s,
                         std::uint64_t seed) {
  constexpr int kLanes = ServedModels::kLanes;
  const std::vector<double> due =
      poisson_schedule(rate_rps, kWarmupS + seconds, seed);
  const std::size_t n = due.size();

  // Which lane and which pool row each request uses: a pure function of the
  // seed, drawn before the clock starts.
  std::vector<int> lane_of(n);
  std::vector<Index> row_of(n);
  std::vector<std::size_t> by_lane[kLanes];
  std::uint64_t state = seed * 0x2545F4914F6CDD1DULL + 1;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t r = splitmix(state);
    lane_of[i] = static_cast<int>(r & 1);
    row_of[i] = static_cast<Index>(
        (r >> 1) % static_cast<std::uint64_t>(models.pool.rows()));
    by_lane[lane_of[i]].push_back(i);
  }

  ds::ModelRegistry registry;
  register_lanes(registry, models);
  ds::InferenceServer server(registry, serve_config());

  ServePhase phase;
  std::vector<double> sent(n, 0.0), done(n, -1.0);
  std::vector<std::future<ds::Reply>> futures(n);
  std::atomic<std::size_t> submitted{0};
  std::atomic<std::size_t> wrong{0};

  phase.window_begin_s = deepphi::obs::Profiler::now_s();
  const Clock::time_point t0 = Clock::now();

  // Collectors: wait for each of their lane's requests in submission order.
  // A reply that became ready while an earlier one was awaited is stamped
  // late by at most that wait, which only ever overstates latency.
  std::vector<std::thread> collectors;
  for (int lane = 0; lane < kLanes; ++lane)
    collectors.emplace_back([&, lane] {
      for (const std::size_t i : by_lane[lane]) {
        std::size_t seen = submitted.load(std::memory_order_acquire);
        while (seen <= i) {
          submitted.wait(seen, std::memory_order_acquire);
          seen = submitted.load(std::memory_order_acquire);
        }
        try {
          const ds::Reply reply = futures[i].get();
          const double at = since(t0);
          if (reply_matches(models, lane, row_of[i], reply))
            done[i] = at;
          else
            wrong.fetch_add(1, std::memory_order_relaxed);
        } catch (const std::exception&) {
          // Rejected, shed or failed: done stays < 0 and counts as failed.
        }
      }
    });

  Control control(registry, models, phase, t0);

  // Generator (this thread): submit each request at its due time, or at
  // once when it is already late. Should a submit throw, the requests left
  // keep invalid futures, which the collectors count as failed, so every
  // thread is still joined before the error propagates.
  std::exception_ptr error;
  try {
    for (std::size_t i = 0; i < n; ++i) {
      std::this_thread::sleep_until(
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(due[i])));
      const float* row = models.pool.row(row_of[i]);
      sent[i] = since(t0);
      futures[i] =
          server.submit(ServedModels::kLaneNames[lane_of[i]],
                        std::vector<float>(row, row + models.pool.cols()));
      submitted.store(i + 1, std::memory_order_release);
      submitted.notify_all();
    }
  } catch (...) {
    error = std::current_exception();
    submitted.store(n, std::memory_order_release);
    submitted.notify_all();
  }
  for (std::thread& t : collectors) t.join();
  control.stop();
  if (error) std::rethrow_exception(error);
  phase.window_end_s = deepphi::obs::Profiler::now_s();

  phase.stats = server.stats();
  for (int lane = 0; lane < kLanes; ++lane)
    phase.lane_stats[lane] = server.stats(ServedModels::kLaneNames[lane]);
  server.shutdown();

  phase.wrong_replies = wrong.load();
  // Statistics cover the requests due after the warm-up only.
  const std::size_t first = static_cast<std::size_t>(
      std::lower_bound(due.begin(), due.end(), kWarmupS) - due.begin());
  phase.due_s.assign(due.begin() + first, due.end());
  phase.sent_s.assign(sent.begin() + first, sent.end());
  phase.done_s.assign(done.begin() + first, done.end());
  phase.summary = summarize_open_loop(phase.due_s, phase.sent_s, phase.done_s,
                                      kLaneBudgetS, window_s);
  return phase;
}

ServePhase run_closed_loop(const ServedModels& models, std::size_t outstanding,
                           double seconds, double window_s,
                           std::uint64_t seed) {
  ds::ModelRegistry registry;
  register_lanes(registry, models);
  ds::InferenceServer server(registry, serve_config());

  struct InFlight {
    std::future<ds::Reply> reply;
    int lane;
    Index row;
  };
  std::deque<InFlight> ring;
  std::vector<double> done;  // completion time of each correct reply
  std::uint64_t state = seed * 0x2545F4914F6CDD1DULL + 1;
  ServePhase phase;
  std::size_t attempted = 0, failed = 0;

  phase.window_begin_s = deepphi::obs::Profiler::now_s();
  const Clock::time_point t0 = Clock::now();
  Control control(registry, models, phase, t0);

  // Requests draw lane and pool row from the seeded stream, 50/50 between
  // the lanes, as the open loop does.
  auto submit = [&] {
    const std::uint64_t r = splitmix(state);
    const int lane = static_cast<int>(r & 1);
    const auto row = static_cast<Index>(
        (r >> 1) % static_cast<std::uint64_t>(models.pool.rows()));
    const float* in = models.pool.row(row);
    ring.push_back({server.submit(ServedModels::kLaneNames[lane],
                                  std::vector<float>(in, in + models.pool.cols())),
                    lane, row});
    ++attempted;
  };
  // Waits for the oldest request; a reply that became ready meanwhile is
  // stamped late by at most that wait, which the window counts absorb.
  auto harvest = [&] {
    InFlight f = std::move(ring.front());
    ring.pop_front();
    try {
      const ds::Reply reply = f.reply.get();
      if (reply_matches(models, f.lane, f.row, reply))
        done.push_back(since(t0));
      else
        ++phase.wrong_replies;
    } catch (const std::exception&) {
      ++failed;  // rejected, shed or failed
    }
  };

  // Should a submit throw, every request already in flight is still
  // awaited and the control thread stopped before the error propagates.
  std::exception_ptr error;
  try {
    for (std::size_t i = 0; i < outstanding; ++i) submit();
    const double end = kWarmupS + seconds;
    while (since(t0) < end) {
      harvest();
      submit();
    }
  } catch (...) {
    error = std::current_exception();
  }
  while (!ring.empty()) harvest();
  control.stop();
  if (error) std::rethrow_exception(error);
  phase.window_end_s = deepphi::obs::Profiler::now_s();

  phase.stats = server.stats();
  for (int lane = 0; lane < ServedModels::kLanes; ++lane)
    phase.lane_stats[lane] = server.stats(ServedModels::kLaneNames[lane]);
  server.shutdown();

  phase.summary.attempted = attempted;
  phase.summary.failed = failed;
  phase.window_rps = window_rates(done, kWarmupS, kWarmupS + seconds, window_s);
  return phase;
}

namespace {

void add_stats(ds::ServerStats& into, const ds::ServerStats& s) {
  into.submitted += s.submitted;
  into.rejected += s.rejected;
  into.shed += s.shed;
  into.completed += s.completed;
  into.failed += s.failed;
  into.batches += s.batches;
  into.peak_queue_depth = std::max(into.peak_queue_depth, s.peak_queue_depth);
  into.total_compute_s += s.total_compute_s;
  into.total_queue_wait_s += s.total_queue_wait_s;
  into.mean_batch_size =
      into.batches ? static_cast<double>(into.completed) / into.batches : 0;
}

}  // namespace

ServePhase join_phases(const std::vector<ServePhase>& parts, double window_s) {
  ServePhase joined;
  // Phases sit this far apart on the joined time axis, so no window spans
  // two of them.
  constexpr double kApartS = 1e4;
  for (std::size_t k = 0; k < parts.size(); ++k) {
    const ServePhase& p = parts[k];
    const double shift = kApartS * static_cast<double>(k);
    for (std::size_t i = 0; i < p.due_s.size(); ++i) {
      joined.due_s.push_back(p.due_s[i] + shift);
      joined.sent_s.push_back(p.sent_s[i] + shift);
      joined.done_s.push_back(p.done_s[i] < 0 ? -1.0 : p.done_s[i] + shift);
    }
    joined.wrong_replies += p.wrong_replies;
    joined.control_failures += p.control_failures;
    add_stats(joined.stats, p.stats);
    for (int lane = 0; lane < ServedModels::kLanes; ++lane)
      add_stats(joined.lane_stats[lane], p.lane_stats[lane]);
    joined.publish_s.insert(joined.publish_s.end(), p.publish_s.begin(),
                            p.publish_s.end());
    joined.scrape_s.insert(joined.scrape_s.end(), p.scrape_s.begin(),
                           p.scrape_s.end());
  }
  joined.summary = summarize_open_loop(joined.due_s, joined.sent_s,
                                       joined.done_s, kLaneBudgetS, window_s);
  return joined;
}

}  // namespace e2ebench
