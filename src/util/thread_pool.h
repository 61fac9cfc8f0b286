#ifndef RANKTIES_UTIL_THREAD_POOL_H_
#define RANKTIES_UTIL_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "util/mutex.h"

namespace rankties {

/// A fixed-size worker pool driving the library's data-parallel loops
/// (core/batch_engine.h and the aggregation hot paths).
///
/// Design constraints, in order:
///  * determinism — ParallelFor only hands out index ranges; callers write
///    to disjoint slots and perform any floating-point reduction serially,
///    so results are bit-identical for every thread count;
///  * simplicity — no work stealing: one shared chunk cursor per loop,
///    claimed with a single fetch_add;
///  * safety — the first exception thrown by the body cancels the remaining
///    chunks and is rethrown on the calling thread.
///
/// A pool of `threads` provides `threads` lanes of parallelism: it spawns
/// `threads - 1` workers and the calling thread itself executes chunks, so a
/// 1-thread pool runs everything inline on the caller (the serial path,
/// exactly). Calls from inside a pool worker also run inline — nested
/// ParallelFor never deadlocks, it just degrades to serial.
class ThreadPool {
 public:
  /// Creates a pool with `threads` total lanes (clamped to at least 1).
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallelism: spawned workers plus the calling thread.
  std::size_t threads() const { return workers_.size() + 1; }

  /// Runs body(chunk_begin, chunk_end) over [begin, end) split into chunks
  /// of at most `grain` indices (grain 0 is treated as 1). Blocks until the
  /// whole range is done. Rethrows the first exception thrown by `body`
  /// after the loop has drained. The body must only write to slots derived
  /// from its own indices.
  void ParallelFor(std::size_t begin, std::size_t end, std::size_t grain,
                   const std::function<void(std::size_t, std::size_t)>& body)
      RANKTIES_EXCLUDES(mu_);

  /// The process-wide pool used by the free ParallelFor and the batch
  /// engine. Created on first use with DefaultThreads() lanes.
  static ThreadPool& Global();

  /// Replaces the global pool with one of `threads` lanes (0 means
  /// DefaultThreads()). Must not race with in-flight work on the global
  /// pool; intended for start-up flags (--threads) and benchmarks.
  static void SetGlobalThreads(std::size_t threads);

  /// Lane count of the global pool (creating it if needed).
  static std::size_t GlobalThreads();

  /// The RANKTIES_THREADS environment override if set and valid, otherwise
  /// std::thread::hardware_concurrency() (at least 1).
  static std::size_t DefaultThreads();

  /// Parses a RANKTIES_THREADS-style spec: a positive decimal integer.
  /// Returns 0 for null/empty/invalid input; clamps to 1024.
  static std::size_t ParseThreadsSpec(const char* spec);

 private:
  struct LoopState {
    std::size_t end = 0;
    std::size_t grain = 1;
    const std::function<void(std::size_t, std::size_t)>* body = nullptr;
    std::atomic<std::size_t> cursor{0};
    std::atomic<bool> canceled{false};
    Mutex mu{"threadpool.loop"};
    CondVar done;
    // Helper tasks not yet finished.
    std::size_t pending RANKTIES_GUARDED_BY(mu) = 0;
    // First exception thrown by the body.
    std::exception_ptr error RANKTIES_GUARDED_BY(mu);
  };

  static void RunChunks(LoopState& state) RANKTIES_EXCLUDES(state.mu);
  void WorkerMain() RANKTIES_EXCLUDES(mu_);

  std::vector<std::thread> workers_;
  Mutex mu_{"threadpool.queue"};
  CondVar cv_;
  std::deque<std::shared_ptr<LoopState>> queue_ RANKTIES_GUARDED_BY(mu_);
  bool stop_ RANKTIES_GUARDED_BY(mu_) = false;
};

/// ParallelFor on the global pool — the entry point the library uses.
void ParallelFor(std::size_t begin, std::size_t end, std::size_t grain,
                 const std::function<void(std::size_t, std::size_t)>& body);

/// Grain for `items` metric evaluations of uneven cost on the global pool:
/// about 32 chunks per lane, so scheduling stays a small share of each
/// lane's work while the chunks still load-balance.
std::size_t AutoGrain(std::size_t items);

}  // namespace rankties

#endif  // RANKTIES_UTIL_THREAD_POOL_H_
