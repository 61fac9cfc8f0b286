#include "util/thread_pool.h"

#include <algorithm>
#include <cstdlib>

#include "obs/obs.h"
#include "util/stopwatch.h"

namespace rankties {

namespace {

// True on threads spawned by a ThreadPool; nested ParallelFor calls from a
// worker run inline instead of re-entering the queue (no deadlock).
thread_local bool t_in_pool_worker = false;

Mutex g_global_mu("threadpool.global");
std::unique_ptr<ThreadPool> g_global_pool RANKTIES_GUARDED_BY(g_global_mu);

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t lanes = std::max<std::size_t>(1, threads);
  workers_.reserve(lanes - 1);
  for (std::size_t i = 0; i + 1 < lanes; ++i) {
    workers_.emplace_back([this] { WorkerMain(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::RunChunks(LoopState& state) {
  for (;;) {
    if (state.canceled.load(std::memory_order_relaxed)) return;
    const std::size_t lo =
        state.cursor.fetch_add(state.grain, std::memory_order_relaxed);
    if (lo >= state.end) return;
    RANKTIES_OBS_COUNT("threadpool.chunks_run", 1);
    const std::size_t hi = std::min(lo + state.grain, state.end);
    try {
      (*state.body)(lo, hi);
    } catch (...) {
      MutexLock lock(state.mu);
      if (!state.error) state.error = std::current_exception();
      state.canceled.store(true, std::memory_order_relaxed);
    }
  }
}

void ThreadPool::WorkerMain() {
  t_in_pool_worker = true;
  for (;;) {
    std::shared_ptr<LoopState> state;
    {
      // Idle accounting: the wait below is the worker's only blocking
      // point, so its duration is exactly the lane's idle time.
      const std::int64_t idle_from = obs::Enabled() ? MonotonicNanos() : 0;
      MutexLock lock(mu_);
      while (!stop_ && queue_.empty()) cv_.Wait(lock);
      if (idle_from != 0) {
        RANKTIES_OBS_COUNT("threadpool.worker_idle_ns",
                           MonotonicNanos() - idle_from);
      }
      if (queue_.empty()) return;  // stop_ with a drained queue
      state = std::move(queue_.front());
      queue_.pop_front();
    }
    RunChunks(*state);
    {
      MutexLock lock(state->mu);
      if (--state->pending == 0) state->done.NotifyOne();
    }
  }
}

void ThreadPool::ParallelFor(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (begin >= end) return;
  const std::size_t g = std::max<std::size_t>(1, grain);
  const std::size_t chunks = (end - begin + g - 1) / g;
  if (workers_.empty() || chunks <= 1 || t_in_pool_worker) {
    RANKTIES_OBS_COUNT("threadpool.inline_runs", 1);
    body(begin, end);
    return;
  }

  obs::FlightSpan span(obs::FlightEventId::kParallelFor);
  RANKTIES_OBS_COUNT("threadpool.parallel_for_calls", 1);

  auto state = std::make_shared<LoopState>();
  state->end = end;
  state->grain = g;
  state->body = &body;
  state->cursor.store(begin, std::memory_order_relaxed);
  const std::size_t helpers = std::min(workers_.size(), chunks - 1);
  span.SetArgs(static_cast<std::int64_t>(end - begin),
               static_cast<std::int64_t>(g),
               static_cast<std::int64_t>(helpers));
  {
    // No helper can see `state` before the queue push below, but `pending`
    // is mu-guarded state: take the (uncontended) lock rather than carve
    // out an unlocked-initialization exception.
    MutexLock lock(state->mu);
    state->pending = helpers;
  }
  {
    MutexLock lock(mu_);
    for (std::size_t i = 0; i < helpers; ++i) queue_.push_back(state);
    RANKTIES_OBS_RECORD("threadpool.queue_depth",
                        static_cast<std::int64_t>(queue_.size()));
  }
  if (helpers == 1) {
    cv_.NotifyOne();
  } else {
    cv_.NotifyAll();
  }

  RunChunks(*state);  // the calling thread is a lane too

  std::exception_ptr error;
  {
    MutexLock lock(state->mu);
    while (state->pending != 0) state->done.Wait(lock);
    error = state->error;
  }
  if (error) std::rethrow_exception(error);
}

ThreadPool& ThreadPool::Global() {
  MutexLock lock(g_global_mu);
  if (!g_global_pool) {
    g_global_pool = std::make_unique<ThreadPool>(DefaultThreads());
  }
  return *g_global_pool;
}

void ThreadPool::SetGlobalThreads(std::size_t threads) {
  const std::size_t lanes = threads == 0 ? DefaultThreads() : threads;
  MutexLock lock(g_global_mu);
  g_global_pool = std::make_unique<ThreadPool>(lanes);
}

std::size_t ThreadPool::GlobalThreads() { return Global().threads(); }

std::size_t ThreadPool::DefaultThreads() {
  // Read once, before any worker thread exists; no concurrent setenv here.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* spec = std::getenv("RANKTIES_THREADS");
  const std::size_t from_env = ParseThreadsSpec(spec);
  if (from_env > 0) return from_env;
  const unsigned hardware = std::thread::hardware_concurrency();
  return std::max<std::size_t>(1, hardware);
}

std::size_t ThreadPool::ParseThreadsSpec(const char* spec) {
  if (spec == nullptr || *spec == '\0') return 0;
  char* tail = nullptr;
  const long value = std::strtol(spec, &tail, 10);
  if (tail == spec || *tail != '\0' || value <= 0) return 0;
  return std::min<long>(value, 1024);
}

void ParallelFor(std::size_t begin, std::size_t end, std::size_t grain,
                 const std::function<void(std::size_t, std::size_t)>& body) {
  ThreadPool::Global().ParallelFor(begin, end, grain, body);
}

}  // namespace rankties
