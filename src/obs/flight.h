#ifndef RANKTIES_OBS_FLIGHT_H_
#define RANKTIES_OBS_FLIGHT_H_

/// \file
/// Flight recorder: the observability layer's one event path. Each thread
/// owns a lock-free ring of fixed-size structured events (overwrite-oldest,
/// so memory is bounded forever), and recording one event is a handful of
/// relaxed atomic stores — no locks, no allocation, no strings.
///
/// Events come in two forms that share the rings:
///
///   obs::FlightRecord(FlightEventId::kOnlineMedianAdd, voter, n);  // point
///
///   obs::FlightSpan span(FlightEventId::kBatchMatrix);              // span
///   span.SetArgs(m, pairs, tiles);
///
/// A FlightSpan reads the clock only if the recorder is on when it opens;
/// on close it writes one complete event (start, duration, three args). A
/// span opened while the recorder is off records nothing, even if the
/// recorder turns on before it closes.
///
/// Payloads are spartan: a timestamp, an optional duration, an id from the
/// closed enum below, and three int64 arguments. Names and argument names
/// are resolved at export time (FlightEventName / FlightEventArgName).
///
/// Draining happens on demand (Drain() merges every thread's ring into one
/// timestamp-sorted vector, which PerfettoJsonDocument renders) or on
/// failure: enabling the recorder installs a contracts-layer failure hook
/// (contracts_internal::SetFailureHook) that prints the most recent events
/// to stderr before a violated RANKTIES_DCHECK aborts. Concurrent writers
/// never block a drain; an event overwritten mid-read can be torn (mixed
/// fields), which post-mortem consumers must tolerate — quiesce writers
/// first when exact replay matters.

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "util/mutex.h"
#include "util/stopwatch.h"

namespace rankties {
namespace obs {

/// Closed event-id space. Names and argument names per id live in one
/// table in flight.cc; unused arguments are recorded as 0.
enum class FlightEventId : std::uint32_t {
  kNone = 0,
  kParallelFor,             ///< span: items, grain, helpers
  kBatchMatrix,             ///< span: lists, pairs, tiles
  kBatchMatrixUnprepared,   ///< span: lists, pairs
  kBatchDistancesToAll,     ///< span: lists
  kIncrementalMove,         ///< point: list, element, pairs
  kIncrementalReplace,      ///< point: list, pairs
  kOnlineMedianAdd,         ///< point: voter, n
  kOnlineMedianUpdate,      ///< point: voter, touched
  kOnlineMedianRemove,      ///< point: voter, voters_left
  kTaRun,                   ///< span: k, sorted, random
  kNraRun,                  ///< span: k, sorted
  kMedrankRun,              ///< span: k, sorted, depth
  kMedrankStreamNextWinner, ///< span: winner (-1 = none), sorted, total
  kStoreReadChunk,          ///< span: chunk, lists
  kOutOfCoreMedianScores,   ///< span: lists, n
  kOutOfCoreMatrix,         ///< span: lists, pairs
  kQueryUnit,               ///< span: unit ordinal
  kCount,                   ///< sentinel, not a real event
};

/// Static name for `id` ("threadpool.parallel_for", ...); "unknown" for
/// out-of-range values (e.g. a torn event).
const char* FlightEventName(FlightEventId id);

/// Static name of argument `i` (0..2) of `id`, or nullptr when unused.
const char* FlightEventArgName(FlightEventId id, std::size_t i);

/// One drained event.
struct FlightEvent {
  std::int64_t ts_ns = 0;    ///< MonotonicNanos(): record or span start
  std::int64_t dur_ns = -1;  ///< span duration; -1 marks a point event
  std::uint32_t event = 0;   ///< FlightEventId
  std::uint32_t thread = 0;  ///< recorder-assigned dense thread index
  std::array<std::int64_t, 3> args{};

  bool is_span() const { return dur_ns >= 0; }
};

class FlightRecorder {
 public:
  /// Ring capacity per thread: the newest 4096 events survive. 4096 slots
  /// of 48 bytes keep each thread under 200 KiB however long it runs.
  static constexpr std::size_t kEventsPerThread = 1u << 12;
  /// Hard cap on registered rings; threads beyond it only bump dropped().
  static constexpr std::size_t kMaxThreads = 256;

  /// The singleton. Leaked on purpose, like the metric Registry, so
  /// events recorded during static destruction stay safe. Inline so the
  /// enabled check at an event or span site is a load, not a call.
  static FlightRecorder& Global() {
    static FlightRecorder* const recorder = new FlightRecorder();
    return *recorder;
  }

  /// Turns recording on or off process-wide. The first enable installs
  /// the contracts-layer failure hook that dumps the recorder to stderr
  /// before a violated contract aborts (see DumpToStderr).
  void SetEnabled(bool enabled);
  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Records one point event on the calling thread's ring (lock-free).
  void Record(FlightEventId id, std::int64_t a0 = 0, std::int64_t a1 = 0,
              std::int64_t a2 = 0);
  /// Records one complete event that began at `start_ns` and ends now.
  void RecordSpan(FlightEventId id, std::int64_t start_ns,
                  const std::array<std::int64_t, 3>& args);

  /// Every live event from every ring, merged and sorted by start time
  /// (enclosing spans first on a tie).
  std::vector<FlightEvent> Drain() const RANKTIES_EXCLUDES(rings_mu_);

  /// Events lost because the kMaxThreads ring cap was reached.
  std::int64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  /// Events overwritten by ring wrap-around, summed over threads.
  std::int64_t overwritten() const RANKTIES_EXCLUDES(rings_mu_);

  /// Empties every ring and zeroes dropped() (tests; racing writers may
  /// land events on either side of the reset).
  void Clear() RANKTIES_EXCLUDES(rings_mu_);

  /// Writes the newest `max_events` events (0 = a small default) to
  /// stderr, newest last — the post-mortem path, also reachable through
  /// the contract failure hook.
  void DumpToStderr(std::size_t max_events = 0) const
      RANKTIES_EXCLUDES(rings_mu_);

 private:
  // Stored form of one event: every field is a relaxed atomic so a drain
  // racing a wrap-around overwrite reads torn values, never UB (and stays
  // clean under TSan). Relaxed int64 stores cost the same as plain moves.
  struct Slot {
    std::atomic<std::int64_t> ts_ns{0};
    std::atomic<std::int64_t> dur_ns{-1};
    std::atomic<std::uint32_t> event{0};
    std::atomic<std::int64_t> a0{0};
    std::atomic<std::int64_t> a1{0};
    std::atomic<std::int64_t> a2{0};
  };

  struct ThreadRing {
    explicit ThreadRing(std::uint32_t index) : thread_index(index) {}
    std::uint32_t thread_index;
    /// Total events ever recorded; head % kEventsPerThread is the next
    /// slot. Published with release so drains see completed payloads.
    std::atomic<std::uint64_t> head{0};
    std::array<Slot, kEventsPerThread> slots;
  };

  FlightRecorder() = default;

  /// Writes one slot on the calling thread's ring.
  void Write(FlightEventId id, std::int64_t ts_ns, std::int64_t dur_ns,
             std::int64_t a0, std::int64_t a1, std::int64_t a2);

  /// The calling thread's ring, registering it on first use; nullptr once
  /// kMaxThreads rings exist.
  ThreadRing* RingForThisThread() RANKTIES_EXCLUDES(rings_mu_);

  std::atomic<bool> enabled_{false};
  std::atomic<std::int64_t> dropped_{0};
  mutable Mutex rings_mu_{"obs.flight.rings"};
  /// Owned rings, never freed (post-mortem dumps outlive their threads;
  /// each ring's slots are lock-free atomics — only the vector of ring
  /// pointers is guarded).
  std::vector<ThreadRing*> rings_ RANKTIES_GUARDED_BY(rings_mu_);
};

/// Shorthand for FlightRecorder::Global().Record(...) with the enabled
/// check inlined at the call site.
inline void FlightRecord(FlightEventId id, std::int64_t a0 = 0,
                         std::int64_t a1 = 0, std::int64_t a2 = 0) {
  FlightRecorder& recorder = FlightRecorder::Global();
  if (!recorder.enabled()) return;
  recorder.Record(id, a0, a1, a2);
}

/// RAII span: one complete event covering [construction, destruction).
class FlightSpan {
 public:
  explicit FlightSpan(FlightEventId id)
      : id_(id), active_(FlightRecorder::Global().enabled()) {
    if (active_) start_ns_ = MonotonicNanos();
  }
  ~FlightSpan() {
    if (active_) FlightRecorder::Global().RecordSpan(id_, start_ns_, args_);
  }

  FlightSpan(const FlightSpan&) = delete;
  FlightSpan& operator=(const FlightSpan&) = delete;

  /// Sets the span's arguments (meaning per id; see FlightEventId).
  void SetArgs(std::int64_t a0, std::int64_t a1 = 0, std::int64_t a2 = 0) {
    args_ = {a0, a1, a2};
  }

 private:
  FlightEventId id_;
  bool active_;
  std::int64_t start_ns_ = 0;
  std::array<std::int64_t, 3> args_{};
};

}  // namespace obs
}  // namespace rankties

#endif  // RANKTIES_OBS_FLIGHT_H_
