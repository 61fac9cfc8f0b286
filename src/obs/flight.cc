#include "obs/flight.h"

#include <algorithm>
#include <cstdio>
#include <iterator>

#include "util/contracts.h"

namespace rankties {
namespace obs {

namespace {

struct EventInfo {
  const char* name;
  std::array<const char*, 3> args;
};

// Indexed by FlightEventId; names follow the lowercase.dotted metric
// convention, argument names label the Perfetto "args" object.
constexpr EventInfo kEvents[] = {
    {"none", {}},
    {"threadpool.parallel_for", {"items", "grain", "helpers"}},
    {"batch.distance_matrix", {"lists", "pairs", "tiles"}},
    {"batch.distance_matrix_unprepared", {"lists", "pairs"}},
    {"batch.distances_to_all", {"lists"}},
    {"incremental.move", {"list", "element", "pairs"}},
    {"incremental.replace_list", {"list", "pairs"}},
    {"online_median.add_voter", {"voter", "n"}},
    {"online_median.update_voter", {"voter", "touched"}},
    {"online_median.remove_voter", {"voter", "voters_left"}},
    {"access.ta.run", {"k", "sorted", "random"}},
    {"access.nra.run", {"k", "sorted"}},
    {"access.medrank.run", {"k", "sorted", "depth"}},
    {"access.medrank_stream.next_winner", {"winner", "sorted", "total"}},
    {"store.read_chunk", {"chunk", "lists"}},
    {"outofcore.median_scores", {"lists", "n"}},
    {"outofcore.distance_matrix", {"lists", "pairs"}},
    {"slo.query_unit", {"unit"}},
};
static_assert(std::size(kEvents) ==
                  static_cast<std::size_t>(FlightEventId::kCount),
              "one kEvents row per FlightEventId");

}  // namespace

const char* FlightEventName(FlightEventId id) {
  const auto index = static_cast<std::size_t>(id);
  return index < std::size(kEvents) ? kEvents[index].name : "unknown";
}

const char* FlightEventArgName(FlightEventId id, std::size_t i) {
  const auto index = static_cast<std::size_t>(id);
  return index < std::size(kEvents) && i < 3 ? kEvents[index].args[i]
                                             : nullptr;
}

namespace {

// Dump hook for the contracts layer: bounded, stderr-only, installed on
// the first SetEnabled(true).
void FlightFailureHook() {
  FlightRecorder::Global().DumpToStderr();
}

}  // namespace

void FlightRecorder::SetEnabled(bool enabled) {
  if (enabled) {
    // Install-once: racing enables both store the same hook, and a user
    // hook installed later deliberately wins (SetFailureHook replaces).
    static const bool hook_installed = [] {
      contracts_internal::SetFailureHook(&FlightFailureHook);
      return true;
    }();
    (void)hook_installed;
  }
  enabled_.store(enabled, std::memory_order_relaxed);
}

FlightRecorder::ThreadRing* FlightRecorder::RingForThisThread() {
  thread_local ThreadRing* t_ring = [this]() -> ThreadRing* {
    MutexLock lock(rings_mu_);
    if (rings_.size() >= kMaxThreads) return nullptr;
    auto* ring = new ThreadRing(static_cast<std::uint32_t>(rings_.size()));
    rings_.push_back(ring);
    return ring;
  }();
  return t_ring;
}

void FlightRecorder::Record(FlightEventId id, std::int64_t a0,
                            std::int64_t a1, std::int64_t a2) {
  if (!enabled()) return;
  Write(id, MonotonicNanos(), -1, a0, a1, a2);
}

void FlightRecorder::RecordSpan(FlightEventId id, std::int64_t start_ns,
                                const std::array<std::int64_t, 3>& args) {
  if (!enabled()) return;
  Write(id, start_ns, MonotonicNanos() - start_ns, args[0], args[1],
        args[2]);
}

void FlightRecorder::Write(FlightEventId id, std::int64_t ts_ns,
                           std::int64_t dur_ns, std::int64_t a0,
                           std::int64_t a1, std::int64_t a2) {
  ThreadRing* ring = RingForThisThread();
  if (ring == nullptr) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const std::uint64_t head = ring->head.load(std::memory_order_relaxed);
  Slot& slot = ring->slots[head % kEventsPerThread];
  slot.ts_ns.store(ts_ns, std::memory_order_relaxed);
  slot.dur_ns.store(dur_ns, std::memory_order_relaxed);
  slot.event.store(static_cast<std::uint32_t>(id),
                   std::memory_order_relaxed);
  slot.a0.store(a0, std::memory_order_relaxed);
  slot.a1.store(a1, std::memory_order_relaxed);
  slot.a2.store(a2, std::memory_order_relaxed);
  // Publish after the payload so a drain at head h sees complete events
  // below h (only a wrap-around overwrite can tear).
  ring->head.store(head + 1, std::memory_order_release);
}

std::vector<FlightEvent> FlightRecorder::Drain() const {
  std::vector<FlightEvent> events;
  MutexLock lock(rings_mu_);
  for (const ThreadRing* ring : rings_) {
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    const std::uint64_t live =
        std::min<std::uint64_t>(head, kEventsPerThread);
    for (std::uint64_t i = head - live; i < head; ++i) {
      const Slot& slot = ring->slots[i % kEventsPerThread];
      FlightEvent event;
      event.ts_ns = slot.ts_ns.load(std::memory_order_relaxed);
      event.dur_ns = slot.dur_ns.load(std::memory_order_relaxed);
      event.event = slot.event.load(std::memory_order_relaxed);
      event.thread = ring->thread_index;
      event.args = {slot.a0.load(std::memory_order_relaxed),
                    slot.a1.load(std::memory_order_relaxed),
                    slot.a2.load(std::memory_order_relaxed)};
      events.push_back(event);
    }
  }
  // By start time; on a tie the longer span first, so an enclosing span
  // precedes what it contains.
  std::stable_sort(events.begin(), events.end(),
                   [](const FlightEvent& a, const FlightEvent& b) {
                     return a.ts_ns != b.ts_ns ? a.ts_ns < b.ts_ns
                                               : a.dur_ns > b.dur_ns;
                   });
  return events;
}

std::int64_t FlightRecorder::overwritten() const {
  std::int64_t total = 0;
  MutexLock lock(rings_mu_);
  for (const ThreadRing* ring : rings_) {
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    if (head > kEventsPerThread) {
      total += static_cast<std::int64_t>(head - kEventsPerThread);
    }
  }
  return total;
}

void FlightRecorder::Clear() {
  MutexLock lock(rings_mu_);
  for (ThreadRing* ring : rings_) {
    ring->head.store(0, std::memory_order_release);
  }
  dropped_.store(0, std::memory_order_relaxed);
}

void FlightRecorder::DumpToStderr(std::size_t max_events) const {
  if (max_events == 0) max_events = 64;
  const std::vector<FlightEvent> events = Drain();
  const std::size_t shown = std::min(events.size(), max_events);
  std::fprintf(stderr,
               "rankties: flight recorder post-mortem: %zu event(s), "
               "showing newest %zu (dropped %lld, overwritten %lld)\n",
               events.size(), shown, static_cast<long long>(dropped()),
               static_cast<long long>(overwritten()));
  for (std::size_t i = events.size() - shown; i < events.size(); ++i) {
    const FlightEvent& e = events[i];
    std::fprintf(stderr, "  [%lld ns] t%u %s dur=%lld (%lld, %lld, %lld)\n",
                 static_cast<long long>(e.ts_ns), e.thread,
                 FlightEventName(static_cast<FlightEventId>(e.event)),
                 static_cast<long long>(e.dur_ns),
                 static_cast<long long>(e.args[0]),
                 static_cast<long long>(e.args[1]),
                 static_cast<long long>(e.args[2]));
  }
}

}  // namespace obs
}  // namespace rankties
