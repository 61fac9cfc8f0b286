#ifndef RANKTIES_UTIL_CONTRACTS_H_
#define RANKTIES_UTIL_CONTRACTS_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "util/build_config.h"

/// \file
/// The contract layer: debug-only invariant checks for the paper's
/// well-formedness preconditions (docs/STATIC_ANALYSIS.md).
///
///   RANKTIES_DCHECK(sigma.n() == tau.n());
///   RANKTIES_DCHECK_OK(order.Validate());
///   RANKTIES_BOUNDS(index, values.size());
///
/// Semantics follow the library's build, recorded at configure time as
/// RANKTIES_DCHECK_ENABLED (util/build_config.h), not the including
/// program's NDEBUG:
///  * Debug builds (no NDEBUG): a failed contract prints the expression,
///    file and line to stderr and aborts. `RANKTIES_DCHECK_OK` additionally
///    prints the Status / StatusOr error it observed.
///  * Release builds (NDEBUG): the condition is parsed and type-checked but
///    sits in a provably-dead branch, so it is never evaluated — contracts
///    cost zero cycles and the bench gate sees identical code. Never put a
///    side effect inside a contract argument.
///
/// Raw `assert(` is banned in src/ by tools/rankties_lint.py; these macros
/// are the replacement.

namespace rankties {
namespace contracts_internal {

/// Optional last-breath callback run right before a failed contract
/// aborts. The observability layer installs the flight-recorder
/// post-mortem dump here (src/obs/flight.h) so a contract violation
/// carries the last structured events that led up to it. Hooks must be
/// re-entrancy safe: a contract failing inside the hook must not recurse.
using FailureHook = void (*)();

inline std::atomic<FailureHook>& FailureHookSlot() {
  static std::atomic<FailureHook> hook{nullptr};
  return hook;
}

/// Installs `hook` (nullptr clears). Returns the previous hook.
inline FailureHook SetFailureHook(FailureHook hook) {
  return FailureHookSlot().exchange(hook, std::memory_order_acq_rel);
}

inline void RunFailureHook() {
  static thread_local bool t_in_hook = false;
  if (t_in_hook) return;  // a contract failed inside the hook itself
  const FailureHook hook =
      FailureHookSlot().load(std::memory_order_acquire);
  if (hook == nullptr) return;
  t_in_hook = true;
  hook();
  t_in_hook = false;
}

[[noreturn]] inline void ContractFailure(const char* macro, const char* expr,
                                         const char* file, int line) {
  std::fprintf(stderr, "rankties: contract violation: %s(%s) at %s:%d\n",
               macro, expr, file, line);
  RunFailureHook();
  std::abort();
}

[[noreturn]] inline void BoundsFailure(const char* index_expr,
                                       std::int64_t index,
                                       const char* size_expr,
                                       std::int64_t size, const char* file,
                                       int line) {
  std::fprintf(stderr,
               "rankties: contract violation: RANKTIES_BOUNDS(%s, %s): "
               "index %lld outside [0, %lld) at %s:%d\n",
               index_expr, size_expr, static_cast<long long>(index),
               static_cast<long long>(size), file, line);
  RunFailureHook();
  std::abort();
}

/// Accepts both Status (has ToString) and StatusOr<T> (has status()); the
/// header stays dependency-free of util/status.h by duck-typing the two.
template <typename StatusLike>
void DcheckOk(const StatusLike& status, const char* expr, const char* file,
              int line) {
  if (status.ok()) return;
  if constexpr (requires { status.ToString(); }) {
    std::fprintf(stderr,
                 "rankties: contract violation: RANKTIES_DCHECK_OK(%s): %s "
                 "at %s:%d\n",
                 expr, status.ToString().c_str(), file, line);
  } else {
    std::fprintf(stderr,
                 "rankties: contract violation: RANKTIES_DCHECK_OK(%s): %s "
                 "at %s:%d\n",
                 expr, status.status().ToString().c_str(), file, line);
  }
  RunFailureHook();
  std::abort();
}

template <typename Index, typename Size>
void CheckBounds(Index index, Size size, const char* index_expr,
                 const char* size_expr, const char* file, int line) {
  const auto i = static_cast<std::int64_t>(index);
  const auto s = static_cast<std::int64_t>(size);
  if (i < 0 || i >= s) {
    BoundsFailure(index_expr, i, size_expr, s, file, line);
  }
}

}  // namespace contracts_internal
}  // namespace rankties

#if RANKTIES_DCHECK_ENABLED

#define RANKTIES_DCHECK(condition)                          \
  (static_cast<bool>(condition)                             \
       ? static_cast<void>(0)                               \
       : ::rankties::contracts_internal::ContractFailure(   \
             "RANKTIES_DCHECK", #condition, __FILE__, __LINE__))

#define RANKTIES_DCHECK_OK(expr)                                         \
  ::rankties::contracts_internal::DcheckOk((expr), #expr, __FILE__,      \
                                           __LINE__)

#define RANKTIES_BOUNDS(index, size)                                      \
  ::rankties::contracts_internal::CheckBounds((index), (size), #index,    \
                                              #size, __FILE__, __LINE__)

#else  // !RANKTIES_DCHECK_ENABLED

// `false ? X : 0` keeps X parsed, type-checked and odr-used — contract
// expressions cannot bit-rot in release-only code paths — while the dead
// branch guarantees X is never evaluated at run time.
#define RANKTIES_DCHECK(condition) \
  (false ? static_cast<void>(static_cast<bool>(condition)) \
         : static_cast<void>(0))

#define RANKTIES_DCHECK_OK(expr) \
  (false ? static_cast<void>((expr).ok()) : static_cast<void>(0))

#define RANKTIES_BOUNDS(index, size)                          \
  (false ? static_cast<void>(::rankties::contracts_internal:: \
                                 CheckBounds((index), (size), "", "", "", 0)) \
         : static_cast<void>(0))

#endif  // RANKTIES_DCHECK_ENABLED

#endif  // RANKTIES_UTIL_CONTRACTS_H_
