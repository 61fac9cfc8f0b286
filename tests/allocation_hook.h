#ifndef RANKTIES_TESTS_ALLOCATION_HOOK_H_
#define RANKTIES_TESTS_ALLOCATION_HOOK_H_

// Allocation-recording hook for the allocation contracts tests check (the
// zero-allocation prepared kernels, the linear-space f-dagger DP): a test
// binary linked with allocation_hook.cc replaces global operator new/delete
// with pass-throughs that count the requests and keep the largest one while
// a test has armed them. Thread-local keeps the hook race-free without
// putting atomics on every allocation in the binary.

#include <cstddef>
#include <cstdint>

extern thread_local bool g_count_allocations;
extern thread_local std::int64_t g_allocation_count;
extern thread_local std::size_t g_largest_allocation;

#endif  // RANKTIES_TESTS_ALLOCATION_HOOK_H_
