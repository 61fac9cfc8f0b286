#include "allocation_hook.h"

#include <algorithm>
#include <cstdlib>
#include <new>

thread_local bool g_count_allocations = false;
thread_local std::int64_t g_allocation_count = 0;
thread_local std::size_t g_largest_allocation = 0;

namespace {

void* RecordedMalloc(std::size_t size) noexcept {
  if (g_count_allocations) {
    ++g_allocation_count;
    g_largest_allocation = std::max(g_largest_allocation, size);
  }
  return std::malloc(size);
}

}  // namespace

// noinline keeps GCC from pairing the malloc/free inside with new/delete
// expressions at call sites (-Wmismatched-new-delete false positives). The
// nothrow forms (std::stable_sort's buffer) are replaced too, so that under
// ASan every block the operator delete below frees came from malloc.
__attribute__((noinline)) void* operator new(std::size_t size) {
  void* ptr = RecordedMalloc(size);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

__attribute__((noinline)) void* operator new[](std::size_t size) {
  return operator new(size);
}
__attribute__((noinline)) void* operator new(std::size_t size,
                                             const std::nothrow_t&) noexcept {
  return RecordedMalloc(size);
}
__attribute__((noinline)) void* operator new[](std::size_t size,
                                               const std::nothrow_t&) noexcept {
  return RecordedMalloc(size);
}

__attribute__((noinline)) void operator delete(void* ptr) noexcept {
  std::free(ptr);
}
__attribute__((noinline)) void operator delete[](void* ptr) noexcept {
  std::free(ptr);
}
__attribute__((noinline)) void operator delete(void* ptr,
                                               std::size_t) noexcept {
  std::free(ptr);
}
__attribute__((noinline)) void operator delete[](void* ptr,
                                                 std::size_t) noexcept {
  std::free(ptr);
}
