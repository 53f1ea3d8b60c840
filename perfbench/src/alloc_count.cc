// Counting global operator new for the benchmark binary, so the library
// is measured from outside without touching src/:
//   - every heap allocation made on a thread bumps that thread's counter,
//     so a caller reads the exact number of allocations one library call
//     made (feedback.unpack_allocs, net.decode_allocs);
//   - usable bytes allocated minus freed, kept in one padded slot per
//     thread, sum to the live heap (heap_mb), which unlike RSS does not
//     depend on what the allocator happens to retain.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

#include "harness.h"

namespace {

struct alignas(64) Slot {
  std::atomic<std::int64_t> bytes{0};
};
constexpr int kSlots = 4096;  // threads ever created; later ones share the last
Slot g_slots[kSlots];
std::atomic<int> g_used{0};

thread_local std::uint64_t t_allocs = 0;
thread_local Slot* t_slot = nullptr;

Slot& my_slot() {
  if (t_slot == nullptr) {
    const int i = g_used.fetch_add(1, std::memory_order_relaxed);
    t_slot = &g_slots[i < kSlots ? i : kSlots - 1];
  }
  return *t_slot;
}

void* counted_alloc(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p != nullptr) {
    ++t_allocs;
    my_slot().bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                              std::memory_order_relaxed);
  }
  return p;
}

void counted_free(void* p) {
  if (p == nullptr) return;
  my_slot().bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                            std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

namespace perfbench {

std::uint64_t thread_allocs() { return t_allocs; }

double heap_live_mib() {
  const int used = std::min(g_used.load(std::memory_order_relaxed), kSlots);
  std::int64_t total = 0;
  for (int i = 0; i < used; ++i) total += g_slots[i].bytes.load(std::memory_order_relaxed);
  return static_cast<double>(total) / (1 << 20);
}

}  // namespace perfbench

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return counted_alloc(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return counted_alloc(n); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
