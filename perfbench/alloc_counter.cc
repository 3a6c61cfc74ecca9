// Counting global operator new for the traced binary (perfbench_traced).
// Follows tests/selfprof_test.cc: every global allocation bumps one counter
// and forwards to malloc; deletes forward to free. The benchmark reads the
// counter around Simulator::Run to report heap allocations per simulated
// request (host.allocs_per_request). The untraced binary does not link this
// file, so its end-to-end timings carry no counting cost.
#include <cstdlib>
#include <new>

#include "perfbench/alloc_counter.h"

namespace perfbench {
// The simulator is single-threaded and the benchmark runs one thread, so a
// plain counter is exact.
std::uint64_t g_allocations = 0;
}  // namespace perfbench

void* operator new(std::size_t size) {
  ++perfbench::g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

// libstdc++'s temporary buffers (stable_sort) allocate through the nothrow
// form; it must pair with the free-based delete below.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++perfbench::g_allocations;
  return std::malloc(size == 0 ? 1 : size);
}

// All global operators are replaced as a matched malloc/free set, but GCC's
// pairing analysis only sees free() applied to new-expression results.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
#pragma GCC diagnostic pop
