// Heap-allocation counter of the traced binary (see alloc_counter.cc). The
// untraced binary is built without PERFBENCH_COUNT_ALLOCS and reads 0.
#ifndef PERFBENCH_ALLOC_COUNTER_H_
#define PERFBENCH_ALLOC_COUNTER_H_

#include <cstdint>

namespace perfbench {

#ifdef PERFBENCH_COUNT_ALLOCS
extern std::uint64_t g_allocations;
inline std::uint64_t AllocationCount() { return g_allocations; }
#else
inline std::uint64_t AllocationCount() { return 0; }
#endif

}  // namespace perfbench

#endif  // PERFBENCH_ALLOC_COUNTER_H_
