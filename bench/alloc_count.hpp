// Counting global allocator for the zero-steady-state-allocation gates of
// chip_bench and serve_bench.
//
// alloc_count.cpp replaces the global operator new / delete family. A
// replacement allocation function may not be inline and must be defined
// once per program, so the .cpp is compiled into exactly those two
// executables (not into lithogan_bench_common); every other bench keeps the
// default allocator.
#pragma once

#include <cstddef>

namespace lithogan::bench {

/// Resets the tally and starts counting every global operator new.
void start_alloc_count();

/// Stops counting and returns the allocations made since start_alloc_count.
std::size_t stop_alloc_count();

}  // namespace lithogan::bench
