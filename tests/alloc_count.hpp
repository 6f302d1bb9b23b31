// Counting global allocator for the zero-steady-state-allocation gates of
// runtime_gates_test.
//
// alloc_count.cpp replaces the global operator new / delete family. A
// replacement allocation function may not be inline and must be defined
// once per program, so the .cpp is compiled into that one test binary and
// no library; every other binary keeps the default allocator.
#pragma once

#include <cstddef>

namespace lithogan::test {

/// Resets the tally and starts counting every global operator new.
void start_alloc_count();

/// Stops counting and returns the allocations made since start_alloc_count.
std::size_t stop_alloc_count();

}  // namespace lithogan::test
