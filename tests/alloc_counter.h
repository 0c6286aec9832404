// A global operator new/delete replacement that counts allocations, for
// tests that assert a path allocates nothing. Link alloc_counter.cpp into the
// test binary; counting only, so the rest of its suite runs normally.
#pragma once

#include <cstddef>

namespace hoyan::testing {

// Allocations made through any form of operator new since the process began.
size_t allocationCount();

}  // namespace hoyan::testing
