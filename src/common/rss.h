// Process resident-set-size probe, for the memory-ceiling checks in the
// fleet soak (perf_gate_test) and the serve stats block. Linux-only in
// practice (/proc/self/status); elsewhere it degrades to 0 so callers can
// gate on "unavailable" instead of failing.
#pragma once

#include <cstddef>

namespace deepcsi::common {

// Current VmRSS in bytes, or 0 when the platform cannot report it.
std::size_t process_rss_bytes();

}  // namespace deepcsi::common
