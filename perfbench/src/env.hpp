// The host's state beside each result: a record, not a metric. A run that
// lands on a slower host placement (the cache-line round trip between two
// worker CPUs jumps) or a busy machine (load average) then shows that in
// its record instead of reading as a regression.
#pragma once

#include <string>

namespace perfbench {

struct EnvRecord {
  int cpu_a = -1;                 // the two CPUs the round trip ran on
  int cpu_b = -1;                 // (-1: could not pin, ran unpinned)
  double line_roundtrip_ns = 0;   // median cache-line ping-pong round trip
  double load1 = 0, load5 = 0, load15 = 0;
  unsigned hw_threads = 0;

  std::string to_json() const;
};

/// Takes ~20 ms: a two-thread ping-pong on one cache line plus
/// /proc/loadavg.
EnvRecord measure_env();

/// Resident set size of this process, in bytes (0 if unavailable).
long long rss_bytes();

}  // namespace perfbench
