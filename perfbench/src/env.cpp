#include "env.hpp"

#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

bool pin_to(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
}

/// Median round trip (ns) of one cache line bounced between two threads,
/// over `batches` batches of `trips` round trips each. A spinning side
/// gives up after ~1 s so a descheduled partner cannot hang the run.
double line_roundtrip(int cpu_a, int cpu_b, bool& pinned) {
  constexpr int kBatches = 7;
  constexpr int kTrips = 4000;
  alignas(64) std::atomic<std::uint64_t> line{0};
  std::atomic<bool> give_up{false};
  std::atomic<bool> b_pinned{true};

  auto wait_for = [&](std::uint64_t v) {
    const std::uint64_t deadline = now_ns() + 1'000'000'000ULL;
    std::uint32_t spins = 0;
    while (line.load(std::memory_order_acquire) != v) {
      cpu_relax();
      if ((++spins & 0xFFF) == 0 &&
          (give_up.load(std::memory_order_relaxed) || now_ns() > deadline)) {
        give_up.store(true, std::memory_order_relaxed);
        return false;
      }
    }
    return true;
  };

  std::thread partner([&] {
    b_pinned.store(pin_to(cpu_b), std::memory_order_relaxed);
    for (std::uint64_t i = 1;; i += 2) {
      if (!wait_for(i)) return;
      line.store(i + 1, std::memory_order_release);
      if (i + 1 == 2ULL * kBatches * kTrips) return;
    }
  });

  // Pin this thread for the measurement only; restore its mask after.
  cpu_set_t old;
  CPU_ZERO(&old);
  const bool have_old =
      pthread_getaffinity_np(pthread_self(), sizeof(old), &old) == 0;
  const bool a_pinned = pin_to(cpu_a);

  std::vector<double> per_trip;
  std::uint64_t v = 0;
  for (int b = 0; b < kBatches && !give_up.load(); ++b) {
    const std::uint64_t t0 = now_ns();
    int t = 0;
    for (; t < kTrips; ++t) {
      line.store(++v, std::memory_order_release);
      if (!wait_for(++v)) break;
    }
    if (t < kTrips) break;
    per_trip.push_back(static_cast<double>(now_ns() - t0) / kTrips);
  }
  give_up.store(true);
  partner.join();
  if (have_old) pthread_setaffinity_np(pthread_self(), sizeof(old), &old);
  pinned = a_pinned && b_pinned.load();
  return median(per_trip);
}

}  // namespace

EnvRecord measure_env() {
  EnvRecord r;
  r.hw_threads = std::thread::hardware_concurrency();
  const int a = 0;
  const int b = r.hw_threads > 1 ? 1 : 0;
  bool pinned = false;
  r.line_roundtrip_ns = line_roundtrip(a, b, pinned);
  if (pinned) {
    r.cpu_a = a;
    r.cpu_b = b;
  }
  if (std::FILE* f = std::fopen("/proc/loadavg", "r")) {
    if (std::fscanf(f, "%lf %lf %lf", &r.load1, &r.load5, &r.load15) != 3) {
      r.load1 = r.load5 = r.load15 = 0;
    }
    std::fclose(f);
  }
  return r;
}

std::string EnvRecord::to_json() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"cpu_a\": %d, \"cpu_b\": %d, \"line_roundtrip_ns\": %.3f, "
                "\"loadavg\": [%.2f, %.2f, %.2f], \"hw_threads\": %u}",
                cpu_a, cpu_b, line_roundtrip_ns, load1, load5, load15,
                hw_threads);
  return buf;
}

long long rss_bytes() {
  long long pages = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    long long size = 0;
    if (std::fscanf(f, "%lld %lld", &size, &pages) != 2) pages = 0;
    std::fclose(f);
  }
  return pages * static_cast<long long>(sysconf(_SC_PAGESIZE));
}

}  // namespace perfbench
