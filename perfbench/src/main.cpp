// The library's benchmark: three fixed workloads against the default
// build, closed-loop with 4 worker threads and a coordinator thread that
// only sleeps and samples. perfbench/README.md explains the workloads,
// the metrics and the correctness gate; perfbench/run.py builds this
// binary and runs it.
//
//   perfbench --workload churn-large --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. The exit code is
// non-zero when any correctness check fails.
#include <sys/stat.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "health/governor.hpp"
#include "lo/avl.hpp"
#include "obs/obs.hpp"
#include "reclaim/alloc_stats.hpp"
#include "reclaim/ebr.hpp"
#include "reclaim/pool.hpp"
#include "shard/validate.hpp"
#include "shard/sharded_map.hpp"
#include "util/random.hpp"

#include "env.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using Key = std::int64_t;
using Val = std::int64_t;
using Tree = lot::lo::AvlMap<Key, Val>;
using Sharded = lot::shard::ShardedMap<Tree, 4>;

constexpr unsigned kWorkers = 4;
/// A scan covers [lo, lo + kScanSpan): at the steady-state density of 1/2
/// that holds ~64 keys.
constexpr Key kScanSpan = 128;
constexpr double kWindowSeconds = 0.5;
constexpr double kSampleSeconds = 0.02;  // coordinator gauge sampling
constexpr std::size_t kSpanCap = 1 << 17;  // spans per thread, traced run

struct Workload {
  const char* name;
  bool sharded;
  Key key_range;
  unsigned contains_pct, insert_pct, erase_pct, scan_pct;
  unsigned sample_shift;  // point-op latency sampled 1-in-2^shift
  unsigned trace_shift;   // of those, 1-in-2^shift become span roots
  int setups;             // timed set-ups per run (setup_s is their median)
};

// Mixes are percentages; every workload is prefilled to half its key
// range, the steady state of its (balanced) insert/erase mix.
constexpr Workload kWorkloads[] = {
    {"churn-large", false, 2'000'000, 50, 25, 25, 0, 6, 2, 5},
    {"read-small", false, 20'000, 100, 0, 0, 0, 10, 2, 101},
    {"snapshot-scan-sharded", true, 20'000, 70, 10, 10, 10, 3, 4, 21},
};

enum class Inject { kNone, kDropErase, kScanDisorder };

struct Options {
  const Workload* wl = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;  // 1/100 key range, for the smoke tests
  Inject inject = Inject::kNone;
  std::string out_dir = ".bench_out";
};

// ------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value;
  const char* unit;
  std::uint64_t samples;  // 0: not a sampled statistic
};

// The end-to-end metrics of the untraced run's JSON line. Keep in sync
// with BENCHMARK.json (test_perfbench.py checks it). The run also prints,
// but does not put in the JSON, the metrics that some workload lacks
// (update and scan latency) or that are 0 by design (failed_op_share).
constexpr const char* kEndToEnd[] = {"throughput_mops", "contains_p50_ns",
                                    "setup_s", "rss_bytes_per_key"};

// ------------------------------------------------------- per-thread state

enum Phase : int { kWarm, kMeasure, kStop };

struct alignas(64) Worker {
  std::atomic<std::uint64_t> ops{0};  // single writer; coordinator reads
  std::uint64_t inserts_ok = 0;
  std::uint64_t erases_ok = 0;
  std::uint64_t updates = 0;
  std::uint64_t scans = 0;
  std::uint64_t failed = 0;
  std::string first_failure;
  std::vector<std::uint32_t> contains_ns, update_ns;
  std::vector<std::uint64_t> scan_ns;
  // Traced windows only: scan phases timed around each library call.
  std::vector<std::uint32_t> acquire_ns, release_ns;
  std::uint64_t range_ns = 0, range_keys = 0;
  SpanBuffer spans;
  // Injection counters (negative controls).
  std::uint64_t erase_calls = 0, scan_calls = 0;

  void fail(const std::string& what) {
    if (failed++ == 0) first_failure = what;
  }
};

struct alignas(64) Shared {
  std::atomic<int> phase{kWarm};
  std::atomic<bool> tracing{false};
};

std::uint64_t thread_seed(std::uint64_t seed, std::uint64_t tid,
                          std::uint64_t stream) {
  lot::util::SplitMix64 sm(seed * 0x9E3779B97F4A7C15ULL + tid * 1000003 +
                           stream * 0x632BE59BD9B4E019ULL);
  return sm.next();
}

// ---------------------------------------------------------- driven map

/// The map as the benchmark drives it. `inject` turns it into one of the
/// correctness gate's negative controls: a map that silently drops one
/// erase in 10^4 (claims success, keeps the key), or one whose scan comes
/// back out of order once in 10^3.
template <typename Map>
bool do_erase(Map& map, Key k, Inject inject, Worker& w) {
  if (inject == Inject::kDropErase && ++w.erase_calls % 10'000 == 0) {
    return map.contains(k);
  }
  return map.erase(k);
}

inline void maybe_disorder(std::vector<Key>& keys, Inject inject,
                           Worker& w) {
  if (inject == Inject::kScanDisorder && keys.size() >= 2 &&
      ++w.scan_calls % 1'000 == 0) {
    std::swap(keys[0], keys[1]);
  }
}

// ---------------------------------------------------------------- crew

/// A fixed set of worker threads. A set-up or the run hands each of them
/// one job and waits for all of them, so thread creation is never timed.
class Crew {
 public:
  Crew() {
    for (unsigned t = 0; t < kWorkers; ++t) {
      threads_.emplace_back([this, t] { loop(t); });
    }
  }
  ~Crew() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      quit_ = true;
      ++generation_;
    }
    wake_.notify_all();
    for (auto& th : threads_) th.join();
  }
  Crew(const Crew&) = delete;
  Crew& operator=(const Crew&) = delete;

  /// Starts job(tid) on every worker; returns at once.
  void start(std::function<void(unsigned)> job) {
    std::lock_guard<std::mutex> lk(mu_);
    job_ = std::move(job);
    done_ = 0;
    ++generation_;
    wake_.notify_all();
  }

  /// Waits until every worker has finished the current job.
  void wait() {
    std::unique_lock<std::mutex> lk(mu_);
    finished_.wait(lk, [this] { return done_ == kWorkers; });
  }

 private:
  void loop(unsigned t) {
    std::uint64_t seen = 0;
    for (;;) {
      std::function<void(unsigned)> job;
      {
        std::unique_lock<std::mutex> lk(mu_);
        wake_.wait(lk, [&] { return generation_ != seen; });
        seen = generation_;
        if (quit_) return;
        job = job_;
      }
      job(t);
      std::lock_guard<std::mutex> lk(mu_);
      if (++done_ == kWorkers) finished_.notify_all();
    }
  }

  std::mutex mu_;  // guards everything below but threads_
  std::condition_variable wake_, finished_;
  std::function<void(unsigned)> job_;
  std::uint64_t generation_ = 0;
  unsigned done_ = 0;
  bool quit_ = false;
  std::vector<std::thread> threads_;
};

// ------------------------------------------------------------- set-up

/// The workload's input: a seeded shuffle of the key range whose first
/// half is the resident set, inserted in that order.
struct Input {
  std::vector<Key> resident;
  std::vector<std::uint8_t> present;  // bitmap over the key range
};

Input make_input(Key range, std::uint64_t seed) {
  Input in;
  std::vector<Key> all(static_cast<std::size_t>(range));
  for (Key k = 0; k < range; ++k) all[static_cast<std::size_t>(k)] = k;
  lot::util::Xoshiro256 rng(thread_seed(seed, 0, 7));
  for (std::size_t i = all.size() - 1; i > 0; --i) {
    std::swap(all[i], all[rng.next_below(i + 1)]);
  }
  all.resize(all.size() / 2);
  in.resident = std::move(all);
  in.present.assign(static_cast<std::size_t>(range), 0);
  for (Key k : in.resident) in.present[static_cast<std::size_t>(k)] = 1;
  return in;
}

struct Built {
  std::uint64_t inserts_ok = 0;
  std::uint64_t erases_ok = 0;
  std::uint64_t failed = 0;
  std::string first_failure;
  double seconds = 0;
};

/// Workers meet here spinning, not sleeping, so a set-up's time does not
/// include the scheduler's wake-up latency.
class SpinBarrier {
 public:
  void arrive_and_wait() {
    const unsigned gen = generation_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == kWorkers) {
      arrived_.store(0, std::memory_order_relaxed);
      generation_.store(gen + 1, std::memory_order_release);
      return;
    }
    while (generation_.load(std::memory_order_acquire) == gen) {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    }
  }

 private:
  std::atomic<unsigned> arrived_{0};
  std::atomic<unsigned> generation_{0};
};

/// Construction plus prefill to steady state: the resident keys split
/// across the workers, then one round of the workload's update mix (one
/// update per resident key). Timed as setup_s: construction, then from
/// the moment every worker is running until the last one is done.
template <typename Map>
std::unique_ptr<Map> build(Crew& crew, const Workload& wl, Key range,
                           const Input& in, const Options& opt, Built& out) {
  const std::uint64_t c0 = now_ns();
  auto map = std::make_unique<Map>();
  const std::uint64_t construct_ns = now_ns() - c0;
  const bool updates = wl.insert_pct + wl.erase_pct > 0;
  std::vector<Worker> ws(kWorkers);
  SpinBarrier gate;
  std::uint64_t t_begin = 0, t_end = 0;  // written by worker 0 only
  crew.start([&](unsigned t) {
    Worker& w = ws[t];
    gate.arrive_and_wait();
    if (t == 0) t_begin = now_ns();
    const std::size_t n = in.resident.size();
    for (std::size_t i = n * t / kWorkers; i < n * (t + 1) / kWorkers; ++i) {
      const Key k = in.resident[i];
      if (map->insert(k, k)) {
        ++w.inserts_ok;
      } else {
        w.fail("prefill insert of fresh key " + std::to_string(k) +
               " returned false");
      }
    }
    gate.arrive_and_wait();  // the update round starts from the full set
    if (updates) {
      lot::util::Xoshiro256 rng(thread_seed(opt.seed, t, 11));
      for (std::size_t i = 0; i < n / kWorkers; ++i) {
        const Key k = static_cast<Key>(rng.next_below(range));
        if (rng.next_below(wl.insert_pct + wl.erase_pct) < wl.insert_pct) {
          w.inserts_ok += map->insert(k, k);
        } else {
          w.erases_ok += do_erase(*map, k, opt.inject, w);
        }
      }
    }
    gate.arrive_and_wait();
    if (t == 0) t_end = now_ns();
  });
  crew.wait();
  for (const Worker& w : ws) {
    out.inserts_ok += w.inserts_ok;
    out.erases_ok += w.erases_ok;
    out.failed += w.failed;
    if (out.first_failure.empty()) out.first_failure = w.first_failure;
  }
  out.seconds = static_cast<double>(construct_ns + (t_end - t_begin)) * 1e-9;
  return map;
}

// ------------------------------------------------------------ the loop

template <typename Map>
void worker_loop(const Workload& wl, Key range, const Options& opt,
                 const Input& in, Map& map, Shared& sh, Worker& w,
                 unsigned tid) {
  lot::util::Xoshiro256 rng(thread_seed(opt.seed, tid, 1));
  const std::uint64_t sample_mask = (1ULL << wl.sample_shift) - 1;
  const std::uint64_t trace_mask =
      (1ULL << (wl.sample_shift + wl.trace_shift)) - 1;
  const unsigned ins_cut = wl.contains_pct + wl.insert_pct;
  const unsigned erase_cut = ins_cut + wl.erase_pct;
  const bool check_contains = wl.insert_pct + wl.erase_pct == 0;
  std::vector<Key> keys;
  std::uint64_t n = 0;

  for (;;) {
    const int phase = sh.phase.load(std::memory_order_acquire);
    if (phase == kStop) break;
    const bool measuring = phase == kMeasure;
    const bool tracing = sh.tracing.load(std::memory_order_relaxed);
    for (int b = 0; b < 16; ++b) {
      ++n;
      const std::uint64_t op_id = (std::uint64_t{tid} << 48) | n;
      const unsigned dice = static_cast<unsigned>(rng.next_below(100));
      const Key k = static_cast<Key>(rng.next_below(range));
      const bool sample = measuring && (n & sample_mask) == 0;
      const bool span = tracing && sample && (n & trace_mask) == 0 &&
                        w.spans.has_room(1);

      if (dice < wl.contains_pct) {
        const std::uint64_t t0 = sample ? now_ns() : 0;
        const bool hit = map.contains(k);
        if (sample) {
          const std::uint64_t t1 = now_ns();
          w.contains_ns.push_back(static_cast<std::uint32_t>(t1 - t0));
          if (span) w.spans.add(SpanName::kOpContains, op_id, t0, t1);
        }
        if (check_contains &&
            hit != (in.present[static_cast<std::size_t>(k)] != 0)) {
          w.fail("contains(" + std::to_string(k) + ") disagrees with prefill");
        }
      } else if (dice < erase_cut) {
        const bool is_insert = dice < ins_cut;
        const std::uint64_t t0 = sample ? now_ns() : 0;
        if (is_insert) {
          w.inserts_ok += map.insert(k, k);
        } else {
          w.erases_ok += do_erase(map, k, opt.inject, w);
        }
        ++w.updates;
        if (sample) {
          const std::uint64_t t1 = now_ns();
          w.update_ns.push_back(static_cast<std::uint32_t>(t1 - t0));
          if (span) {
            w.spans.add(is_insert ? SpanName::kOpInsert : SpanName::kOpErase,
                        op_id, t0, t1);
          }
        }
      } else {
        // Snapshot scan: acquire + range + release, every one timed.
        const Key lo = k;
        const Key hi = lo + kScanSpan;
        keys.clear();
        bool values_ok = true;
        const std::uint64_t t0 = now_ns();
        auto snap = map.snapshot();
        const std::uint64_t t1 = tracing ? now_ns() : 0;
        snap.range(lo, hi, [&](const Key& key, const Val& v) {
          keys.push_back(key);
          values_ok &= v == key;
        });
        const std::uint64_t t2 = tracing ? now_ns() : 0;
        snap.release();
        const std::uint64_t t3 = now_ns();
        ++w.scans;
        if (measuring) w.scan_ns.push_back(t3 - t0);
        if (tracing) {
          w.acquire_ns.push_back(static_cast<std::uint32_t>(t1 - t0));
          w.release_ns.push_back(static_cast<std::uint32_t>(t3 - t2));
          w.range_ns += t2 - t1;
          w.range_keys += keys.size();
          if ((n & ((1ULL << wl.trace_shift) - 1)) == 0 &&
              w.spans.has_room(4)) {
            const std::int32_t root =
                w.spans.add(SpanName::kOpScan, op_id, t0, t3);
            w.spans.add(SpanName::kSnapshot, op_id, t0, t1, root);
            w.spans.add(SpanName::kSnapshotRange, op_id, t1, t2, root);
            w.spans.add(SpanName::kSnapshotRelease, op_id, t2, t3, root);
          }
        }
        maybe_disorder(keys, opt.inject, w);
        if (!values_ok) w.fail("scan reported a value that is not its key");
        for (std::size_t i = 0; i < keys.size(); ++i) {
          if (keys[i] < lo || keys[i] >= hi ||
              (i > 0 && keys[i] <= keys[i - 1])) {
            w.fail("scan [" + std::to_string(lo) + ", " + std::to_string(hi) +
                   ") not strictly ascending inside its bounds");
            break;
          }
        }
      }
      w.ops.store(n, std::memory_order_relaxed);
    }
  }
}

// ------------------------------------------------------ library surfaces

struct EbrTotals {
  std::uint64_t backpressure_hits = 0;
  std::size_t pending = 0;
  std::uint64_t max_lag = 0;
};

EbrTotals ebr_totals() {
  EbrTotals t;
  lot::reclaim::EbrDomain::for_each_domain([&](lot::reclaim::EbrDomain& d) {
    const auto s = d.stats();
    t.backpressure_hits += s.backpressure_hits;
    t.pending += s.pending_retired;
    t.max_lag = std::max(t.max_lag, s.epoch_lag);
  });
  return t;
}

template <typename Map>
std::vector<std::uint64_t> point_ops_per_shard(const Map& map) {
  std::vector<std::uint64_t> v;
  if constexpr (requires { map.shard_stats(0); }) {
    for (unsigned i = 0; i < Map::shard_count(); ++i) {
      v.push_back(map.shard_stats(i).point_ops);
    }
  }
  return v;
}

template <typename Map>
std::uint64_t ordered_ops_total(const Map& map) {
  std::uint64_t n = 0;
  if constexpr (requires { map.shard_stats(0); }) {
    for (unsigned i = 0; i < Map::shard_count(); ++i) {
      n += map.shard_stats(i).ordered_ops;
    }
  }
  return n;
}

template <typename Map>
constexpr unsigned shards_of() {
  if constexpr (requires { Map::shard_count(); }) {
    return Map::shard_count();
  } else {
    return 1;
  }
}

// --------------------------------------------------------------- output

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) s += ", ";
    s += "\"" + ms[i].name + "\": {\"value\": " + fmt(ms[i].value) +
         ", \"unit\": \"" + ms[i].unit + "\"";
    if (ms[i].samples > 0) s += ", \"samples\": " + std::to_string(ms[i].samples);
    s += "}";
  }
  return s + "}";
}

const Metric* find(const std::vector<Metric>& ms, std::string_view name) {
  for (const Metric& m : ms) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

// ------------------------------------------------------------------ run

template <typename Map>
int run(const Options& opt) {
  const Workload& wl = *opt.wl;
  const Key range = opt.tiny ? wl.key_range / 100 : wl.key_range;
  const int setups = opt.tiny ? 2 : wl.setups;
  const double warm_s = opt.tiny ? 0.2 : 1.0;
  const bool has_updates = wl.insert_pct + wl.erase_pct > 0;
  constexpr unsigned kShards = shards_of<Map>();

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d%s\n", wl.name,
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0, opt.tiny ? " size=tiny" : "");
  const EnvRecord env = measure_env();
  std::printf("env: line_roundtrip_ns=%.1f (cpus %d,%d) loadavg=%.2f %.2f %.2f\n",
              env.line_roundtrip_ns, env.cpu_a, env.cpu_b, env.load1,
              env.load5, env.load15);
  std::fflush(stdout);

  const Input in = make_input(range, opt.seed);
  SpanBuffer coord_spans(opt.trace ? setups + 1 : 0);  // set-ups + teardown
  const std::uint64_t origin = now_ns();

  // The measured map is built first, in a fresh process, so its RSS
  // growth and slab count are its own.
  std::vector<double> setup_s;
  Built built;
  Crew crew;
  const long long rss0 = rss_bytes();
  const std::uint64_t slabs0 = lot::reclaim::PoolStats::snapshot().slabs;
  const std::uint64_t tp0 = now_ns();
  std::unique_ptr<Map> map = build<Map>(crew, wl, range, in, opt, built);
  coord_spans.add(SpanName::kSetupPrefill, 0, tp0, now_ns());
  setup_s.push_back(built.seconds);
  const long long rss1 = rss_bytes();
  const std::size_t resident0 = map->size_slow();

  // ----- the run
  auto& reg = lot::obs::Registry::instance();
  const lot::obs::Snapshot s0 = reg.snapshot();
  const EbrTotals e0 = ebr_totals();
  const auto pool0 = lot::reclaim::PoolStats::snapshot();
  const auto h0 = lot::health::view();
  const auto point0 = point_ops_per_shard(*map);
  const std::uint64_t ordered0 = ordered_ops_total(*map);

  Shared sh;
  std::vector<Worker> ws(kWorkers);
  for (Worker& w : ws) w.spans = SpanBuffer(opt.trace ? kSpanCap : 0);
  crew.start([&](unsigned t) {
    worker_loop(wl, range, opt, in, *map, sh, ws[t], t);
  });

  auto total_ops = [&] {
    std::uint64_t n = 0;
    for (const Worker& w : ws) n += w.ops.load(std::memory_order_relaxed);
    return n;
  };
  std::size_t pending_peak = 0;
  std::uint64_t lag_max = 0;
  auto sleep_sampling = [&](std::uint64_t until) {
    for (;;) {
      const std::uint64_t t = now_ns();
      if (t >= until) return;
      const std::uint64_t step = std::min<std::uint64_t>(
          until - t, static_cast<std::uint64_t>(kSampleSeconds * 1e9));
      std::this_thread::sleep_for(std::chrono::nanoseconds(step));
      const EbrTotals e = ebr_totals();
      pending_peak = std::max(pending_peak, e.pending);
      lag_max = std::max(lag_max, e.max_lag);
    }
  };

  sleep_sampling(now_ns() + static_cast<std::uint64_t>(warm_s * 1e9));
  // Windows alternate traced/untraced in the traced run, so its trace
  // overhead is measured inside one process.
  const int windows =
      std::max(2, static_cast<int>(opt.seconds / kWindowSeconds + 0.5));
  // Per window Mop/s (a record of how steady the run was), and the ops
  // and time summed per kind of window: throughput is their ratio.
  std::vector<double> mops_plain, mops_traced;
  struct Rate {
    std::uint64_t ops = 0, ns = 0;
    double mops() const {
      return ns > 0 ? static_cast<double>(ops) * 1e3 / static_cast<double>(ns)
                    : 0.0;
    }
  } plain, traced;
  sh.tracing.store(opt.trace, std::memory_order_relaxed);
  sh.phase.store(kMeasure, std::memory_order_release);
  std::uint64_t t_prev = now_ns();
  std::uint64_t ops_prev = total_ops();
  for (int i = 0; i < windows; ++i) {
    sleep_sampling(t_prev + static_cast<std::uint64_t>(kWindowSeconds * 1e9));
    const std::uint64_t t = now_ns();
    const std::uint64_t ops = total_ops();
    const double mops = static_cast<double>(ops - ops_prev) * 1e3 /
                        static_cast<double>(t - t_prev);
    const bool was_traced = sh.tracing.load(std::memory_order_relaxed);
    (was_traced ? mops_traced : mops_plain).push_back(mops);
    Rate& r = was_traced ? traced : plain;
    r.ops += ops - ops_prev;
    r.ns += t - t_prev;
    if (opt.trace) sh.tracing.store(i % 2 == 1, std::memory_order_relaxed);
    t_prev = t;
    ops_prev = ops;
  }
  sh.phase.store(kStop, std::memory_order_release);
  crew.wait();

  const lot::obs::Snapshot s1 = reg.snapshot();
  const EbrTotals e1 = ebr_totals();
  const auto pool1 = lot::reclaim::PoolStats::snapshot();
  const auto h1 = lot::health::view();
  const auto point1 = point_ops_per_shard(*map);
  const std::uint64_t ordered1 = ordered_ops_total(*map);

  // ----- fold the workers
  std::uint64_t attempted = 0, failed = built.failed, updates = 0, scans = 0,
                range_ns = 0, range_keys = 0;
  std::uint64_t inserts_ok = built.inserts_ok, erases_ok = built.erases_ok;
  std::vector<std::uint32_t> contains_ns, update_ns, acquire_ns, release_ns;
  std::vector<std::uint64_t> scan_ns;
  std::string first_failure = built.first_failure;
  for (Worker& w : ws) {
    attempted += w.ops.load();
    failed += w.failed;
    if (first_failure.empty()) first_failure = w.first_failure;
    inserts_ok += w.inserts_ok;
    erases_ok += w.erases_ok;
    updates += w.updates;
    scans += w.scans;
    range_ns += w.range_ns;
    range_keys += w.range_keys;
    contains_ns.insert(contains_ns.end(), w.contains_ns.begin(),
                       w.contains_ns.end());
    update_ns.insert(update_ns.end(), w.update_ns.begin(), w.update_ns.end());
    scan_ns.insert(scan_ns.end(), w.scan_ns.begin(), w.scan_ns.end());
    acquire_ns.insert(acquire_ns.end(), w.acquire_ns.begin(),
                      w.acquire_ns.end());
    release_ns.insert(release_ns.end(), w.release_ns.begin(),
                      w.release_ns.end());
  }
  auto note_failure = [&](std::uint64_t n, const std::string& what) {
    if (n == 0) return;
    failed += n;
    if (first_failure.empty()) first_failure = what;
  };

  // ----- correctness gate (quiescent)
  const auto size_end = static_cast<std::int64_t>(map->size_slow());
  const auto size_expected =
      static_cast<std::int64_t>(inserts_ok) - static_cast<std::int64_t>(erases_ok);
  note_failure(static_cast<std::uint64_t>(std::abs(size_end - size_expected)),
               "final size " + std::to_string(size_end) + " != prefill + " +
                   "inserts - erases = " + std::to_string(size_expected));
  map->repair_balance();
  const lot::lo::ValidationReport rep = lot::lo::validate(*map, true);
  note_failure(rep.ok ? 0 : 1, "lo::validate: " + rep.to_string());
  const lot::obs::Snapshot d = [&] {
    lot::obs::Snapshot x;
    for (std::size_t i = 0; i < lot::obs::kCounterCount; ++i) {
      x.counters[i] = s1.counters[i] - s0.counters[i];
    }
    return x;
  }();
  using C = lot::obs::Counter;
  // A composite-snapshot scan counts one range op that makes no descent of
  // its own (its shard cursors count theirs), so the audit of a sharded
  // run is shifted by exactly the scan count.
  const std::int64_t contains_restarts =
      lot::obs::Snapshot::contains_restarts_between(s0, s1) +
      (kShards > 1 ? static_cast<std::int64_t>(scans) : 0);
  // Every composite scan adopts one MVCC view per shard.
  const std::uint64_t acquires = d.counter(C::kSnapshotAcquires) / kShards;
  note_failure(contains_restarts != 0 ? 1 : 0,
               "lo.contains_restarts = " + std::to_string(contains_restarts));
  note_failure(d.counter(C::kSnapshotAcquires) != scans * kShards ? 1 : 0,
               "snapshot acquires " +
                   std::to_string(d.counter(C::kSnapshotAcquires)) +
                   " != scans x shards");

  // ----- teardown, then the remaining timed set-ups
  const std::uint64_t td0 = now_ns();
  map.reset();
  lot::reclaim::EbrDomain::global_domain().flush();
  const std::uint64_t td1 = now_ns();
  coord_spans.add(SpanName::kTeardownDestroy, 0, td0, td1);
  // Each later set-up gets fresh worker threads, like the first one: a
  // thread that has touched more than 8 EBR domains or pools thrashes its
  // per-thread caches (reclaim/ebr.cpp TlsCache, reclaim/pool.cpp PoolTls
  // never evict dead entries), which makes every sharded set-up after the
  // first many times slower. perfbench/README.md records the finding.
  for (int i = 1; i < setups; ++i) {
    Crew fresh;
    Built b;
    const std::uint64_t t0 = now_ns();
    auto m = build<Map>(fresh, wl, range, in, opt, b);
    coord_spans.add(SpanName::kSetupPrefill, static_cast<std::uint64_t>(i), t0,
                    now_ns());
    setup_s.push_back(b.seconds);
    note_failure(b.failed, b.first_failure);
    m.reset();
    lot::reclaim::EbrDomain::global_domain().flush();
  }

  // ----- metrics
  const double kops = static_cast<double>(attempted) / 1e3;
  const double kupd = std::max(1.0, static_cast<double>(updates) / 1e3);
  const double resident = static_cast<double>(std::max<std::size_t>(1, resident0));
  auto per_kupd = [&](C c) {
    return has_updates ? static_cast<double>(d.counter(c)) / kupd : 0.0;
  };
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const std::uint64_t n_contains = contains_ns.size();
  const std::uint64_t n_update = update_ns.size();
  const std::uint64_t n_scan = scan_ns.size();

  std::vector<Metric> e2e = {
      {"throughput_mops", plain.mops(), "Mop/s", 0},
      {"contains_p50_ns", quantile(contains_ns, 0.50), "ns", n_contains},
      {"contains_p99_ns", quantile(contains_ns, 0.99), "ns", n_contains},
      {"setup_s", median(setup_s), "s", setup_s.size()},
      {"rss_bytes_per_key", static_cast<double>(rss1 - rss0) / resident, "B",
       0},
      {"failed_op_share", ratio(static_cast<double>(failed),
                                static_cast<double>(attempted)), "ratio", 0},
  };
  if (has_updates) {
    e2e.push_back({"update_p50_ns", quantile(update_ns, 0.50), "ns", n_update});
    e2e.push_back({"update_p99_ns", quantile(update_ns, 0.99), "ns", n_update});
  }
  if (wl.scan_pct > 0) {
    e2e.push_back({"scan_p50_us", quantile(scan_ns, 0.50) / 1e3, "us", n_scan});
    e2e.push_back({"scan_p99_us", quantile(scan_ns, 0.99) / 1e3, "us", n_scan});
  }

  std::vector<double> point_delta;
  for (std::size_t i = 0; i < point1.size(); ++i) {
    point_delta.push_back(static_cast<double>(point1[i] - point0[i]));
  }
  double imbalance = 0;
  if (!point_delta.empty()) {
    double sum = 0, mx = 0;
    for (double v : point_delta) {
      sum += v;
      mx = std::max(mx, v);
    }
    imbalance = ratio(mx, sum / static_cast<double>(point_delta.size()));
  }
  const double trace_overhead =
      opt.trace ? 1.0 - ratio(traced.mops(), plain.mops()) : 0.0;
  const std::uint64_t ins_ops = d.counter(C::kInsertOps);
  const std::uint64_t erase_ops = d.counter(C::kEraseOps);
  const auto size_for_pool = std::max<std::int64_t>(1, size_end);

  std::vector<Metric> layer = {
      {"lo.descents_per_op", ratio(static_cast<double>(d.counter(C::kTreeDescents)),
                                   static_cast<double>(attempted)), "ratio", 0},
      {"lo.contains_restarts", static_cast<double>(contains_restarts), "count", 0},
      {"lo.mark_backoffs_per_kop",
       ratio(static_cast<double>(d.counter(C::kLocateMarkBackoffs)), kops),
       "1/kop", 0},
      {"lo.tree_height", static_cast<double>(rep.height), "count", 0},
      {"lo.insert_success_ratio",
       ratio(static_cast<double>(d.counter(C::kInsertSuccess)),
             static_cast<double>(ins_ops)), "ratio", 0},
      {"lo.erase_success_ratio",
       ratio(static_cast<double>(d.counter(C::kEraseSuccess)),
             static_cast<double>(erase_ops)), "ratio", 0},
      {"lo.locate_resumes_per_kupdate", per_kupd(C::kLocateResumes),
       "1/kupdate", 0},
      {"lo.validation_fallbacks_per_kupdate", per_kupd(C::kValidationFallbacks),
       "1/kupdate", 0},
      {"lo.removal_lock_retries_per_kupdate", per_kupd(C::kRemovalLockRetries),
       "1/kupdate", 0},
      {"lo.erase_relocation_share",
       ratio(static_cast<double>(d.counter(C::kEraseRelocations)),
             static_cast<double>(d.counter(C::kEraseSuccess))), "ratio", 0},
      {"rebalance.rotations_per_kupdate", per_kupd(C::kRotations), "1/kupdate",
       0},
      {"rebalance.height_passes_per_update", per_kupd(C::kHeightPasses) / 1e3,
       "1/update", 0},
      {"rebalance.balance_restarts_per_kupdate", per_kupd(C::kBalanceRestarts),
       "1/kupdate", 0},
      {"rebalance.rotations_deferred_per_kupdate",
       per_kupd(C::kRotationsDeferred), "1/kupdate", 0},
      {"mvcc.snapshot_acquire_ns", quantile(acquire_ns, 0.50), "ns",
       acquire_ns.size()},
      {"mvcc.snapshot_release_ns", quantile(release_ns, 0.50), "ns",
       release_ns.size()},
      {"mvcc.snapshot_acquires", static_cast<double>(acquires), "count", 0},
      {"mvcc.versions_retired_per_kupdate", per_kupd(C::kVersionsRetired),
       "1/kupdate", 0},
      {"shard.scan_range_ns_per_key",
       ratio(static_cast<double>(range_ns), static_cast<double>(range_keys)),
       "ns", 0},
      {"shard.point_op_imbalance", imbalance, "ratio", 0},
      {"shard.ordered_ops_per_scan",
       ratio(static_cast<double>(ordered1 - ordered0), static_cast<double>(scans)),
       "ratio", 0},
      {"ebr.pending_retired_peak", static_cast<double>(pending_peak), "count", 0},
      {"ebr.epoch_lag_max", static_cast<double>(lag_max), "count", 0},
      {"ebr.backpressure_hits",
       static_cast<double>(e1.backpressure_hits - e0.backpressure_hits), "count",
       0},
      {"reclaim.teardown_s", static_cast<double>(td1 - td0) * 1e-9, "s", 0},
      {"pool.bytes_per_key",
       static_cast<double>((pool1.slabs - slabs0) *
                           lot::reclaim::SizePool::kSlabBytes) /
           static_cast<double>(size_for_pool),
       "B", 0},
      {"pool.fallback_allocs",
       static_cast<double>(pool1.fallback_allocs - pool0.fallback_allocs),
       "count", 0},
      {"pool.remote_free_share",
       ratio(static_cast<double>(pool1.remote_frees - pool0.remote_frees),
             static_cast<double>(pool1.frees - pool0.frees)), "ratio", 0},
      {"health.transitions", static_cast<double>(h1.transitions - h0.transitions),
       "count", 0},
      {"health.contention_events_per_kupdate",
       has_updates ? static_cast<double>(h1.contention_events -
                                         h0.contention_events) / kupd
                   : 0.0,
       "1/kupdate", 0},
      {"obs.trace_overhead", trace_overhead, "ratio", 0},
      {"contains_p99_ns", quantile(contains_ns, 0.99), "ns", n_contains},
      {"update_p50_ns", quantile(update_ns, 0.50), "ns", n_update},
      {"update_p99_ns", quantile(update_ns, 0.99), "ns", n_update},
      {"scan_p50_us", quantile(scan_ns, 0.50) / 1e3, "us", n_scan},
      {"scan_p99_us", quantile(scan_ns, 0.99) / 1e3, "us", n_scan},
      {"scan.count", static_cast<double>(scans), "count", 0},
      {"failed_op_share", ratio(static_cast<double>(failed),
                                static_cast<double>(attempted)), "ratio", 0},
  };

  // ----- report
  const bool correct = failed == 0;
  std::printf("window Mop/s:");
  for (double v : mops_plain) std::printf(" %.3f", v);
  std::printf("\n");
  const std::vector<Metric>& shown = opt.trace ? layer : e2e;
  for (const Metric& m : shown) {
    if (m.samples > 0) {
      std::printf("%-40s %14.4f %-9s (n=%llu)\n", m.name.c_str(), m.value,
                  m.unit, static_cast<unsigned long long>(m.samples));
    } else {
      std::printf("%-40s %14.4f %s\n", m.name.c_str(), m.value, m.unit);
    }
  }
  std::array<SelfTime, kSpanNames> self{};
  if (opt.trace) {
    std::vector<const SpanBuffer*> bufs;
    for (const Worker& w : ws) bufs.push_back(&w.spans);
    bufs.push_back(&coord_spans);
    self = self_times(bufs);
    std::printf("spans (self time):\n");
    for (std::size_t i = 0; i < kSpanNames; ++i) {
      if (self[i].count == 0) continue;
      std::printf("  %-24s n=%-8llu total=%.6fs self=%.6fs self/span=%.1fns\n",
                  span_name(static_cast<SpanName>(i)),
                  static_cast<unsigned long long>(self[i].count),
                  static_cast<double>(self[i].total_ns) * 1e-9,
                  static_cast<double>(self[i].self_ns) * 1e-9,
                  static_cast<double>(self[i].self_ns) /
                      static_cast<double>(self[i].count));
    }
    mkdir(opt.out_dir.c_str(), 0755);
    const std::string spans_path = opt.out_dir + "/" + wl.name + "-seed" +
                                   std::to_string(opt.seed) + ".spans.csv";
    if (!write_spans_csv(spans_path, bufs, origin)) {
      std::fprintf(stderr, "cannot write %s\n", spans_path.c_str());
      return 2;
    }
    std::printf("span file: %s\n", spans_path.c_str());
  }
  if (!correct) {
    std::printf("CORRECTNESS FAILURE (%llu): %s\n",
                static_cast<unsigned long long>(failed), first_failure.c_str());
  }

  // Record: every metric of the run, the host's state, the span summary.
  mkdir(opt.out_dir.c_str(), 0755);
  const std::string rec_path = opt.out_dir + "/" + wl.name + "-seed" +
                               std::to_string(opt.seed) + "-trace" +
                               (opt.trace ? "1" : "0") + ".json";
  if (std::FILE* f = std::fopen(rec_path.c_str(), "w")) {
    std::string self_json = "{";
    for (std::size_t i = 0; i < kSpanNames; ++i) {
      if (self[i].count == 0) continue;
      if (self_json.size() > 1) self_json += ", ";
      self_json += "\"" + std::string(span_name(static_cast<SpanName>(i))) +
                   "\": {\"count\": " + std::to_string(self[i].count) +
                   ", \"total_ns\": " + std::to_string(self[i].total_ns) +
                   ", \"self_ns\": " + std::to_string(self[i].self_ns) + "}";
    }
    self_json += "}";
    std::string windows_json = "[";
    for (double v : mops_plain) {
      if (windows_json.size() > 1) windows_json += ", ";
      windows_json += fmt(v);
    }
    windows_json += "]";
    std::string setups_json = "[";
    for (double v : setup_s) {
      if (setups_json.size() > 1) setups_json += ", ";
      setups_json += fmt(v);
    }
    setups_json += "]";
    std::fprintf(f,
                 "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
                 "\"trace\": %d, \"env\": %s, \"correct\": %s, "
                 "\"attempted\": %llu, \"failed\": %llu, \"metrics\": %s, "
                 "\"window_mops\": %s, \"setup_s\": %s, \"spans\": %s}\n",
                 wl.name, static_cast<unsigned long long>(opt.seed),
                 opt.seconds, opt.trace ? 1 : 0, env.to_json().c_str(),
                 correct ? "true" : "false",
                 static_cast<unsigned long long>(attempted),
                 static_cast<unsigned long long>(failed),
                 metrics_json(shown).c_str(), windows_json.c_str(),
                 setups_json.c_str(), self_json.c_str());
    std::fclose(f);
  }

  std::vector<Metric> out;
  if (opt.trace) {
    out = layer;
  } else {
    for (const char* name : kEndToEnd) out.push_back(*find(e2e, name));
  }
  for (Metric& m : out) m.samples = 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(1, attempted)),
              static_cast<unsigned long long>(failed),
              metrics_json(out).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<churn-large|read-small|snapshot-scan-sharded> --seed N "
               "--seconds S --trace 0|1 [--size tiny] "
               "[--inject drop-erase|scan-disorder] [--out DIR]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (v == w.name) opt.wl = &w;
      }
      if (opt.wl == nullptr) return usage(("unknown workload " + v).c_str());
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), nullptr);
      if (!(opt.seconds > 0 && opt.seconds <= 120)) {
        return usage("--seconds must be in (0, 120]");
      }
    } else if (a == "--trace") {
      opt.trace = v == "1";
    } else if (a == "--size") {
      opt.tiny = v == "tiny";
    } else if (a == "--inject") {
      if (v == "drop-erase") {
        opt.inject = Inject::kDropErase;
      } else if (v == "scan-disorder") {
        opt.inject = Inject::kScanDisorder;
      } else if (v != "none") {
        return usage(("unknown injection " + v).c_str());
      }
    } else if (a == "--out") {
      opt.out_dir = v;
    } else {
      return usage(("unknown flag " + a).c_str());
    }
  }
  if (opt.wl == nullptr) return usage("--workload is required");
  return opt.wl->sharded ? run<Sharded>(opt) : run<Tree>(opt);
}
