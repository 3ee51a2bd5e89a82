// Shard router (DESIGN.md §15): key → shard assignment plus per-shard
// routing telemetry.
//
// Partitioning is *striped block* partitioning over a power-of-two shard
// count: the key space is cut into contiguous blocks of 2^kBlockShift
// keys and block b lands on shard b mod N (one shift, one mask — no
// division, no per-key hashing state). Two properties motivate the
// stripe over a contiguous split of the key range:
//
//  * no resize/estimation problem — a contiguous split needs to know the
//    key distribution up front or rebalance later; stripes spread any
//    dense key interval across all shards automatically;
//  * locality within a block — workloads that scan short ranges (the
//    driver's scan_len is comparable to a block) mostly stay inside one
//    shard per block hop, while a zipfian point-op workload concentrates
//    its hottest ranks (0..2^kBlockShift-1) in a single shard — which is
//    exactly the hot-shard scenario the per-shard EBR/heat isolation is
//    built for, and what bench/ablation_shard.cpp measures.
//
// Correctness never depends on the assignment: every shard's cursor is
// sorted and the cross-shard ordered API re-merges globally (merge.hpp),
// so shard_of is pure routing policy. It must only be deterministic.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "sync/cacheline.hpp"

namespace lot::shard {

/// log2 of the stripe block size: 64 consecutive keys per block, sized to
/// keep short range scans shard-local while still interleaving at a
/// granularity far below any realistic hot range.
inline constexpr unsigned kBlockShift = 6;

/// Shard index for key k over `nshards` (power of two) shards. Signed
/// keys go through make_unsigned — negative keys wrap high, which is fine:
/// the assignment only needs to be deterministic, not order-preserving.
template <typename K>
constexpr std::size_t shard_of(const K& k, std::size_t nshards) {
  static_assert(std::is_integral_v<K>,
                "the shard router partitions integral key spaces; wrap "
                "other key types in an order-preserving encoding first");
  using U = std::make_unsigned_t<K>;
  return static_cast<std::size_t>(
      (static_cast<std::uint64_t>(static_cast<U>(k)) >> kBlockShift) &
      (nshards - 1));
}

/// Small dense per-thread number (0, 1, 2, ... in first-use order, never
/// reused) for striping per-thread telemetry. The cache is trivially
/// destructible, so the hot path is one TLS load and a compare.
inline std::size_t thread_ordinal() {
  static std::atomic<std::size_t> next{0};
  thread_local std::size_t ordinal = static_cast<std::size_t>(-1);
  if (ordinal == static_cast<std::size_t>(-1)) {
    ordinal = next.fetch_add(1, std::memory_order_relaxed);
  }
  return ordinal;
}

struct RouterStatsSnapshot {
  std::uint64_t point_ops = 0;
  std::uint64_t ordered_ops = 0;
};

/// Routing counters for all `Shards` shards of one map, striped per
/// thread. Point ops (insert/erase/contains/get) count against the one
/// shard they route to; ordered ops (min/max/for_each/range/first/
/// last_in_range/cursor/snapshot) touch every shard and count once per
/// shard they enter.
///
/// Each thread writes only its own stripe (thread_ordinal() mod
/// kStripes), a cacheline-aligned block holding every shard's counters,
/// so a sharded point op touches no line another running thread writes —
/// the same single-writer discipline as the obs counter shards. The add
/// is still a relaxed fetch_add, not the obs layer's load+store: past
/// kStripes threads two ordinals share a stripe, and the counts must stay
/// exact. On a line the thread owns the RMW stays core-local. snapshot()
/// sums the stripes: a lower bound mid-run, exact at quiescence.
template <unsigned Shards>
class RouterStats {
 public:
  static constexpr std::size_t kStripes = 16;

  void note_point(std::size_t shard) {
    mine().point_ops[shard].fetch_add(1, std::memory_order_relaxed);
  }
  void note_ordered(std::size_t shard) {
    mine().ordered_ops[shard].fetch_add(1, std::memory_order_relaxed);
  }

  RouterStatsSnapshot snapshot(std::size_t shard) const {
    RouterStatsSnapshot snap;
    for (const Stripe& s : stripes_) {
      snap.point_ops += s.point_ops[shard].load(std::memory_order_relaxed);
      snap.ordered_ops += s.ordered_ops[shard].load(std::memory_order_relaxed);
    }
    return snap;
  }

 private:
  struct alignas(sync::kCacheLineSize) Stripe {
    std::atomic<std::uint64_t> point_ops[Shards] = {};
    std::atomic<std::uint64_t> ordered_ops[Shards] = {};
  };

  Stripe& mine() { return stripes_[thread_ordinal() % kStripes]; }

  Stripe stripes_[kStripes];
};

}  // namespace lot::shard
