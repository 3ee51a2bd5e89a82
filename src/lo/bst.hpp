// Convenience alias: the unbalanced logical-ordering BST (paper §4.6).
#pragma once

#include "lo/map.hpp"

namespace lot::lo {

/// Concurrent internal BST with lock-free contains/get and on-time
/// deletion; no balancing (expected O(log n) paths only under uniform
/// keys). See LoMap for the full API. Translation units that define
/// LOT_SCHEDULE_PERTURB get the schedule-perturbation hooks inside the
/// insert/remove/relocate race windows (tests/stress/).
template <typename K, typename V, typename Compare = std::less<K>,
          typename Alloc = reclaim::PoolNodeAlloc>
using BstMap = LoMap<K, V, Compare, /*Balanced=*/false, Alloc>;

}  // namespace lot::lo
