// Convenience alias: the relaxed-balance logical-ordering AVL tree
// (paper §4.1–4.5). Strictly AVL-balanced at quiescence (Bougé et al.).
#pragma once

#include "lo/map.hpp"

namespace lot::lo {

/// Concurrent internal AVL map with lock-free contains/get, on-time
/// deletion, and relaxed balancing decoupled from lookups. See LoMap for
/// the full API. Translation units that define LOT_SCHEDULE_PERTURB get
/// the schedule-perturbation hooks inside the update and rotation race
/// windows (tests/stress/).
template <typename K, typename V, typename Compare = std::less<K>,
          typename Alloc = reclaim::PoolNodeAlloc>
using AvlMap = LoMap<K, V, Compare, /*Balanced=*/true, Alloc>;

}  // namespace lot::lo
