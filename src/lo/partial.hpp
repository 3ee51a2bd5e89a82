// The paper's "logical removing" variation (§6): a partially-external
// logical-ordering tree. A removal of a node with two children only flags
// the node `deleted` — it stays in both layouts — and a later insert of
// the same key revives it in place, saving an allocation. The node is
// physically removed only once a subsequent operation finds it with at
// most one child (opportunistic purge). This trades the main algorithm's
// on-time deletion for allocation reuse, exactly the tradeoff Table 1/2
// compare ("logical removing" series).
//
// Since PR 4 this is a thin instantiation of the shared engine in
// lo/core.hpp: PartialMap = LoCore over the LogicalRemoving removal policy
// and the PartialNode layout (lo/node.hpp), which own the `deleted` flag
// and the atomic value slot. The `deleted` flag is protected by the
// predecessor's succ_lock (the same interval lock that guards
// insertion/removal of the key), so revive and logical-delete serialize;
// lock-free readers pair an acquire load of `deleted` with an atomic value
// slot (hence the TriviallyCopyable bound).
#pragma once

#include <functional>
#include <string_view>
#include <type_traits>

#include "lo/core.hpp"
#include "lo/node.hpp"
#include "reclaim/pool.hpp"

namespace lot::lo {

template <typename K, typename V, typename Compare = std::less<K>,
          bool Balanced = true,
          typename Alloc = reclaim::PoolNodeAlloc>
class PartialMap : public LoCore<K, V, Compare, Balanced, Alloc,
                                 LogicalRemoving, PartialNode> {
  static_assert(std::is_trivially_copyable_v<V>,
                "the logical-removing variant stores values in an atomic "
                "slot so revive can race with lock-free gets");

  using Base =
      LoCore<K, V, Compare, Balanced, Alloc, LogicalRemoving, PartialNode>;

 public:
  using Base::Base;

  static std::string_view name() {
    return Balanced ? "lo-avl-logical-removing" : "lo-bst-logical-removing";
  }
};

/// Table 1's "logical removing" AVL series.
template <typename K, typename V, typename Compare = std::less<K>,
          typename Alloc = reclaim::PoolNodeAlloc>
using PartialAvlMap = PartialMap<K, V, Compare, true, Alloc>;

/// Table 2's "logical removing" BST series.
template <typename K, typename V, typename Compare = std::less<K>,
          typename Alloc = reclaim::PoolNodeAlloc>
using PartialBstMap = PartialMap<K, V, Compare, false, Alloc>;

}  // namespace lot::lo
