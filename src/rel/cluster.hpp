/// \file cluster.hpp
/// \brief Partition clustering policies for the relation layer.
///
/// A transition relation arrives as a list of small conjuncts ("parts",
/// typically one `ns_k == T_k` per latch).  Conjoining some of them up front
/// — clustering — trades BDD size against the number of and-exists steps per
/// image.  The policies:
///
///  * greedy    adjacent merge: fold each part into the previous cluster
///              while the product stays below the node limit.  Cheap and
///              order-dependent; good when the declaration order already
///              groups related latches.
///  * affinity  IWLS95/Ranjan-style: repeatedly merge the *pair* of clusters
///              sharing the most support variables (ties: smallest merged
///              product), as long as the product stays below the node limit.
///              Clusters with disjoint support are never merged (no
///              quantification benefit, only a bigger BDD).  Groups parts by
///              variable locality, which is what lets the quantification
///              schedule retire variables early on machines whose latch
///              declaration order scatters coupled latches.
///
/// The node limit is an upper bound on every *merged* product; a single part
/// that is already larger than the limit is kept as its own cluster (parts
/// are never split).  A limit of 0 keeps the parts exactly as given under
/// either policy.
#pragma once

#include "bdd/bdd.hpp"
#include "rel/deadline.hpp"

#include <cstdint>
#include <vector>

namespace leq {

enum class cluster_policy : std::uint8_t { greedy, affinity };

/// Policy name for benchmark tables and diagnostics ("greedy", ...).
[[nodiscard]] const char* to_string(cluster_policy policy);

/// All policies, in a fixed order (benchmark/test sweeps).
inline constexpr cluster_policy all_cluster_policies[] = {
    cluster_policy::greedy, cluster_policy::affinity};

/// Merge `parts` into clusters under `policy`.  Every cluster formed by
/// merging two or more parts has dag_size <= cluster_limit; a limit of 0
/// disables merging entirely.  Checks `deadline` between merge products
/// (cluster construction is real BDD work; an armed solver timeout must be
/// able to interrupt it).
[[nodiscard]] std::vector<bdd>
cluster_parts(bdd_manager& mgr, const std::vector<bdd>& parts,
              cluster_policy policy, std::size_t cluster_limit,
              const relation_deadline& deadline = {});

} // namespace leq
