/// \file subset_common.hpp
/// \brief Machinery shared by the partitioned and monolithic subset
/// constructions: (u,v)-cofactor class extraction, the worklist driver,
/// progressive trimming and assembly of the final CSF automaton.
#pragma once

#include "automata/automaton.hpp"
#include "bdd/bdd.hpp"
#include "eq/solver.hpp"

#include <chrono>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

namespace leq::detail {

/// Copy of `options` with the relation-layer deadline armed from
/// `time_limit_seconds` (when a limit is set and no deadline is present).
/// A limit too large for `steady_clock` to represent as a time point (past
/// half its remaining range, about 146 years) leaves the deadline unset:
/// the solve is then as good as unlimited.
/// Solvers pass the result to their transition relations and to the driver,
/// so a deep image chain *inside* one subset expansion trips the timeout
/// (the driver's own check only runs between expansions).
[[nodiscard]] solve_options with_deadline(const solve_options& options);

/// A timeout-status result with `seconds` measured from `start` (shared by
/// the driver and both solvers' deadline handlers).
[[nodiscard]] solve_result
timeout_result(std::chrono::steady_clock::time_point start);

/// Fold one relation's shape and counters into a solve's aggregate stats
/// (both flows call this once per transition relation they built).
void accumulate_stats(solve_stats& stats, const transition_relation& rel);

/// Snapshot the manager-side counters into a finished solve's stats: live
/// nodes (forces a count) plus total and per-op computed-cache traffic.
/// Every solver exit path — success or deadline — calls this last.
void read_manager_stats(solve_stats& stats, bdd_manager& mgr);

/// One (u,v)-cofactor class of an image P(u,v,ns): the set of (u,v)
/// assignments (guard) that lead to the same successor state set (leaf, over
/// the ns variables).
struct cofactor_class {
    bdd guard; ///< over the (u,v) block
    bdd leaf;  ///< successor set over ns variables (never constant false)
};

/// Split P into its cofactor classes with respect to the top block of the
/// variable order (levels < boundary).  Relies on the problem's variable
/// order: every (u,v) variable is above `boundary`, everything else below,
/// so the classes are exactly the distinct sub-BDDs hanging off the block
/// and each guard is read off with one memoized traversal.
[[nodiscard]] std::vector<cofactor_class>
split_by_top_block(bdd_manager& mgr, const bdd& p, std::uint32_t boundary);

/// Result of expanding one subset state.
struct expansion {
    std::vector<cofactor_class> successors; ///< guard -> successor subset
    bdd to_dca;                             ///< guard of undefined (u,v)
};

/// Generic subset-construction driver.  `expand` maps a subset state (over
/// current-state variables) to its successor classes (leaves over
/// next-state variables).  The driver interns the leaves as they are, over
/// ns, and renames a subset to cs once, when it is expanded, instead of
/// once per successor edge.  Subsets are numbered in discovery order and
/// expanded in that order (breadth first); the CSF keeps the numbering.
/// Returns the CSF after progressive trimming, or an early status on
/// limits.
struct subset_driver {
    bdd_manager& mgr;
    std::vector<std::uint32_t> uv_vars;    ///< u then v (label variables)
    std::vector<std::uint32_t> u_vars;     ///< X's inputs (progressive set)
    /// The cs<->ns swap: renames an interned (ns) subset to cs once per
    /// expansion, and the initial state (cs) into ns space once.
    std::vector<std::uint32_t> ns_to_cs;
    const solve_options& options;

    /// DCN-type subsets (those meeting an accepting product state) must be
    /// filtered inside `expand`, as the paper's trimming does: the driver
    /// treats every interned subset as conforming.
    [[nodiscard]] solve_result
    run(const bdd& initial_state,
        const std::function<expansion(const bdd&)>& expand) const;
};

} // namespace leq::detail
