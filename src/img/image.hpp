/// \file image.hpp
/// \brief Reachability fixpoints over the shared transition-relation
/// subsystem in `src/rel/`.
///
/// The paper reformulates every language-equation operation as an image
/// computation over partitioned relations (Section 3.2) precisely so that a
/// decade of image-computation research applies.  The machinery itself —
/// partition clustering (greedy/affinity policies), per-cluster
/// quantification schedules, image/preimage execution and statistics — lives
/// in `rel/relation.hpp` (`transition_relation`), which computes
///
///     Img(y) = exists x . p_1 & p_2 & ... & p_n & from(x)
///
/// folding the conjunctions one cluster at a time and quantifying each
/// variable as soon as the remaining clusters no longer mention it.
/// `image_options` / `reach_strategy` are defined by the
/// relation layer and re-exported here; see rel/relation.hpp for the full
/// option semantics (deadline behavior included) and the
/// one-manager-per-thread confinement rule, which applies to the
/// fixpoints below unchanged.
#pragma once

#include "rel/relation.hpp"

#include <cstdint>
#include <vector>

namespace leq {

/// Symbolic forward reachability over partitioned next-state functions.
///
/// Honors `options.deadline` (throws `relation_deadline_exceeded`).
///
/// \param next_state T_k(i, cs) per latch
/// \param cs_vars / ns_vars current/next state variable ids per latch
/// \param input_vars the variables quantified each step (inputs)
/// \param init initial-state set over cs_vars
/// \returns the set of reachable states over cs_vars
[[nodiscard]] bdd reachable_states(bdd_manager& mgr,
                                   const std::vector<bdd>& next_state,
                                   const std::vector<std::uint32_t>& cs_vars,
                                   const std::vector<std::uint32_t>& ns_vars,
                                   const std::vector<std::uint32_t>& input_vars,
                                   const bdd& init,
                                   const image_options& options = {});

/// Layered forward reachability: the same fixpoint, additionally reporting
/// the BFS structure (sequential depth and states first reached per layer).
/// Under `reach_strategy::saturation` no BFS structure exists, so the fields
/// report the saturation trace instead: `depth` counts fires (image
/// applications that discovered new states) and `layer_states` the per-fire
/// discoveries — `reached`/`total_states` are strategy-independent.
struct reach_info {
    bdd reached;        ///< all reachable states over cs_vars
    std::size_t depth = 0; ///< number of images until the fixpoint
    std::vector<double> layer_states; ///< new states per layer (layer 0 = init)
    double total_states = 0;          ///< sat-count of `reached`
};
[[nodiscard]] reach_info
reachable_states_layered(bdd_manager& mgr, const std::vector<bdd>& next_state,
                         const std::vector<std::uint32_t>& cs_vars,
                         const std::vector<std::uint32_t>& ns_vars,
                         const std::vector<std::uint32_t>& input_vars,
                         const bdd& init, const image_options& options = {});

/// The same layered fixpoint over a prebuilt structured relation, reusing
/// its clusters and schedules across sweeps instead of rebuilding them per
/// call.  `relation` must come from `transition_relation::next_state` with
/// `rename_image_to_current()` applied (images over cs variables) — throws
/// std::invalid_argument otherwise; `state_bits` sizes the sat-counts.
/// Strategy and deadline are read off the relation's options.
[[nodiscard]] reach_info
reachable_states_layered(const transition_relation& relation, const bdd& init,
                         std::uint32_t state_bits);

} // namespace leq
