/// \file image.cpp
/// \brief Reachability fixpoints over the relation layer (the clustering and
/// scheduling machinery itself lives in src/rel/).

#include "img/image.hpp"

#include <cassert>
#include <stdexcept>

namespace leq {

namespace {

/// Shared fixpoint core of `reachable_states` / `reachable_states_layered`.
/// `layered` additionally records the BFS structure (per-layer sat counts).
///
/// The two strategies differ only in what each step images:
///
///   bfs        Img(reached)   — the whole reached set
///   frontier   Img(frontier)  — only the states new in the last step
///
/// Every newly found state is a successor of *some* already-reached state, so
/// both variants add exactly the BFS layer `Img(R_k) \ R_k` per step (a
/// successor of an older layer is already inside R_k) and agree on depth and
/// layer contents; they differ only in the size of the operand BDD.
reach_info reach_fixpoint(const transition_relation& relation, const bdd& init,
                          std::uint32_t nbits, bool layered) {
    bdd_manager& mgr = relation.manager();
    const image_options& options = relation.options();
    const bool image_full_set = options.strategy == reach_strategy::bfs;
    reach_info info;
    info.reached = init;
    if (layered) { info.layer_states.push_back(mgr.sat_count(init, nbits)); }
    bdd frontier = init;
    while (!frontier.is_zero()) {
        // the relation checks the deadline between chain steps; this check
        // bounds the fixpoint itself (many cheap images can outlast the
        // budget without any single chain step tripping)
        throw_if_past(options.deadline);
        const bdd& from = image_full_set ? info.reached : frontier;
        const bdd img_cs = relation.image(from);
        frontier = img_cs & (!info.reached);
        info.reached |= frontier;
        if (layered && !frontier.is_zero()) {
            ++info.depth;
            info.layer_states.push_back(mgr.sat_count(frontier, nbits));
        }
    }
    if (layered) { info.total_states = mgr.sat_count(info.reached, nbits); }
    return info;
}

/// Build the structured relation (images renamed back to cs) for the
/// vector-based entry points.
transition_relation
next_state_relation(bdd_manager& mgr, const std::vector<bdd>& next_state,
                    const std::vector<std::uint32_t>& cs_vars,
                    const std::vector<std::uint32_t>& ns_vars,
                    const std::vector<std::uint32_t>& input_vars,
                    const image_options& options) {
    assert(next_state.size() == cs_vars.size() &&
           cs_vars.size() == ns_vars.size());
    transition_relation relation = transition_relation::next_state(
        mgr, next_state, cs_vars, ns_vars, input_vars, options);
    relation.rename_image_to_current();
    return relation;
}

} // namespace

bdd reachable_states(bdd_manager& mgr, const std::vector<bdd>& next_state,
                     const std::vector<std::uint32_t>& cs_vars,
                     const std::vector<std::uint32_t>& ns_vars,
                     const std::vector<std::uint32_t>& input_vars,
                     const bdd& init, const image_options& options) {
    const transition_relation relation = next_state_relation(
        mgr, next_state, cs_vars, ns_vars, input_vars, options);
    return reach_fixpoint(relation, init,
                          static_cast<std::uint32_t>(cs_vars.size()),
                          /*layered=*/false)
        .reached;
}

reach_info reachable_states_layered(bdd_manager& mgr,
                                    const std::vector<bdd>& next_state,
                                    const std::vector<std::uint32_t>& cs_vars,
                                    const std::vector<std::uint32_t>& ns_vars,
                                    const std::vector<std::uint32_t>& input_vars,
                                    const bdd& init,
                                    const image_options& options) {
    const transition_relation relation = next_state_relation(
        mgr, next_state, cs_vars, ns_vars, input_vars, options);
    return reach_fixpoint(relation, init,
                          static_cast<std::uint32_t>(cs_vars.size()),
                          /*layered=*/true);
}

reach_info reachable_states_layered(const transition_relation& relation,
                                    const bdd& init,
                                    std::uint32_t state_bits) {
    if (!relation.has_preimage() || !relation.renames_result()) {
        // without the ns->cs renaming the fixpoint would compare images
        // over ns against a reached set over cs and silently diverge
        throw std::invalid_argument(
            "reachable_states_layered: relation must come from "
            "transition_relation::next_state with rename_image_to_current()");
    }
    return reach_fixpoint(relation, init, state_bits, /*layered=*/true);
}

} // namespace leq
