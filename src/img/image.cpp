/// \file image.cpp
/// \brief Reachability fixpoints over the relation layer (the clustering and
/// scheduling machinery itself lives in src/rel/).

#include "img/image.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace leq {

namespace {

/// Saturation fixpoint: Ciardo-style locality-driven exploration, adapted so
/// it stays exact for synchronous conjunctive relations.  Firing a cluster
/// alone (the classic asynchronous formulation) would change the fixpoint
/// here — all latches step together — so instead the loop exploits the other
/// saturation ingredient: Img distributes over union, so the frontier can be
/// carved into chunks that are imaged independently, in event-locality
/// order, with immediate feedback.  Chunks split at the clusters' top
/// variables (`quant_schedule::cluster_tops`); a LIFO worklist saturates the
/// chunk rooted deepest in the variable order — the states that only differ
/// in low-locality latches — to a local fixpoint before older pending work
/// higher up propagates.  Every image application is the exact image of a
/// subset of reached states and every fresh state is enqueued exactly once,
/// so the closure is the same set every other strategy computes; BFS
/// depth/layering is not defined, so under saturation `depth` counts fires
/// (image applications that discovered new states) and `layer_states` the
/// per-fire discoveries.
reach_info saturate_fixpoint(const transition_relation& relation,
                             const bdd& init, std::uint32_t nbits,
                             bool layered) {
    bdd_manager& mgr = relation.manager();
    const image_options& options = relation.options();
    // distinct event-locality anchors read off the schedule
    std::vector<std::uint32_t> anchors;
    for (const std::uint32_t v : relation.schedule().cluster_tops()) {
        if (v == quant_schedule::no_top) { continue; }
        if (std::find(anchors.begin(), anchors.end(), v) == anchors.end()) {
            anchors.push_back(v);
        }
    }
    // the root-most anchor a chunk's support reaches; no_top when the chunk
    // sits entirely outside the anchored levels (then it is not split)
    const auto split_var = [&](const bdd& set) {
        std::uint32_t best = quant_schedule::no_top;
        for (const std::uint32_t v : mgr.support(set)) {
            if (std::find(anchors.begin(), anchors.end(), v) ==
                anchors.end()) {
                continue;
            }
            if (best == quant_schedule::no_top ||
                mgr.level_of(v) < mgr.level_of(best)) {
                best = v;
            }
        }
        return best;
    };

    reach_info info;
    info.reached = init;
    if (layered) { info.layer_states.push_back(mgr.sat_count(init, nbits)); }
    std::vector<bdd> work{init};
    while (!work.empty()) {
        // the relation checks the deadline between chain steps; this bounds
        // the fires themselves (see reach_fixpoint)
        throw_if_past(options.deadline);
        const bdd from = work.back();
        work.pop_back();
        const bdd img_cs = relation.image(from);
        const bdd fresh = img_cs & (!info.reached);
        if (fresh.is_zero()) { continue; }
        relation.record_saturation_fire();
        info.reached |= fresh;
        if (layered) {
            ++info.depth;
            info.layer_states.push_back(mgr.sat_count(fresh, nbits));
        }
        const std::uint32_t v = split_var(fresh);
        if (v == quant_schedule::no_top) {
            work.push_back(fresh);
        } else {
            // saturate the v=0 chunk (pushed last, popped first) to a local
            // fixpoint before the v=1 chunk, and both before older work
            const bdd hi = fresh & mgr.literal(v, true);
            const bdd lo = fresh & mgr.literal(v, false);
            if (!hi.is_zero()) { work.push_back(hi); }
            if (!lo.is_zero()) { work.push_back(lo); }
        }
    }
    if (layered) { info.total_states = mgr.sat_count(info.reached, nbits); }
    return info;
}

/// Shared fixpoint core of `reachable_states` / `reachable_states_layered`.
/// `layered` additionally records the BFS structure (per-layer sat counts).
///
/// Whatever the relation's internal schedule (greedy vs chaining), the loop
/// differs only in what each step images:
///
///   bfs                 Img(reached)   — the whole reached set
///   frontier/chaining   Img(frontier)  — only the states new in the last step
///
/// Every newly found state is a successor of *some* already-reached state, so
/// both variants add exactly the BFS layer `Img(R_k) \ R_k` per step (a
/// successor of an older layer is already inside R_k) and agree on depth and
/// layer contents; they differ only in the size of the operand BDD.  The
/// saturation strategy delegates to `saturate_fixpoint` above: identical
/// closure, but locality-ordered chunk processing instead of global layers.
reach_info reach_fixpoint(const transition_relation& relation, const bdd& init,
                          std::uint32_t nbits, bool layered) {
    if (relation.options().strategy == reach_strategy::saturation) {
        return saturate_fixpoint(relation, init, nbits, layered);
    }
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
