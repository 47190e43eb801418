/// \file relation.cpp
/// \brief transition_relation: clustering + schedule assembly, image and
/// preimage execution, statistics.

#include "rel/relation.hpp"

#include <stdexcept>

namespace leq {

const char* to_string(reach_strategy strategy) {
    switch (strategy) {
    case reach_strategy::bfs: return "bfs";
    case reach_strategy::frontier: return "frontier";
    }
    return "?";
}

transition_relation::transition_relation(bdd_manager& mgr,
                                         std::vector<bdd> parts,
                                         std::vector<std::uint32_t> quantify,
                                         const image_options& options)
    : mgr_(&mgr), parts_(std::move(parts)), options_(options) {
    build(quantify);
}

transition_relation::transition_relation(
    bdd_manager& mgr, std::vector<bdd> parts,
    std::vector<std::uint32_t> quantify, const image_options& options,
    const std::vector<std::uint32_t>& cs_vars,
    const std::vector<std::uint32_t>& ns_vars,
    const std::vector<std::uint32_t>& input_vars)
    : mgr_(&mgr), parts_(std::move(parts)), options_(options) {
    build(quantify);

    // preimage side: quantify inputs + ns over the same clusters.  Only the
    // quantify set is prepared here; the schedule itself is built lazily on
    // the first preimage() call, so image-only callers never pay for it.
    structured_ = true;
    pre_quantify_ = input_vars;
    pre_quantify_.insert(pre_quantify_.end(), ns_vars.begin(), ns_vars.end());

    cs_ns_swap_.resize(mgr.num_vars());
    for (std::uint32_t v = 0; v < cs_ns_swap_.size(); ++v) {
        cs_ns_swap_[v] = v;
    }
    for (std::size_t k = 0; k < cs_vars.size(); ++k) {
        cs_ns_swap_[ns_vars[k]] = cs_vars[k];
        cs_ns_swap_[cs_vars[k]] = ns_vars[k];
    }
}

transition_relation transition_relation::next_state(
    bdd_manager& mgr, const std::vector<bdd>& next_fns,
    const std::vector<std::uint32_t>& cs_vars,
    const std::vector<std::uint32_t>& ns_vars,
    const std::vector<std::uint32_t>& input_vars,
    const image_options& options) {
    if (next_fns.size() != cs_vars.size() ||
        cs_vars.size() != ns_vars.size()) {
        throw std::invalid_argument(
            "transition_relation::next_state: one cs/ns pair per function");
    }
    std::vector<bdd> parts;
    parts.reserve(next_fns.size());
    for (std::size_t k = 0; k < next_fns.size(); ++k) {
        parts.push_back(mgr.var(ns_vars[k]).iff(next_fns[k]));
    }
    std::vector<std::uint32_t> quantify = input_vars;
    quantify.insert(quantify.end(), cs_vars.begin(), cs_vars.end());
    return transition_relation(mgr, std::move(parts), std::move(quantify),
                               options, cs_vars, ns_vars, input_vars);
}

void transition_relation::build(const std::vector<std::uint32_t>& quantify) {
    clusters_ = cluster_parts(*mgr_, parts_, options_.policy,
                              options_.cluster_limit, options_.deadline);
    image_schedule_ = quant_schedule(*mgr_, clusters_, quantify);
    image_schedule_.describe(*mgr_, stats_);
}

bdd transition_relation::image(const bdd& from) const {
    ++stats_.images;
    bdd result = image_schedule_.apply(
        from, options_.deadline, options_.collect_stats ? &stats_ : nullptr);
    if (options_.fault_suppress_var != image_options::no_fault) {
        result &= mgr_->literal(options_.fault_suppress_var, false);
    }
    if (!result_perm_.empty()) {
        result = mgr_->permute(result, result_perm_);
    }
    return result;
}

bdd transition_relation::image(const bdd& from, const bdd& constraint) const {
    ++stats_.images;
    bdd result = image_schedule_.apply(
        from, &constraint, options_.deadline,
        options_.collect_stats ? &stats_ : nullptr);
    if (options_.fault_suppress_var != image_options::no_fault) {
        result &= mgr_->literal(options_.fault_suppress_var, false);
    }
    if (!result_perm_.empty()) {
        result = mgr_->permute(result, result_perm_);
    }
    return result;
}

bdd transition_relation::preimage(const bdd& to) const {
    if (!structured_) {
        throw std::logic_error(
            "transition_relation::preimage: relation has no cs/ns structure "
            "(build it with transition_relation::next_state)");
    }
    if (!preimage_schedule_) {
        preimage_schedule_.emplace(*mgr_, clusters_, pre_quantify_);
    }
    ++stats_.preimages;
    bdd to_ns = mgr_->permute(to, cs_ns_swap_);
    if (options_.fault_suppress_var != image_options::no_fault) {
        // same injected bug as image(): successors with the variable at 1
        // silently vanish, so their predecessors drop out of the preimage
        to_ns &= mgr_->literal(options_.fault_suppress_var, false);
    }
    return preimage_schedule_->apply(
        to_ns, options_.deadline,
        options_.collect_stats ? &stats_ : nullptr);
}

} // namespace leq
