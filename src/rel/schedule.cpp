/// \file schedule.cpp
/// \brief Schedule construction (cost-driven greedy order, exact
/// per-cluster retirement sets) and execution.

#include "rel/schedule.hpp"

#include <algorithm>
#include <limits>
#include <unordered_set>

namespace leq {

quant_schedule::quant_schedule(bdd_manager& mgr,
                               const std::vector<bdd>& clusters,
                               const std::vector<std::uint32_t>& quantify)
    : mgr_(&mgr), leading_cube_(mgr.one()) {
    const std::unordered_set<std::uint32_t> qset(quantify.begin(),
                                                 quantify.end());
    // quantified support per cluster
    std::vector<std::vector<std::uint32_t>> qsupport(clusters.size());
    for (std::size_t k = 0; k < clusters.size(); ++k) {
        for (const std::uint32_t v : mgr.support(clusters[k])) {
            if (qset.count(v) != 0) { qsupport[k].push_back(v); }
        }
    }

    // cost-driven greedy order: at each step pick the cluster that retires
    // the most quantified variables (variables appearing in no other
    // pending cluster) net of the variables it newly activates
    std::vector<std::size_t> order;
    order.reserve(clusters.size());
    std::vector<bool> used(clusters.size(), false);
    std::unordered_set<std::uint32_t> live;
    for (std::size_t round = 0; round < clusters.size(); ++round) {
        int best_score = std::numeric_limits<int>::min();
        std::size_t best = 0;
        for (std::size_t k = 0; k < clusters.size(); ++k) {
            if (used[k]) { continue; }
            int retired = 0, activated = 0;
            for (const std::uint32_t v : qsupport[k]) {
                bool elsewhere = false;
                for (std::size_t m = 0; m < clusters.size(); ++m) {
                    if (m == k || used[m]) { continue; }
                    if (std::find(qsupport[m].begin(), qsupport[m].end(), v) !=
                        qsupport[m].end()) {
                        elsewhere = true;
                        break;
                    }
                }
                if (!elsewhere) { ++retired; }
                if (live.count(v) == 0) { ++activated; }
            }
            const int score = 2 * retired - activated;
            if (score > best_score) {
                best_score = score;
                best = k;
            }
        }
        used[best] = true;
        order.push_back(best);
        for (const std::uint32_t v : qsupport[best]) { live.insert(v); }
    }

    // exact retirement: the last occurrence of each quantified variable along
    // the chosen order is where it dies (it appears in no later cluster)
    retired_.resize(order.size());
    std::unordered_set<std::uint32_t> seen;
    for (std::size_t pos = order.size(); pos-- > 0;) {
        for (const std::uint32_t v : qsupport[order[pos]]) {
            if (seen.insert(v).second) { retired_[pos].push_back(v); }
        }
    }
    // variables in no cluster at all: quantified straight out of `from`
    for (const std::uint32_t v : quantify) {
        if (seen.count(v) == 0) { leading_.push_back(v); }
    }
    leading_cube_ = mgr.cube(leading_);

    clusters_.reserve(order.size());
    cubes_.reserve(order.size());
    for (std::size_t pos = 0; pos < order.size(); ++pos) {
        clusters_.push_back(clusters[order[pos]]);
        cubes_.push_back(mgr.cube(retired_[pos]));
    }

    // chain steps: fuse every empty-retire cluster into its successor so the
    // step runs as one n-ary and-exists instead of a chain of binary ANDs
    for (std::size_t pos = 0; pos < clusters_.size(); ++pos) {
        if (!retired_[pos].empty() || pos + 1 == clusters_.size()) {
            run_end_.push_back(pos + 1);
        }
    }
}

namespace {

/// Scope guard arming the manager's *op-level* deadline for the duration
/// of one schedule application.  The between-steps throw_if_past checks
/// below catch a blown budget at chain-step granularity; this catches it
/// *inside* a single monolithic and_exists run (the manager probes the
/// clock every ~1024 computed-cache lookups).  When the relation carries
/// no deadline the guard is inert, leaving any manager deadline a caller
/// armed manually (set_op_deadline) in place.
class op_deadline_guard {
public:
    op_deadline_guard(bdd_manager& mgr, const relation_deadline& deadline)
        : mgr_(&mgr), armed_(deadline.has_value()) {
        if (armed_) { mgr_->set_op_deadline(*deadline); }
    }
    ~op_deadline_guard() {
        if (armed_) { mgr_->clear_op_deadline(); }
    }
    op_deadline_guard(const op_deadline_guard&) = delete;
    op_deadline_guard& operator=(const op_deadline_guard&) = delete;

private:
    bdd_manager* mgr_;
    bool armed_;
};

} // namespace

bdd quant_schedule::apply(const bdd& from, const bdd* constraint,
                          const relation_deadline& deadline,
                          relation_stats* stats) const {
    throw_if_past(deadline);
    const op_deadline_guard op_guard(*mgr_, deadline);
    // the translation is unconditional — a deadline the *manager* already
    // had armed (set_op_deadline without a relation deadline) surfaces to
    // relation consumers under the one exception type they handle
    try {
        return apply_steps(from, constraint, deadline, stats);
    } catch (const bdd_deadline_exceeded&) {
        throw relation_deadline_exceeded{};
    }
}

bdd quant_schedule::apply_steps(const bdd& from, const bdd* constraint,
                                const relation_deadline& deadline,
                                relation_stats* stats) const {
    // leading quantification; a pending extra conjunct is fused here when
    // the leading cube could touch it (leading variables appear in no
    // cluster, but may well appear in the constraint), or carried into the
    // first chain step otherwise — either way `from & constraint` is never
    // materialized on its own
    bdd acc;
    if (constraint != nullptr &&
        (run_end_.empty() || !leading_cube_.is_one())) {
        acc = mgr_->and_exists(from, *constraint, leading_cube_);
        constraint = nullptr;
    } else {
        acc = mgr_->exists(from, leading_cube_);
    }
    std::size_t begin = 0;
    for (const std::size_t end : run_end_) {
        throw_if_past(deadline);
        if (end - begin == 1 && constraint == nullptr) {
            acc = mgr_->and_exists(acc, clusters_[begin], cubes_[end - 1]);
        } else {
            std::vector<bdd> operands;
            operands.reserve(end - begin + 2);
            operands.push_back(acc);
            if (constraint != nullptr) {
                operands.push_back(*constraint);
                constraint = nullptr;
            }
            for (std::size_t k = begin; k < end; ++k) {
                operands.push_back(clusters_[k]);
            }
            acc = mgr_->and_exists(operands, cubes_[end - 1]);
        }
        if (stats != nullptr) {
            stats->peak_intermediate =
                std::max(stats->peak_intermediate, mgr_->dag_size(acc));
        }
        begin = end;
    }
    return acc;
}

void quant_schedule::describe(bdd_manager& mgr, relation_stats& stats) const {
    stats.cluster_sizes.clear();
    stats.quantified_per_cluster.clear();
    for (std::size_t k = 0; k < clusters_.size(); ++k) {
        stats.cluster_sizes.push_back(mgr.dag_size(clusters_[k]));
        stats.quantified_per_cluster.push_back(retired_[k].size());
    }
    stats.leading_quantified = leading_.size();
}

} // namespace leq
