/// \file subset_common.cpp
/// \brief Shared subset-construction driver and cofactor-class extraction.

#include "eq/subset_common.hpp"

#include <algorithm>
#include <deque>
#include <queue>

namespace leq::detail {

solve_options with_deadline(const solve_options& options) {
    using clock = std::chrono::steady_clock;
    solve_options armed = options;
    if (armed.time_limit_seconds > 0 && !armed.img.deadline) {
        const clock::time_point now = clock::now();
        // half the headroom keeps the double -> tick conversion in range
        const double headroom =
            std::chrono::duration<double>(clock::time_point::max() - now)
                .count() / 2;
        if (armed.time_limit_seconds < headroom) {
            armed.img.deadline =
                now + std::chrono::duration_cast<clock::duration>(
                          std::chrono::duration<double>(
                              armed.time_limit_seconds));
        }
    }
    return armed;
}

solve_result timeout_result(std::chrono::steady_clock::time_point start) {
    solve_result result;
    result.status = solve_status::timeout;
    result.seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    return result;
}

void accumulate_stats(solve_stats& stats, const transition_relation& rel) {
    const relation_stats& r = rel.stats();
    stats.relations += 1;
    stats.relation_parts += rel.num_parts();
    stats.clusters += rel.num_clusters();
    stats.images += r.images;
    stats.preimages += r.preimages;
    stats.peak_intermediate =
        std::max(stats.peak_intermediate, r.peak_intermediate);
    stats.saturation_fires += r.saturation_fires;
}

void read_manager_stats(solve_stats& stats, bdd_manager& mgr) {
    stats.live_nodes_after = mgr.live_node_count();
    const bdd_stats& b = mgr.stats();
    stats.cache_lookups = b.cache_lookups;
    stats.cache_hits = b.cache_hits;
    stats.op_lookups = b.op_lookups;
    stats.op_hits = b.op_hits;
}

std::vector<cofactor_class> split_by_top_block(bdd_manager& mgr, const bdd& p,
                                               std::uint32_t boundary) {
    if (p.is_zero()) { return {}; }
    // collect distinct leaves: first nodes (by descent) at/below the boundary
    std::vector<bdd> leaves;
    std::unordered_map<std::uint32_t, std::size_t> leaf_ids; // idx -> pos
    std::unordered_map<std::uint32_t, char> visited;
    const std::function<void(const bdd&)> collect = [&](const bdd& n) {
        if (!visited.emplace(n.index(), 1).second) { return; }
        const bool is_leaf =
            n.is_const() || mgr.level_of(n.top_var()) >= boundary;
        if (is_leaf) {
            if (!n.is_zero() && leaf_ids.emplace(n.index(), leaves.size()).second) {
                leaves.push_back(n);
            }
            return;
        }
        collect(n.low());
        collect(n.high());
    };
    collect(p);

    // one memoized rebuild per leaf: replace that leaf by TRUE, all other
    // leaves by FALSE, keep the guard region structure
    std::vector<cofactor_class> classes;
    classes.reserve(leaves.size());
    for (const bdd& leaf : leaves) {
        std::unordered_map<std::uint32_t, bdd> memo;
        const std::function<bdd(const bdd&)> rebuild =
            [&](const bdd& n) -> bdd {
            const bool is_leaf =
                n.is_const() || mgr.level_of(n.top_var()) >= boundary;
            if (is_leaf) { return n == leaf ? mgr.one() : mgr.zero(); }
            const auto it = memo.find(n.index());
            if (it != memo.end()) { return it->second; }
            const bdd r =
                mgr.ite(mgr.var(n.top_var()), rebuild(n.high()), rebuild(n.low()));
            memo.emplace(n.index(), r);
            return r;
        };
        classes.push_back({rebuild(p), leaf});
    }
    return classes;
}

solve_result
subset_driver::run(const bdd& initial_state,
                   const std::function<expansion(const bdd&)>& expand) const {
    const auto start = std::chrono::steady_clock::now();
    const auto elapsed = [&] {
        return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             start)
            .count();
    };

    solve_result result;

    // subset states interned by BDD index (canonical), over the ns
    // variables as split_by_top_block returns them; `subsets` holds the
    // handles, so no interned index is recycled by GC
    std::unordered_map<std::uint32_t, std::uint32_t> ids;
    std::vector<bdd> subsets;
    // ns_to_cs is the cs<->ns swap, so one rename goes either way
    const auto rename = [&](const bdd& state) {
        return mgr.permute(state, ns_to_cs);
    };
    // The subset construction is itself a reachability exploration over
    // subset states; the reach strategy picks the worklist discipline.  The
    // explored set (and therefore the CSF) is order-independent, but the
    // peak worklist and BDD cache locality are not: bfs/frontier expand in
    // layer (FIFO) order, chaining and saturation follow each newly
    // discovered subset immediately (LIFO), chasing successor chains first
    // — the subset-level analogue of saturation's immediate feedback.
    std::deque<std::uint32_t> work;
    const bool lifo = options.img.strategy == reach_strategy::chaining ||
                      options.img.strategy == reach_strategy::saturation;
    const auto intern = [&](const bdd& state) {
        const auto it = ids.find(state.index());
        if (it != ids.end()) { return it->second; }
        const auto id = static_cast<std::uint32_t>(subsets.size());
        ids.emplace(state.index(), id);
        subsets.push_back(state);
        work.push_back(id);
        return id;
    };

    struct edge {
        std::uint32_t dest;
        bdd guard;
    };
    std::vector<std::vector<edge>> edges;

    intern(rename(initial_state)); // into ns space, like every leaf
    while (!work.empty()) {
        if (options.time_limit_seconds > 0 &&
            elapsed() > options.time_limit_seconds) {
            result = timeout_result(start);
            result.subset_states_explored = subsets.size();
            return result;
        }
        if (options.max_subset_states > 0 &&
            subsets.size() > options.max_subset_states) {
            result.status = solve_status::state_limit;
            result.subset_states_explored = subsets.size();
            result.seconds = elapsed();
            return result;
        }
        const std::uint32_t id = lifo ? work.back() : work.front();
        if (lifo) {
            work.pop_back();
        } else {
            work.pop_front();
        }
        expansion exp;
        try {
            exp = expand(rename(subsets[id]));
        } catch (const relation_deadline_exceeded&) {
            // a single image chain inside the expansion outlived the
            // deadline armed by with_deadline()
            result = timeout_result(start);
            result.subset_states_explored = subsets.size();
            return result;
        }
        if (edges.size() <= id) { edges.resize(id + 1); }
        for (const cofactor_class& c : exp.successors) {
            edges[id].push_back({intern(c.leaf), c.guard});
        }
        if (!exp.to_dca.is_zero()) {
            // DCA is state number `subsets.size()` once exploration ends;
            // mark with a sentinel and fix up below
            edges[id].push_back({0xffffffffu, exp.to_dca});
        }
    }
    result.subset_states_explored = subsets.size();

    const auto num_subsets = static_cast<std::uint32_t>(subsets.size());
    const std::uint32_t dca = num_subsets; // appended completion state
    edges.resize(num_subsets + 1);
    for (auto& state_edges : edges) {
        for (edge& e : state_edges) {
            if (e.dest == 0xffffffffu) { e.dest = dca; }
        }
    }
    edges[dca].push_back({dca, mgr.one()});

    // progressive trimming over u: a state survives while every u assignment
    // admits some v with a transition to a surviving state
    const bdd v_cube = mgr.cube(
        std::vector<std::uint32_t>(uv_vars.begin() +
                                       static_cast<std::ptrdiff_t>(u_vars.size()),
                                   uv_vars.end()));
    std::vector<bool> alive(num_subsets + 1, true);
    // worklist fixpoint: when a state dies only its predecessors need
    // rechecking (a full-sweep loop is quadratic at 10^5 states)
    std::vector<std::vector<std::uint32_t>> preds(num_subsets + 1);
    for (std::uint32_t s = 0; s <= num_subsets; ++s) {
        for (const edge& e : edges[s]) { preds[e.dest].push_back(s); }
    }
    const auto progressive_ok = [&](std::uint32_t s) {
        bdd dom = mgr.zero();
        for (const edge& e : edges[s]) {
            if (alive[e.dest]) { dom |= e.guard; }
        }
        return mgr.exists(dom, v_cube).is_one();
    };
    std::queue<std::uint32_t> dead;
    for (std::uint32_t s = 0; s <= num_subsets; ++s) {
        if (!progressive_ok(s)) {
            alive[s] = false;
            dead.push(s);
        }
    }
    while (!dead.empty()) {
        const std::uint32_t d = dead.front();
        dead.pop();
        for (const std::uint32_t p : preds[d]) {
            if (alive[p] && !progressive_ok(p)) {
                alive[p] = false;
                dead.push(p);
            }
        }
    }

    if (!alive[0]) {
        result.empty_solution = true;
        automaton empty(mgr, uv_vars);
        empty.set_initial(empty.add_state(false));
        result.csf = std::move(empty);
        result.csf_states = 0;
        result.seconds = elapsed();
        return result;
    }

    // assemble the CSF automaton (all states accepting; prefix-closed by
    // construction: DCN-bound moves were never added as edges)
    automaton csf(mgr, uv_vars);
    std::vector<std::uint32_t> remap(num_subsets + 1, 0);
    for (std::uint32_t s = 0; s <= num_subsets; ++s) {
        if (alive[s]) { remap[s] = csf.add_state(true); }
    }
    csf.set_initial(remap[0]);
    for (std::uint32_t s = 0; s <= num_subsets; ++s) {
        if (!alive[s]) { continue; }
        for (const edge& e : edges[s]) {
            if (alive[e.dest]) {
                csf.add_transition(remap[s], remap[e.dest], e.guard);
            }
        }
    }
    const automaton trimmed = trim_unreachable(csf);
    result.csf_states = trimmed.num_states();
    result.csf = trimmed;
    result.seconds = elapsed();
    return result;
}

} // namespace leq::detail
