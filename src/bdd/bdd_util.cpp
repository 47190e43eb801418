/// \file bdd_util.cpp
/// \brief Structural queries: support, sizes, counting, cube enumeration.
///
/// Traversals walk tagged references: a node's stored edges are XOR-ed with
/// the incoming reference's complement bit, so every helper sees the true
/// cofactor functions.  Node-keyed memos (sat_count, dag_size) key on the
/// node index alone — f and !f share one entry.

#include "bdd/bdd.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

namespace leq {

void bdd_manager::set_var_order(const std::vector<std::uint32_t>& order) {
    checked_guard("set_var_order");
    if (order.size() != var2level_.size()) {
        throw std::invalid_argument("set_var_order: wrong permutation size");
    }
    // the order may only change while no user BDDs exist: check that nothing
    // beyond the terminal is externally referenced
    for (std::uint32_t i = 1; i < ext_ref_.size(); ++i) {
        if (ext_ref_[i] != 0) {
            throw std::logic_error(
                "set_var_order: live BDD handles exist; choose the order "
                "before building");
        }
    }
    collect_garbage();
    std::vector<char> seen(order.size(), 0);
    for (std::size_t lvl = 0; lvl < order.size(); ++lvl) {
        const std::uint32_t v = order[lvl];
        if (v >= order.size() || seen[v]) {
            throw std::invalid_argument("set_var_order: not a permutation");
        }
        seen[v] = 1;
        level2var_[lvl] = v;
        var2level_[v] = static_cast<std::uint32_t>(lvl);
    }
    cache_clear();
}

bdd bdd_manager::support_cube(const bdd& f) {
    checked_guard("support_cube", f);
    assert(f.manager() == this);
    maybe_gc_or_grow();
    return make(support_rec(f.index()));
}

std::uint32_t bdd_manager::support_rec(std::uint32_t f) {
    f &= ~1u; // support(f) == support(!f): cache on the regular reference
    if (f == 0) { return 1; }
    std::uint32_t result = 0;
    if (cache_lookup(op::support_op, f, 0, 0, result)) { return result; }
    const node nf = nodes_[node_of(f)];
    const std::uint32_t s_children =
        and_rec(support_rec(nf.lo), support_rec(nf.hi));
    result = and_rec(mk(nf.var, 0, 1), s_children);
    cache_store(op::support_op, f, 0, 0, result);
    return result;
}

std::vector<std::uint32_t> bdd_manager::support(const bdd& f) {
    checked_guard("support", f);
    std::vector<std::uint32_t> vars;
    for (bdd c = support_cube(f); !c.is_const(); c = c.high()) {
        vars.push_back(c.top_var());
    }
    return vars;
}

std::size_t bdd_manager::dag_size(const bdd& f) {
    checked_guard("dag_size", f);
    assert(f.manager() == this);
    std::unordered_set<std::uint32_t> seen; // node indices
    std::vector<std::uint32_t> stack{node_of(f.index())};
    while (!stack.empty()) {
        const std::uint32_t n = stack.back();
        stack.pop_back();
        if (!seen.insert(n).second || n == 0) { continue; }
        stack.push_back(node_of(nodes_[n].lo));
        stack.push_back(node_of(nodes_[n].hi));
    }
    return seen.size();
}

double bdd_manager::sat_count(const bdd& f, std::uint32_t nvars) {
    checked_guard("sat_count", f);
    assert(f.manager() == this);
    // fraction-style recursion: density(f) = fraction of assignments mapped
    // to 1; the count is density * 2^nvars.  Memoized per node; a
    // complemented reference reads 1 - density.
    std::unordered_map<std::uint32_t, double> memo;
    const std::function<double(std::uint32_t)> density =
        [&](std::uint32_t r) -> double {
        if (r == 0) { return 0.0; }
        if (r == 1) { return 1.0; }
        const std::uint32_t n = node_of(r);
        double d = 0.0;
        const auto it = memo.find(n);
        if (it != memo.end()) {
            d = it->second;
        } else {
            d = 0.5 * (density(nodes_[n].lo) + density(nodes_[n].hi));
            memo.emplace(n, d);
        }
        return is_comp(r) ? 1.0 - d : d;
    };
    return density(f.index()) * std::pow(2.0, static_cast<double>(nvars));
}

bool bdd_manager::eval(const bdd& f, const std::vector<bool>& assignment) {
    checked_guard("eval", f);
    assert(f.manager() == this);
    std::uint32_t r = f.index();
    while (r > 1) {
        const node& nd = nodes_[node_of(r)];
        assert(nd.var < assignment.size());
        r = (assignment[nd.var] ? nd.hi : nd.lo) ^ comp_of(r);
    }
    return r == 1;
}

bdd bdd_manager::pick_cube(const bdd& f) {
    checked_guard("pick_cube", f);
    assert(f.manager() == this && !f.is_zero());
    maybe_gc_or_grow();
    // walk down preferring the else-branch, collecting literals
    std::vector<std::pair<std::uint32_t, bool>> literals;
    std::uint32_t r = f.index();
    while (r > 1) {
        const std::uint32_t v = var_of(r);
        const std::uint32_t lo = lo_of(r);
        if (lo != 0) {
            literals.emplace_back(v, false);
            r = lo;
        } else {
            literals.emplace_back(v, true);
            r = hi_of(r);
        }
    }
    // build the cube bottom-up in descending level order (literals collected
    // top-down are already in ascending level order)
    std::uint32_t c = 1;
    for (auto it = literals.rbegin(); it != literals.rend(); ++it) {
        c = it->second ? mk(it->first, 0, c) : mk(it->first, c, 0);
    }
    return make(c);
}

void bdd_manager::foreach_cube(
    const bdd& f, const std::vector<std::uint32_t>& vars,
    const std::function<void(const std::vector<int>&)>& fn) {
    checked_guard("foreach_cube", f);
    assert(f.manager() == this);
    // variables sorted by level so the walk matches the BDD order
    std::vector<std::uint32_t> sorted = vars;
    std::sort(sorted.begin(), sorted.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                  return var2level_[a] < var2level_[b];
              });
    std::vector<int> values(vars.size(), 2);
    // map variable id -> position in the caller's vars list
    std::unordered_map<std::uint32_t, std::size_t> pos;
    for (std::size_t k = 0; k < vars.size(); ++k) { pos.emplace(vars[k], k); }

    const std::function<void(std::uint32_t, std::size_t)> walk =
        [&](std::uint32_t r, std::size_t k) {
        if (r == 0) { return; }
        if (k == sorted.size()) {
            assert(r == 1 && "foreach_cube: support exceeds the listed vars");
            fn(values);
            return;
        }
        const std::uint32_t v = sorted[k];
        const std::size_t slot = pos.at(v);
        if (r > 1 && var_of(r) == v) {
            const std::uint32_t lo = lo_of(r);
            const std::uint32_t hi = hi_of(r);
            values[slot] = 0;
            walk(lo, k + 1);
            values[slot] = 1;
            walk(hi, k + 1);
        } else {
            // r is independent of v (r's top is below v, or r is constant)
            values[slot] = 2;
            walk(r, k + 1);
        }
        values[slot] = 2;
    };
    walk(f.index(), 0);
}

bdd bdd_manager::cube(const std::vector<std::uint32_t>& vars) {
    checked_guard("cube");
    maybe_gc_or_grow();
    std::vector<std::uint32_t> sorted = vars;
    std::sort(sorted.begin(), sorted.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                  return var2level_[a] > var2level_[b]; // deepest first
              });
    std::uint32_t c = 1;
    for (const std::uint32_t v : sorted) { c = mk(v, 0, c); }
    return make(c);
}

std::string bdd_manager::to_string(const bdd& f,
                                   const std::vector<std::string>& names) {
    checked_guard("to_string", f);
    if (f.is_zero()) { return "0"; }
    if (f.is_one()) { return "1"; }
    const std::vector<std::uint32_t> vars = support(f);
    std::string out;
    foreach_cube(f, vars, [&](const std::vector<int>& values) {
        if (!out.empty()) { out += " | "; }
        std::string term;
        for (std::size_t k = 0; k < vars.size(); ++k) {
            if (values[k] == 2) { continue; }
            if (!term.empty()) { term += " & "; }
            if (values[k] == 0) { term += "!"; }
            term += vars[k] < names.size() ? names[vars[k]]
                                           : "x" + std::to_string(vars[k]);
        }
        out += term.empty() ? "1" : term;
    });
    return out;
}

} // namespace leq
