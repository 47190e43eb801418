/// \file bdd_subst.cpp
/// \brief Variable renaming (permute), functional composition and cofactors.
///
/// All of these commute with complementation, so the recursions memoize on
/// the *regular* reference only and XOR the caller's complement bit back
/// into the result — halving memo pressure and making f / !f renames share
/// all work.  `permute` memoizes in the computed cache, so a sub-DAG renamed
/// by an earlier call costs one cache hit; compose still uses a per-call
/// memo.

#include "bdd/bdd.hpp"

#include <algorithm>
#include <cassert>

namespace leq {

bdd bdd_manager::permute(const bdd& f, const std::vector<std::uint32_t>& perm) {
    checked_guard("permute", f);
    assert(f.manager() == this);
    maybe_gc_or_grow();
    // the computed cache keys a rename by the permutation's slot in perms_
    auto it = std::find(perms_.begin(), perms_.end(), perm);
    if (it == perms_.end()) { it = perms_.insert(perms_.end(), perm); }
    const auto token = static_cast<std::uint32_t>(it - perms_.begin());
    return make(permute_rec(f.index(), *it, token));
}

std::uint32_t bdd_manager::permute_rec(std::uint32_t f,
                                       const std::vector<std::uint32_t>& perm,
                                       std::uint32_t token) {
    if (is_terminal(f)) { return f; }
    const std::uint32_t out = comp_of(f);
    f ^= out;
    std::uint32_t result = 0;
    if (cache_lookup(op::permute_op, f, token, 0, result)) {
        return result ^ out;
    }
    const node nf = nodes_[node_of(f)];
    const std::uint32_t r0 = permute_rec(nf.lo, perm, token);
    const std::uint32_t r1 = permute_rec(nf.hi, perm, token);
    assert(nf.var < perm.size());
    const std::uint32_t new_var = perm[nf.var];
    const std::uint32_t new_level = var2level_[new_var];
    if (new_level < level(r0) && new_level < level(r1)) {
        // the renamed variable still sits above both renamed children (an
        // order-keeping rename such as the solver's ns->cs swap)
        result = mk(new_var, r0, r1);
    } else {
        // it lands inside a child's order: rebuild with a full ITE
        result = ite_rec(mk(new_var, 0, 1), r1, r0);
    }
    cache_store(op::permute_op, f, token, 0, result);
    return result ^ out;
}

bdd bdd_manager::compose(const bdd& f, std::uint32_t v, const bdd& g) {
    checked_guard("compose", f, g);
    assert(f.manager() == this && g.manager() == this);
    maybe_gc_or_grow();
    std::vector<std::uint32_t> memo(nodes_.size(), idx_nil);
    return make(compose_rec(f.index(), v, g.index(), memo));
}

std::uint32_t bdd_manager::compose_rec(std::uint32_t f, std::uint32_t v,
                                       std::uint32_t g,
                                       std::vector<std::uint32_t>& memo) {
    if (is_terminal(f)) { return f; }
    const node nf = nodes_[node_of(f)];
    // below the level of v the variable cannot occur
    if (var2level_[nf.var] > var2level_[v]) { return f; }
    const std::uint32_t out = comp_of(f);
    const std::uint32_t n = node_of(f);
    if (n < memo.size() && memo[n] != idx_nil) { return memo[n] ^ out; }
    std::uint32_t result = 0;
    if (nf.var == v) {
        result = ite_rec(g, nf.hi, nf.lo);
    } else {
        const std::uint32_t r0 = compose_rec(nf.lo, v, g, memo);
        const std::uint32_t r1 = compose_rec(nf.hi, v, g, memo);
        result = ite_rec(mk(nf.var, 0, 1), r1, r0);
    }
    if (n < memo.size()) { memo[n] = result; }
    return result ^ out;
}

bdd bdd_manager::compose_vector(
    const bdd& f,
    const std::vector<std::pair<std::uint32_t, bdd>>& substitutions) {
    checked_guard("compose_vector", f);
    assert(f.manager() == this);
    maybe_gc_or_grow();
    std::vector<std::uint32_t> sub(num_vars(), idx_nil);
    std::uint32_t deepest = 0;
    for (const auto& [v, g] : substitutions) {
        checked_handle_guard("compose_vector", g);
        assert(g.manager() == this);
        assert(v < num_vars());
        sub[v] = g.index();
        deepest = std::max(deepest, var2level_[v]);
    }
    std::vector<std::uint32_t> memo(nodes_.size(), idx_nil);
    return make(compose_vec_rec(f.index(), sub, deepest, memo));
}

std::uint32_t bdd_manager::compose_vec_rec(
    std::uint32_t f, const std::vector<std::uint32_t>& sub,
    std::uint32_t deepest_level, std::vector<std::uint32_t>& memo) {
    if (is_terminal(f)) { return f; }
    const node nf = nodes_[node_of(f)];
    // no substituted variable can occur below the deepest one
    if (var2level_[nf.var] > deepest_level) { return f; }
    const std::uint32_t out = comp_of(f);
    const std::uint32_t n = node_of(f);
    if (n < memo.size() && memo[n] != idx_nil) { return memo[n] ^ out; }
    const std::uint32_t r0 = compose_vec_rec(nf.lo, sub, deepest_level, memo);
    const std::uint32_t r1 = compose_vec_rec(nf.hi, sub, deepest_level, memo);
    const std::uint32_t g =
        sub[nf.var] != idx_nil ? sub[nf.var] : mk(nf.var, 0, 1);
    const std::uint32_t result = ite_rec(g, r1, r0);
    if (n < memo.size()) { memo[n] = result; }
    return result ^ out;
}

bdd bdd_manager::cofactor(const bdd& f, const bdd& cube) {
    checked_guard("cofactor", f, cube);
    assert(f.manager() == this && cube.manager() == this);
    maybe_gc_or_grow();
    const std::uint32_t c = cube.index();
    assert(c != 0 && "cofactor by the empty cube is undefined");
    // generalized cofactor by a cube: walk f, branching as the cube dictates
    struct restrictor {
        bdd_manager* m;
        std::uint32_t run(std::uint32_t f, std::uint32_t c) {
            if (is_terminal(f) || c == 1) { return f; }
            // cofactoring commutes with complement (the cube steers by c
            // alone): hoist f's bit so f / !f share the cache line
            const std::uint32_t out = comp_of(f);
            f ^= out;
            std::uint32_t result = 0;
            if (m->cache_lookup(op::cofactor_op, f, c, 0, result)) {
                return result ^ out;
            }
            const std::uint32_t lf = m->var2level_[m->var_of(f)];
            const std::uint32_t lc = m->var2level_[m->var_of(c)];
            if (lc < lf) {
                // cube literal above f: skip it
                result = run(f, m->lo_of(c) == 0 ? m->hi_of(c) : m->lo_of(c));
            } else if (lc == lf) {
                // take the branch selected by the literal's phase
                result = m->lo_of(c) == 0 ? run(m->hi_of(f), m->hi_of(c))
                                          : run(m->lo_of(f), m->lo_of(c));
            } else {
                const std::uint32_t r0 = run(m->lo_of(f), c);
                const std::uint32_t r1 = run(m->hi_of(f), c);
                result = m->mk(m->var_of(f), r0, r1);
            }
            m->cache_store(op::cofactor_op, f, c, 0, result);
            return result ^ out;
        }
    };
    return make(restrictor{this}.run(f.index(), c));
}

} // namespace leq


namespace leq {

bdd bdd_manager::constrain(const bdd& f, const bdd& c) {
    checked_guard("constrain", f, c);
    assert(f.manager() == this && c.manager() == this);
    assert(!c.is_zero() && "constrain: empty care set");
    maybe_gc_or_grow();
    return make(constrain_rec(f.index(), c.index()));
}

std::uint32_t bdd_manager::constrain_rec(std::uint32_t f, std::uint32_t c) {
    if (c == 1 || is_terminal(f)) { return f; }
    if (c == f) { return 1; }
    if (c == (f ^ 1u)) { return 0; }
    // constrain commutes with complement (the care-set steering ignores f's
    // phase): hoist f's bit so f / !f share the cache line
    const std::uint32_t out = comp_of(f);
    f ^= out;
    std::uint32_t result = 0;
    if (cache_lookup(op::constrain_op, f, c, 0, result)) { return result ^ out; }
    const std::uint32_t lc = var2level_[var_of(c)];
    const std::uint32_t lf = var2level_[var_of(f)];
    if (lc < lf) {
        // f independent of c's top variable
        const std::uint32_t c0 = lo_of(c);
        const std::uint32_t c1 = hi_of(c);
        if (c0 == 0) {
            result = constrain_rec(f, c1);
        } else if (c1 == 0) {
            result = constrain_rec(f, c0);
        } else {
            result = mk(var_of(c), constrain_rec(f, c0), constrain_rec(f, c1));
        }
    } else {
        const std::uint32_t f0 = lf <= lc ? lo_of(f) : f;
        const std::uint32_t f1 = lf <= lc ? hi_of(f) : f;
        const std::uint32_t c0 = lc <= lf ? lo_of(c) : c;
        const std::uint32_t c1 = lc <= lf ? hi_of(c) : c;
        if (c0 == 0) {
            result = constrain_rec(f1, c1);
        } else if (c1 == 0) {
            result = constrain_rec(f0, c0);
        } else {
            const std::uint32_t top = lf <= lc ? var_of(f) : var_of(c);
            const std::uint32_t r0 = constrain_rec(f0, c0);
            const std::uint32_t r1 = constrain_rec(f1, c1);
            result = mk(top, r0, r1);
        }
    }
    cache_store(op::constrain_op, f, c, 0, result);
    return result ^ out;
}

bdd bdd_manager::restrict_dc(const bdd& f, const bdd& c) {
    checked_guard("restrict_dc", f, c);
    assert(f.manager() == this && c.manager() == this);
    assert(!c.is_zero() && "restrict: empty care set");
    maybe_gc_or_grow();
    return make(restrict_rec(f.index(), c.index()));
}

std::uint32_t bdd_manager::restrict_rec(std::uint32_t f, std::uint32_t c) {
    if (c == 1 || is_terminal(f)) { return f; }
    if (c == f) { return 1; }
    if (c == (f ^ 1u)) { return 0; }
    const std::uint32_t out = comp_of(f);
    f ^= out;
    std::uint32_t result = 0;
    if (cache_lookup(op::restrict_op, f, c, 0, result)) { return result ^ out; }
    const std::uint32_t lc = var2level_[var_of(c)];
    const std::uint32_t lf = var2level_[var_of(f)];
    if (lc < lf) {
        // f does not depend on c's top variable: drop it from the care set
        // (this is the difference from constrain)
        result = restrict_rec(f, or_rec(lo_of(c), hi_of(c)));
    } else {
        const std::uint32_t f0 = lo_of(f);
        const std::uint32_t f1 = hi_of(f);
        const std::uint32_t c0 = lc == lf ? lo_of(c) : c;
        const std::uint32_t c1 = lc == lf ? hi_of(c) : c;
        if (c0 == 0) {
            result = restrict_rec(f1, c1);
        } else if (c1 == 0) {
            result = restrict_rec(f0, c0);
        } else {
            const std::uint32_t r0 = restrict_rec(f0, c0);
            const std::uint32_t r1 = restrict_rec(f1, c1);
            result = mk(var_of(f), r0, r1);
        }
    }
    cache_store(op::restrict_op, f, c, 0, result);
    return result ^ out;
}

} // namespace leq
