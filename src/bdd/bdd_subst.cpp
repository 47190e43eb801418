/// \file bdd_subst.cpp
/// \brief Variable renaming (permute) and cofactors.
///
/// Both commute with complementation, so the recursions memoize on the
/// *regular* reference only and XOR the caller's complement bit back into
/// the result — halving memo pressure and making f / !f renames share all
/// work.  Both memoize in the computed cache, so a sub-DAG renamed by an
/// earlier call costs one cache hit.

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
