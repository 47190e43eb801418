/// \file partitioned.cpp
/// \brief The paper's partitioned flow (Section 3.2).
///
/// The whole of Algorithm 1 is folded into one modified subset construction:
///
///   for each subset state psi(cs_F, cs_S):
///     Q_psi(u,v)    = OR_j  exists_{i,cs} [ AND_m (u_m == U_m)
///                                           & !C_j & psi ]
///     P_psi(u,v,ns) = exists_{i,cs} [ AND_m (u_m == U_m)
///                                     & AND_k (ns_k == T_k) & psi ]
///     P'            = P_psi & !Q_psi
///     successors    = (u,v)-cofactor classes of P'
///     DCA guard     = !Q_psi & !domain(P_psi)
///
/// Q_psi is computed one output at a time (the monolithic conformance
/// relation C(i,v,cs) is never built) and both images run through the
/// shared transition-relation layer (src/rel/) with early quantification.
/// Transitions in Q_psi would lead to subsets containing (a, DC1) product
/// states; because the final answer must be prefix-closed they are
/// redirected to the trimmed DCN sink, i.e. simply dropped, and their
/// successors are never explored.  Completion of F and S is deferred into
/// this construction (Theorem 1 and Corollary 1 justify the deferral); DCA
/// is the deferred completion state, accepting after the final
/// complementation.

#include "eq/solver.hpp"
#include "eq/subset_common.hpp"

namespace leq {

solve_result solve_partitioned(const equation_problem& problem,
                               const solve_options& options) {
    const auto start = std::chrono::steady_clock::now();
    bdd_manager& mgr = problem.mgr();
    // arm the relation-layer deadline so a deep image chain inside one
    // subset expansion respects the solver time limit (the driver only
    // checks between expansions)
    const solve_options local = detail::with_deadline(options);

    try {
        // relation parts shared by both images: u_m == U_m(i, v, cs_F)
        std::vector<bdd> u_match;
        u_match.reserve(problem.u_vars.size());
        for (std::size_t m = 0; m < problem.u_vars.size(); ++m) {
            u_match.push_back(mgr.var(problem.u_vars[m]).iff(problem.f_u[m]));
        }
        // next-state parts for F and S
        std::vector<bdd> ns_parts;
        for (std::size_t k = 0; k < problem.ns_f.size(); ++k) {
            ns_parts.push_back(
                mgr.var(problem.ns_f[k]).iff(problem.f_next[k]));
        }
        for (std::size_t k = 0; k < problem.ns_s.size(); ++k) {
            ns_parts.push_back(
                mgr.var(problem.ns_s[k]).iff(problem.s_next[k]));
        }

        std::vector<std::uint32_t> quantify = problem.hidden_input_vars();
        quantify.insert(quantify.end(), problem.cs_f.begin(),
                        problem.cs_f.end());
        quantify.insert(quantify.end(), problem.cs_s.begin(),
                        problem.cs_s.end());

        // successor relation: u-match plus next-state parts
        std::vector<bdd> p_parts = u_match;
        p_parts.insert(p_parts.end(), ns_parts.begin(), ns_parts.end());
        const transition_relation p_rel(mgr, p_parts, quantify, local.img);

        // one non-conformance relation per output: u-match plus !C_j
        std::vector<transition_relation> q_rels;
        q_rels.reserve(problem.s_o.size());
        for (std::size_t j = 0; j < problem.s_o.size(); ++j) {
            std::vector<bdd> parts = u_match;
            parts.push_back(!problem.conformance(j));
            q_rels.emplace_back(mgr, std::move(parts), quantify, local.img);
        }

        std::vector<std::uint32_t> uv_vars = problem.u_vars;
        uv_vars.insert(uv_vars.end(), problem.v_vars.begin(),
                       problem.v_vars.end());

        const detail::subset_driver driver{mgr, uv_vars, problem.u_vars,
                                           problem.ns_to_cs_permutation(),
                                           local};
        const std::uint32_t boundary = problem.uv_boundary_level();
        const bdd ns_cube = mgr.cube(problem.all_ns_vars());

        solve_result result = driver.run(
            problem.initial_product_state(), [&](const bdd& psi) {
                // Q_psi: (u,v) combinations on which some member state can
                // produce a non-conforming output for some external input i
                bdd q = mgr.zero();
                for (const transition_relation& rel : q_rels) {
                    q |= rel.image(psi);
                }
                const bdd p = p_rel.image(psi);
                const bdd p_ok = p & !q;

                detail::expansion exp{
                    detail::split_by_top_block(mgr, p_ok, boundary),
                    mgr.zero()};
                // undefined (u,v): no product transition at all, not trimmed
                const bdd domain = mgr.exists(p, ns_cube);
                exp.to_dca = (!q) & (!domain);
                return exp;
            });
        detail::accumulate_stats(result.stats, p_rel);
        for (const transition_relation& rel : q_rels) {
            detail::accumulate_stats(result.stats, rel);
        }
        detail::read_manager_stats(result.stats, mgr);
        return result;
    } catch (const relation_deadline_exceeded&) {
        // relation construction (clustering) outlived the time limit before
        // the driver could notice (the driver handles its own expansions);
        // the relation counters died with the unwound relations
        solve_result result = detail::timeout_result(start);
        detail::read_manager_stats(result.stats, mgr);
        return result;
    }
}

} // namespace leq
