/// \file quickstart.cpp
/// \brief The paper's worked example (Figure 3) end to end.
///
/// Takes the two-latch circuit of Figure 3 (T1 = i & cs2, T2 = !i | cs1,
/// o = cs1 & cs2), splits the second latch into the unknown-component
/// position, computes the Complete Sequential Flexibility with the
/// partitioned flow, prints the CSF automaton, and runs the paper's
/// verification checks.

#include "automata/automaton_io.hpp"
#include "eq/solver.hpp"
#include "eq/verify.hpp"
#include "net/blif.hpp"
#include "net/generator.hpp"
#include "net/latch_split.hpp"

#include <iostream>

int main() {
    using namespace leq;

    // 1. the original circuit (Figure 3) is the specification S
    const network original = make_paper_example();
    std::cout << "=== specification S (the paper's Figure-3 circuit) ===\n"
              << write_blif_string(original) << "\n";

    // 2. latch splitting: extract latch #1 as the particular solution X_P;
    //    the remaining circuit (logic + latch #0) is the fixed component F
    const split_result split = split_latches(original, {1});
    std::cout << "=== fixed component F (u = " << split.u_names[0]
              << ", v = " << split.v_names[0] << ") ===\n"
              << write_blif_string(split.fixed) << "\n";

    // 3. solve F . X <= S for the most general prefix-closed,
    //    input-progressive X (the CSF) with the partitioned flow
    const equation_problem problem(split.fixed, original);
    const solve_result result = solve_partitioned(problem);
    if (result.status != solve_status::ok) {
        std::cerr << "solver did not finish\n";
        return 1;
    }
    std::cout << "=== CSF: " << result.csf_states << " states (explored "
              << result.subset_states_explored << " subsets in "
              << result.seconds << "s) ===\n";

    var_names names(problem.mgr().num_vars());
    names.label(problem.u_vars, "u");
    names.label(problem.v_vars, "v");
    print_automaton(std::cout, *result.csf, names.get());

    // 4. the paper's checks: X_P <= X and F . X <= S
    const bool check1 = verify_particular_contained(
        problem, *result.csf, split.part.initial_state());
    const bool check2 = verify_composition_contained(problem, *result.csf);
    std::cout << "\ncheck (1) X_P <= X:   " << (check1 ? "ok" : "FAILED")
              << "\ncheck (2) F.X <= S:   " << (check2 ? "ok" : "FAILED")
              << "\n";

    // 5. cross-check against the monolithic baseline
    const solve_result mono = solve_monolithic(problem);
    const bool agree = mono.status == solve_status::ok &&
                       language_equivalent(*result.csf, *mono.csf);
    std::cout << "monolithic flow agrees: " << (agree ? "yes" : "NO") << "\n";
    return check1 && check2 && agree ? 0 : 1;
}
