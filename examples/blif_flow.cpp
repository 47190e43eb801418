/// \file blif_flow.cpp
/// \brief End-to-end BLIF tool flow: read a circuit from a BLIF file (or
/// generate a demo one), latch-split it, solve with both flows, compare,
/// and dump the CSF as Graphviz dot.
///
/// Usage: blif_flow [circuit.blif] [num_x_latches] [out.dot]
/// With no arguments a demo circuit is generated.

#include "automata/automaton_io.hpp"
#include "eq/solver.hpp"
#include "eq/verify.hpp"
#include "net/blif.hpp"
#include "net/generator.hpp"
#include "net/latch_split.hpp"

#include <fstream>
#include <iostream>

int main(int argc, char** argv) {
    using namespace leq;

    network circuit = argc > 1 ? read_blif_file(argv[1])
                               : make_lfsr(5, {1, 3});
    const std::size_t x_count =
        argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2]))
                 : circuit.num_latches() / 2;
    if (x_count == 0 || x_count > circuit.num_latches()) {
        std::cerr << "bad latch count\n";
        return 1;
    }
    std::cout << "circuit '" << circuit.name() << "': "
              << circuit.num_inputs() << " inputs, " << circuit.num_outputs()
              << " outputs, " << circuit.num_latches() << " latches; "
              << "extracting the last " << x_count << " latches as X\n";

    const split_result split = split_last_latches(circuit, x_count);
    const equation_problem problem(split.fixed, circuit);

    solve_options options;
    options.time_limit_seconds = 120;
    const solve_result part = solve_partitioned(problem, options);
    const solve_result mono = solve_monolithic(problem, options);

    const auto report = [](const char* name, const solve_result& r) {
        std::cout << name << ": ";
        if (r.status == solve_status::ok) {
            std::cout << r.csf_states << " CSF states in " << r.seconds
                      << "s (" << r.subset_states_explored
                      << " subsets explored)\n";
        } else {
            std::cout << "did not complete\n";
        }
    };
    report("partitioned", part);
    report("monolithic ", mono);

    if (part.status != solve_status::ok) { return 1; }
    bool agree = true;
    if (mono.status == solve_status::ok) {
        agree = language_equivalent(*part.csf, *mono.csf);
        std::cout << "flows agree on the language: " << (agree ? "yes" : "NO")
                  << "\n";
    }
    const bool c1 = verify_particular_contained(problem, *part.csf,
                                                split.part.initial_state());
    const bool c2 = verify_composition_contained(problem, *part.csf);
    std::cout << "checks: X_P<=X " << (c1 ? "ok" : "FAIL") << ", F.X<=S "
              << (c2 ? "ok" : "FAIL") << "\n";

    if (argc > 3 && part.csf->num_states() <= 200) {
        var_names names(problem.mgr().num_vars());
        names.label(problem.u_vars, "u");
        names.label(problem.v_vars, "v");
        std::ofstream dot(argv[3]);
        write_dot(dot, *part.csf, names.get(), "csf");
        std::cout << "wrote " << argv[3] << "\n";
    }
    return agree && c1 && c2 ? 0 : 1;
}
