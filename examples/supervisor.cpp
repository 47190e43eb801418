/// \file supervisor.cpp
/// \brief Discrete-control scenario: synthesize an unknown controller.
///
/// One of the intro's motivating applications: the plant F is fixed, the
/// specification S constrains the externally visible behaviour, and the
/// language equation F . X <= S is solved for the controller X.
///
/// Plant: a one-latch "server" whose busy flag is commanded by the
/// controller (busy' = v); the environment sees o = busy and the controller
/// observes the request line (u = i).  Specification: the server must be
/// busy exactly one cycle after each request (o_t+1 = i_t), i.e. S is a
/// single register.  The synthesized CSF contains every controller that
/// meets the spec; a concrete implementation is then extracted greedily.

#include "automata/automaton_io.hpp"
#include "eq/solver.hpp"
#include "eq/subsolution.hpp"
#include "eq/verify.hpp"
#include "net/blif.hpp"

#include <iostream>

int main() {
    using namespace leq;

    // plant F: inputs (i, v), outputs (o, u)
    network plant("plant");
    plant.add_input("req");     // i: request line
    plant.add_input("cmd");     // v: controller's command
    plant.add_output("busy_o"); // o: observable busy flag
    plant.add_output("obs");    // u: what the controller observes
    plant.add_latch("busy_n", "busy", false);
    plant.add_node("busy_o", {"busy"}, {"1"});
    plant.add_node("obs", {"req"}, {"1"});
    plant.add_node("busy_n", {"cmd"}, {"1"});
    plant.validate();

    // specification S: o must equal i delayed by one cycle
    network spec("spec");
    spec.add_input("req");
    spec.add_output("busy_o");
    spec.add_latch("d_n", "d", false);
    spec.add_node("d_n", {"req"}, {"1"});
    spec.add_node("busy_o", {"d"}, {"1"});
    spec.validate();

    std::cout << "plant F:\n" << write_blif_string(plant)
              << "\nspecification S:\n" << write_blif_string(spec) << "\n";

    const equation_problem problem(plant, spec);
    const solve_result result = solve_partitioned(problem);
    if (result.status != solve_status::ok || result.empty_solution) {
        std::cerr << "no controller exists\n";
        return 1;
    }

    var_names names(problem.mgr().num_vars());
    names.label(problem.u_vars, "u");
    names.label(problem.v_vars, "v");
    std::cout << "=== all admissible controllers (CSF, " << result.csf_states
              << " states) ===\n";
    print_automaton(std::cout, *result.csf, names.get());

    std::cout << "\n=== one concrete controller (greedy extraction) ===\n";
    const automaton fsm =
        extract_fsm(*result.csf, problem.u_vars, problem.v_vars);
    print_automaton(std::cout, fsm, names.get());
    const bool fits = language_contained(fsm, *result.csf);
    std::cout << "extracted FSM contained in CSF: " << (fits ? "yes" : "NO")
              << "\n";

    const bool sound = verify_composition_contained(problem, *result.csf);
    std::cout << "plant . CSF <= spec: " << (sound ? "verified" : "FAILED")
              << "\n";
    return fits && sound ? 0 : 1;
}
