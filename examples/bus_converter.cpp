/// \file bus_converter.cpp
/// \brief Protocol conversion — one of the intro's motivating applications —
/// via the controller topology (footnote 6).
///
/// A bus slave raises `ack` one cycle after a request *only if* the gate
/// logic enables it: the plant computes ack' = req & gate, where `gate` is a
/// control input nobody has designed yet.  The protocol specification says
/// every request is acknowledged exactly one cycle later, unconditionally:
/// ack_t = req_{t-1}.
///
/// Solving the language equation plant . X <= spec over the controller
/// topology yields the complete sequential flexibility of the gate driver:
/// every gate behaviour that makes the slave speak the target protocol.
/// The example then picks the smallest implementation with the sub-solution
/// search, prints it, and demonstrates the diagnostic counterexample a
/// wrong gate driver produces.

#include "automata/automaton_io.hpp"
#include "eq/subsolution.hpp"
#include "eq/topology.hpp"
#include "eq/verify.hpp"

#include <iostream>

int main() {
    using namespace leq;

    // the plant: a bus slave with an undesigned gate input
    network plant("bus_slave");
    plant.add_input("req");  // i: the master's request line
    plant.add_input("gate"); // c: the control X must drive
    plant.add_latch("pend", "ack", false); // ack' = pend
    plant.add_node("pend", {"req", "gate"}, {"11"}); // pend = req & gate
    plant.add_output("ack");
    plant.validate();

    // the protocol spec: ack_t = req_{t-1}
    network spec("protocol");
    spec.add_input("req");
    spec.add_latch("req", "seen", false);
    spec.add_node("ack", {"seen"}, {"1"});
    spec.add_output("ack");
    spec.validate();

    std::cout << "bus slave: ack' = req & gate;  spec: ack_t = req_{t-1}\n\n";

    // solve over the controller topology: X observes req (as u), drives gate
    auto sol = solve_controller(plant, spec);
    if (sol.result.status != solve_status::ok || sol.result.empty_solution) {
        std::cout << "no gate driver exists\n";
        return 1;
    }
    const automaton& csf = *sol.result.csf;
    equation_problem& problem = *sol.problem;
    std::cout << "CSF of the gate driver: " << csf.num_states()
              << " states (every correct gate behaviour)\n";

    var_names names(problem.mgr().num_vars());
    names.label(problem.u_vars, "req");
    names.label(problem.v_vars, "gate");
    print_automaton(std::cout, csf, names.get());

    // the always-on gate must be among the allowed behaviours
    bool always_on_allowed = false;
    {
        automaton always_on(problem.mgr(), csf.label_vars());
        always_on.add_state(true);
        always_on.set_initial(0);
        always_on.add_transition(0, 0, problem.mgr().var(problem.v_vars[0]));
        always_on_allowed = language_contained(always_on, csf);
        std::cout << "\n'gate = 1 always' allowed: "
                  << (always_on_allowed ? "yes" : "no") << '\n';
    }

    // pick the smallest implementation
    const subsolution_result small =
        select_small_subsolution(csf, problem.u_vars, problem.v_vars);
    std::cout << "smallest extracted gate driver: " << small.fsm.num_states()
              << " state(s), policy " << to_string(small.policy) << '\n';
    print_automaton(std::cout, small.fsm, names.get());
    const bool small_ok = verify_composition_contained(problem, small.fsm);
    std::cout << "composition check: " << (small_ok ? "ok" : "FAILED") << '\n';

    // a wrong driver: gate stuck at 0 — the diagnosis shows the protocol
    // violation as a concrete (req, gate, ack) run
    bool stuck_rejected = false;
    {
        automaton stuck(problem.mgr(), csf.label_vars());
        stuck.add_state(true);
        stuck.set_initial(0);
        stuck.add_transition(0, 0, problem.mgr().nvar(problem.v_vars[0]));
        const verify_diagnosis d =
            diagnose_composition_contained(problem, stuck);
        stuck_rejected = !d.ok;
        std::cout << "\n'gate = 0 always' diagnosis:\n" << format_diagnosis(d);
    }
    return always_on_allowed && small_ok && stuck_rejected ? 0 : 1;
}
