/// \file pursuit_game.cpp
/// \brief Game solving — another of the intro's motivating applications.
///
/// A safety game on a 4-cycle: a cat (the environment) and a mouse (the
/// unknown component) each sit on one of four positions arranged in a ring.
/// Every cycle the cat either stays or steps forward (environment input i),
/// and the mouse either stays or steps forward (X's output v).  The mouse
/// loses when both occupy the same position.
///
/// The game arena is a plain sequential network (four position latches and
/// two mod-4 incrementers), the winning condition "never caught" is the
/// specification "the safe flag is constantly 1", and the set of ALL
/// winning strategies is the CSF of the language equation
/// arena . X <= spec over the controller topology.  A concrete strategy is
/// extracted, a pursuit is simulated against an adversarial cat, and a
/// deliberately bad strategy ("never move") is diagnosed with the concrete
/// losing run.

#include "automata/automaton_io.hpp"
#include "eq/subsolution.hpp"
#include "eq/topology.hpp"
#include "eq/verify.hpp"

#include <iostream>
#include <vector>

namespace {

using namespace leq;

/// The game arena: latches (m0,m1) mouse position, (c0,c1) cat position;
/// inputs (cat_go, mouse_go); output safe = !(m == c).
/// Mouse starts at 0, cat at 2 (encoded in the latch init values).
network make_arena() {
    network arena("ring_arena");
    arena.add_input("cat_go");   // i: environment decision
    arena.add_input("mouse_go"); // c: the strategy's decision
    // mouse position, initial 0
    arena.add_latch("m0n", "m0", false);
    arena.add_latch("m1n", "m1", false);
    // cat position, initial 2 (bits: m0 low, m1 high)
    arena.add_latch("c0n", "c0", false);
    arena.add_latch("c1n", "c1", true);
    // mod-4 increment when go: p0' = p0 ^ go; p1' = p1 ^ (p0 & go)
    arena.add_node("m0n", {"m0", "mouse_go"}, {"01", "10"});
    arena.add_node("m1n", {"m1", "m0", "mouse_go"}, {"011", "10-", "110"});
    arena.add_node("c0n", {"c0", "cat_go"}, {"01", "10"});
    arena.add_node("c1n", {"c1", "c0", "cat_go"}, {"011", "10-", "110"});
    // safe = !(m0 == c0 & m1 == c1)
    arena.add_node("same0", {"m0", "c0"}, {"00", "11"});
    arena.add_node("same1", {"m1", "c1"}, {"00", "11"});
    arena.add_node("safe", {"same0", "same1"}, {"11"}, true); // NAND
    arena.add_output("safe");
    arena.validate();
    return arena;
}

/// spec: safe must be constantly 1.
network make_safety_spec() {
    network spec("always_safe");
    spec.add_input("cat_go");
    spec.add_latch("cat_go", "dummy", false);
    spec.add_node("safe", {"dummy"}, {"0", "1"}); // constant 1
    spec.add_output("safe");
    spec.validate();
    return spec;
}

int position(bool b0, bool b1) { return (b1 ? 2 : 0) + (b0 ? 1 : 0); }

} // namespace

int main() {
    const network arena = make_arena();
    const network spec = make_safety_spec();

    std::cout << "pursuit game on a 4-ring: cat starts at 2, mouse at 0;\n"
                 "mouse loses on contact; strategies = solutions of\n"
                 "arena . X <= always_safe\n\n";

    auto sol = solve_controller(arena, spec);
    if (sol.result.status != solve_status::ok || sol.result.empty_solution) {
        std::cout << "the mouse cannot win\n";
        return 1;
    }
    equation_problem& problem = *sol.problem;
    const automaton& csf = *sol.result.csf;
    std::cout << "CSF (all winning strategies): " << csf.num_states()
              << " states\n";

    // extract a small concrete strategy and verify it
    const subsolution_result strategy =
        select_small_subsolution(csf, problem.u_vars, problem.v_vars);
    const bool strategy_ok =
        verify_composition_contained(problem, strategy.fsm);
    std::cout << "extracted strategy: " << strategy.fsm.num_states()
              << " state(s), policy " << to_string(strategy.policy) << ", "
              << (strategy_ok ? "verified" : "FAILED") << "\n\n";

    // simulate 12 rounds against an adversarial cat that always advances
    {
        std::vector<bool> state = arena.initial_state();
        std::uint32_t q = strategy.fsm.initial();
        bdd_manager& mgr = problem.mgr();
        std::cout << "pursuit against an always-advancing cat:\n";
        for (int round = 0; round < 12; ++round) {
            const bool cat_go = true;
            // strategy reads u = cat_go and commits to one v
            bool mouse_go = false;
            std::uint32_t next_q = q;
            for (const transition& t : strategy.fsm.transitions(q)) {
                std::vector<bool> letter(mgr.num_vars(), false);
                letter[problem.u_vars[0]] = cat_go;
                for (int v = 0; v < 2; ++v) {
                    letter[problem.v_vars[0]] = v != 0;
                    if (mgr.eval(t.label, letter)) {
                        mouse_go = v != 0;
                        next_q = t.dest;
                    }
                }
            }
            const auto r = arena.simulate(state, {cat_go, mouse_go});
            // latch order: m0, m1, c0, c1
            std::cout << "  round " << round << ": mouse at "
                      << position(state[0], state[1]) << (mouse_go ? " ->" : "  ")
                      << " cat at " << position(state[2], state[3])
                      << (cat_go ? " ->" : "  ")
                      << (r.outputs[0] ? "  safe" : "  CAUGHT") << '\n';
            if (!r.outputs[0]) { return 1; }
            state = r.next_state;
            q = next_q;
        }
    }

    // a bad strategy: the mouse never moves; the diagnosis prints the
    // concrete losing run (the cat walks two steps and eats it)
    bool lazy_rejected = false;
    {
        automaton lazy(problem.mgr(), csf.label_vars());
        lazy.add_state(true);
        lazy.set_initial(0);
        lazy.add_transition(0, 0, problem.mgr().nvar(problem.v_vars[0]));
        const verify_diagnosis d = diagnose_composition_contained(problem, lazy);
        lazy_rejected = !d.ok;
        std::cout << "\n'never move' strategy diagnosis (i=cat_go, "
                     "v=mouse_go, o=safe):\n"
                  << format_diagnosis(d);
    }
    return strategy_ok && lazy_rejected ? 0 : 1;
}
