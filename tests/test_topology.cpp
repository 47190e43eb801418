/// \file test_topology.cpp
/// \brief Alternative topologies (paper footnote 6): cascade tail/head and
/// controller synthesis, reduced to Figure-1 form and cross-checked against
/// the explicit oracle.

#include "eq/subsolution.hpp"
#include "eq/topology.hpp"
#include "eq/verify.hpp"
#include "net/generator.hpp"

#include <gtest/gtest.h>

namespace {

using namespace leq;

/// o_t = i_{t-1}: one latch, output buffered from the state.
network make_delay1(const std::string& in = "a", const std::string& out = "z") {
    network net("delay1");
    net.add_input(in);
    net.add_latch(in, "s0", false);
    net.add_node(out, {"s0"}, {"1"});
    net.add_output(out);
    net.validate();
    return net;
}

/// o_t = i_{t-2}: two latches in series.
network make_delay2(const std::string& in = "a", const std::string& out = "z") {
    network net("delay2");
    net.add_input(in);
    net.add_latch(in, "s0", false);
    net.add_latch("s0", "s1", false);
    net.add_node(out, {"s1"}, {"1"});
    net.add_output(out);
    net.validate();
    return net;
}

/// front for the negative test: u is constantly 0 regardless of the input.
network make_blind_front() {
    network net("blind");
    net.add_input("a");
    net.add_node("u0", {"a"}, {}, false); // empty cover = constant 0
    net.add_output("u0");
    // one latch so the fixed part is sequential (exercises the cs_f path)
    net.add_latch("a", "junk", false);
    net.add_node("sink", {"junk"}, {"1"});
    (void)net;
    net.validate();
    return net;
}

/// plant for controller synthesis: state := control input, output = state.
network make_steerable_plant() {
    network net("plant");
    net.add_input("a");
    net.add_input("c");
    net.add_latch("c", "s", false);
    net.add_node("z", {"s"}, {"1"});
    net.add_output("z");
    net.validate();
    return net;
}

// ---------------------------------------------------------------------------
// cascade tail: delay1 . X <= delay2  =>  X is a 1-bit delay
// ---------------------------------------------------------------------------

TEST(topology, cascade_tail_delay_decomposition) {
    const network front = make_delay1("a", "d");
    const network spec = make_delay2();
    auto sol = solve_cascade_tail(front, spec);
    ASSERT_EQ(sol.result.status, solve_status::ok);
    ASSERT_FALSE(sol.result.empty_solution);

    // the transformed F has interface (i..., v...) -> (o..., u...)
    EXPECT_EQ(sol.fixed.num_inputs(), 2u);  // a + one v
    EXPECT_EQ(sol.fixed.num_outputs(), 2u); // z + one u
    EXPECT_EQ(sol.fixed.signal_name(sol.fixed.inputs()[0]), "a");
    EXPECT_EQ(sol.fixed.signal_name(sol.fixed.outputs()[0]), "z");

    // any implementation extracted from the CSF satisfies the composition
    const automaton fsm = extract_fsm(*sol.result.csf, sol.problem->u_vars,
                                      sol.problem->v_vars);
    EXPECT_TRUE(verify_composition_contained(*sol.problem, fsm));

    // cross-check the whole flow against the explicit oracle
    const solve_result oracle =
        solve_explicit(*sol.problem, sol.fixed, spec);
    ASSERT_EQ(oracle.status, solve_status::ok);
    EXPECT_TRUE(language_equivalent(*sol.result.csf, *oracle.csf));
}

TEST(topology, cascade_tail_contains_the_delay_behaviour) {
    const network front = make_delay1("a", "d");
    const network spec = make_delay2();
    auto sol = solve_cascade_tail(front, spec);
    ASSERT_EQ(sol.result.status, solve_status::ok);
    const automaton& csf = *sol.result.csf;
    bdd_manager& mgr = sol.problem->mgr();
    const std::uint32_t u0 = sol.problem->u_vars[0];
    const std::uint32_t v0 = sol.problem->v_vars[0];

    // X_delay: state b, reads u, writes v=b, b' = u — as an automaton:
    // two states (b=0, b=1); from state b: label (v == b), dest = u value
    automaton xdelay(mgr, csf.label_vars());
    xdelay.add_state(true);
    xdelay.add_state(true);
    xdelay.set_initial(0);
    for (std::uint32_t b = 0; b < 2; ++b) {
        for (std::uint32_t u = 0; u < 2; ++u) {
            xdelay.add_transition(b, u,
                                  mgr.literal(v0, b != 0) &
                                      mgr.literal(u0, u != 0));
        }
    }
    EXPECT_TRUE(language_contained(xdelay, csf));
}

TEST(topology, cascade_tail_rejects_mismatched_front) {
    network front("bad");
    front.add_input("wrong_name");
    front.add_node("u0", {"wrong_name"}, {"1"});
    front.add_output("u0");
    EXPECT_THROW((void)to_figure1_cascade_tail(front, make_delay2()),
                 std::invalid_argument);
}

TEST(topology, cascade_tail_blind_front_has_no_solution) {
    auto sol = solve_cascade_tail(make_blind_front(), make_delay1());
    ASSERT_EQ(sol.result.status, solve_status::ok);
    EXPECT_TRUE(sol.result.empty_solution);
}

// ---------------------------------------------------------------------------
// cascade head: X . delay1 <= delay2  =>  X is a 1-bit delay
// ---------------------------------------------------------------------------

TEST(topology, cascade_head_delay_decomposition) {
    const network back = make_delay1("b", "z");
    const network spec = make_delay2();
    auto sol = solve_cascade_head(back, spec);
    ASSERT_EQ(sol.result.status, solve_status::ok);
    ASSERT_FALSE(sol.result.empty_solution);

    EXPECT_EQ(sol.fixed.num_inputs(), 2u);  // a + one v
    EXPECT_EQ(sol.fixed.num_outputs(), 2u); // z + one u
    EXPECT_EQ(sol.fixed.signal_name(sol.fixed.inputs()[0]), "a");
    EXPECT_EQ(sol.fixed.signal_name(sol.fixed.outputs()[0]), "z");

    const automaton fsm = extract_fsm(*sol.result.csf, sol.problem->u_vars,
                                      sol.problem->v_vars);
    EXPECT_TRUE(verify_composition_contained(*sol.problem, fsm));

    const solve_result oracle =
        solve_explicit(*sol.problem, sol.fixed, spec);
    ASSERT_EQ(oracle.status, solve_status::ok);
    EXPECT_TRUE(language_equivalent(*sol.result.csf, *oracle.csf));
}

TEST(topology, cascade_head_rejects_output_mismatch) {
    const network back = make_delay1("b", "not_z");
    EXPECT_THROW((void)to_figure1_cascade_head(back, make_delay2()),
                 std::invalid_argument);
}

// ---------------------------------------------------------------------------
// controller: plant state := c, spec wants o_t = i_{t-1}  =>  c := i
// ---------------------------------------------------------------------------

TEST(topology, controller_synthesis_identity_control) {
    const network plant = make_steerable_plant();
    const network spec = make_delay1("a", "z");
    auto sol = solve_controller(plant, spec);
    ASSERT_EQ(sol.result.status, solve_status::ok);
    ASSERT_FALSE(sol.result.empty_solution);

    const automaton& csf = *sol.result.csf;
    bdd_manager& mgr = sol.problem->mgr();
    const std::uint32_t u0 = sol.problem->u_vars[0];
    const std::uint32_t v0 = sol.problem->v_vars[0];

    // the identity controller (v = u combinationally) must be a solution
    automaton identity(mgr, csf.label_vars());
    identity.add_state(true);
    identity.set_initial(0);
    identity.add_transition(0, 0, mgr.var(u0).iff(mgr.var(v0)));
    EXPECT_TRUE(language_contained(identity, csf));

    const automaton fsm = extract_fsm(csf, sol.problem->u_vars,
                                      sol.problem->v_vars);
    EXPECT_TRUE(verify_composition_contained(*sol.problem, fsm));

    const solve_result oracle =
        solve_explicit(*sol.problem, sol.fixed, spec);
    ASSERT_EQ(oracle.status, solve_status::ok);
    EXPECT_TRUE(language_equivalent(csf, *oracle.csf));
}

TEST(topology, controller_rejects_wrong_interfaces) {
    // plant with no control inputs at all still type-checks (num_c = 0) but
    // mismatched output names must throw
    network plant("p");
    plant.add_input("a");
    plant.add_latch("a", "s", false);
    plant.add_node("wrong", {"s"}, {"1"});
    plant.add_output("wrong");
    EXPECT_THROW((void)to_figure1_controller(plant, make_delay1("a", "z")),
                 std::invalid_argument);
}

// ---------------------------------------------------------------------------
// transforms preserve simulation semantics
// ---------------------------------------------------------------------------

TEST(topology, cascade_tail_transform_simulates_correctly) {
    const network front = make_delay1("a", "d");
    const network spec = make_delay2();
    const network fixed = to_figure1_cascade_tail(front, spec);
    // drive (a, v): o must equal v (buffer) and u must equal a delayed
    std::vector<bool> state(fixed.num_latches(), false);
    std::vector<bool> front_state(front.num_latches(), false);
    std::uint32_t lcg = 12345;
    for (int t = 0; t < 32; ++t) {
        lcg = lcg * 1664525u + 1013904223u;
        const bool a = (lcg >> 16) & 1u;
        const bool v = (lcg >> 17) & 1u;
        const auto r = fixed.simulate(state, {a, v});
        const auto fr = front.simulate(front_state, {a});
        ASSERT_EQ(r.outputs.size(), 2u);
        EXPECT_EQ(r.outputs[0], v) << "o must buffer v at t=" << t;
        EXPECT_EQ(r.outputs[1], fr.outputs[0]) << "u must follow front";
        state = r.next_state;
        front_state = fr.next_state;
    }
}

TEST(topology, controller_transform_simulates_correctly) {
    const network plant = make_steerable_plant();
    const network spec = make_delay1("a", "z");
    const network fixed = to_figure1_controller(plant, spec);
    std::vector<bool> state(fixed.num_latches(), false);
    std::vector<bool> plant_state(plant.num_latches(), false);
    std::uint32_t lcg = 99;
    for (int t = 0; t < 32; ++t) {
        lcg = lcg * 1664525u + 1013904223u;
        const bool a = (lcg >> 16) & 1u;
        const bool v = (lcg >> 18) & 1u;
        const auto r = fixed.simulate(state, {a, v});
        const auto pr = plant.simulate(plant_state, {a, v});
        ASSERT_EQ(r.outputs.size(), 2u);
        EXPECT_EQ(r.outputs[0], pr.outputs[0]) << "o must follow plant";
        EXPECT_EQ(r.outputs[1], a) << "u must expose the external input";
        state = r.next_state;
        plant_state = pr.next_state;
    }
}

} // namespace
