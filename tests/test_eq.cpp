/// \file test_eq.cpp
/// \brief Integration tests for the language-equation solver: the
/// partitioned flow, the monolithic baseline and the explicit Algorithm-1
/// oracle must agree, and every solution must pass the paper's checks.

#include "automata/kiss.hpp"
#include "eq/solver.hpp"
#include "eq/verify.hpp"
#include "gen/scenario.hpp"
#include "net/generator.hpp"
#include "net/latch_split.hpp"

#include <gtest/gtest.h>

#include <random>

namespace {

using namespace leq;

struct instance {
    network original;
    split_result split;
    instance(network net, const std::vector<std::size_t>& x_latches)
        : original(std::move(net)),
          split(split_latches(original, x_latches)) {}
};

void check_flows_agree(const instance& inst, bool with_oracle = true) {
    const equation_problem problem(inst.split.fixed, inst.original);
    const solve_result part = solve_partitioned(problem);
    const solve_result mono = solve_monolithic(problem);
    ASSERT_EQ(part.status, solve_status::ok);
    ASSERT_EQ(mono.status, solve_status::ok);
    ASSERT_TRUE(part.csf.has_value());
    ASSERT_TRUE(mono.csf.has_value());
    EXPECT_FALSE(part.empty_solution)
        << "latch splitting always admits X_P itself";
    EXPECT_TRUE(language_equivalent(*part.csf, *mono.csf))
        << inst.original.name();
    if (with_oracle) {
        const solve_result oracle =
            solve_explicit(problem, inst.split.fixed, inst.original);
        EXPECT_TRUE(language_equivalent(*part.csf, *oracle.csf))
            << inst.original.name();
    }
    // the paper's verification: (1) X_P <= X, (2) F . X <= S
    EXPECT_TRUE(verify_particular_contained(
        problem, *part.csf, inst.split.part.initial_state()))
        << inst.original.name();
    EXPECT_TRUE(verify_composition_contained(problem, *part.csf))
        << inst.original.name();
}

TEST(eq_flows, paper_example_split_one_latch) {
    check_flows_agree(instance(make_paper_example(), {1}));
}

TEST(eq_flows, paper_example_split_other_latch) {
    check_flows_agree(instance(make_paper_example(), {0}));
}

TEST(eq_flows, counter_splits) {
    check_flows_agree(instance(make_counter(3), {2}));
    check_flows_agree(instance(make_counter(3), {0, 1}));
}

TEST(eq_flows, lfsr_split) {
    check_flows_agree(instance(make_lfsr(4, {1}), {2, 3}));
}

TEST(eq_flows, traffic_controller_split) {
    check_flows_agree(instance(make_traffic_controller(), {1}));
}

TEST(eq_flows, shift_xor_split) {
    check_flows_agree(instance(make_shift_xor(3), {1, 2}));
}

class eq_random_property : public ::testing::TestWithParam<unsigned> {};

TEST_P(eq_random_property, flows_agree_on_random_circuits) {
    const std::uint32_t seed = test_seed(2000 + GetParam());
    SCOPED_TRACE("seed " + std::to_string(seed));
    const network net = make_random_net(seed, 2, 2, 3, 4);
    // split one latch; oracle stays tractable (2+1 inputs, 2+1 outputs)
    check_flows_agree(instance(net, {2}));
}

INSTANTIATE_TEST_SUITE_P(random_seeds, eq_random_property,
                         ::testing::Range(0u, 8u));

class eq_random_two_latch : public ::testing::TestWithParam<unsigned> {};

TEST_P(eq_random_two_latch, symbolic_flows_agree_without_oracle) {
    const std::uint32_t seed = test_seed(3000 + GetParam());
    SCOPED_TRACE("seed " + std::to_string(seed));
    const network net = make_random_net(seed, 3, 2, 5, 4);
    check_flows_agree(instance(net, {2, 4}), /*with_oracle=*/false);
}

INSTANTIATE_TEST_SUITE_P(random_seeds, eq_random_two_latch,
                         ::testing::Range(0u, 6u));

TEST(eq_limits, time_limit_reports_timeout) {
    const auto suite = make_table1_suite();
    const split_result split =
        split_last_latches(suite[4].circuit, suite[4].x_latches); // s444-like
    const equation_problem problem(split.fixed, suite[4].circuit);
    solve_options options;
    options.time_limit_seconds = 1e-4; // effectively immediate
    const solve_result r = solve_partitioned(problem, options);
    EXPECT_EQ(r.status, solve_status::timeout);
    EXPECT_FALSE(r.csf.has_value());
}

TEST(eq_limits, state_limit_reports_limit) {
    const instance inst(make_counter(6), {0, 1, 2, 3});
    const equation_problem problem(inst.split.fixed, inst.original);
    solve_options options;
    options.max_subset_states = 2;
    const solve_result r = solve_partitioned(problem, options);
    EXPECT_EQ(r.status, solve_status::state_limit);
}

TEST(eq_empty, unsatisfiable_specification_yields_empty_csf) {
    // F: o = i and u = i, X cannot influence o at all; S demands o = !i.
    // Every (u,v) label is achievable (choose i = u) and every achieved
    // step violates S, so Q covers the whole (u,v) space, the progressive
    // step kills the initial state, and no solution exists.  (With u tied
    // to v instead, unachievable labels would escape to DCA and a vacuous,
    // non-compositionally-progressive X would survive — the phenomenon of
    // the paper's footnote 5.)
    network f("f");
    f.add_input("i");
    f.add_input("v0");
    f.add_output("o");
    f.add_output("u0");
    f.add_node("o", {"i"}, {"1"});
    f.add_node("u0", {"i"}, {"1"});
    f.validate();
    network s("s");
    s.add_input("i");
    s.add_output("o");
    s.add_latch("n0", "q0", false);
    s.add_node("o", {"i"}, {"0"});
    s.add_node("n0", {"q0"}, {"1"});
    s.validate();
    const equation_problem problem(f, s);
    const solve_result part = solve_partitioned(problem);
    const solve_result mono = solve_monolithic(problem);
    EXPECT_TRUE(part.empty_solution);
    EXPECT_TRUE(mono.empty_solution);
}

TEST(eq_trivial, unconstrained_unknown_gets_universal_csf) {
    // F: o = i (X's ports do not influence o); every X conforms, the CSF is
    // the universal prefix-closed language over (u,v)
    network f("f");
    f.add_input("i");
    f.add_input("v0");
    f.add_output("o");
    f.add_output("u0");
    f.add_node("o", {"i"}, {"1"});
    f.add_node("u0", {"v0"}, {"1"});
    f.validate();
    network s("s");
    s.add_input("i");
    s.add_output("o");
    s.add_latch("n0", "q0", false);
    s.add_node("o", {"i"}, {"1"});
    s.add_node("n0", {"q0"}, {"1"});
    s.validate();
    const equation_problem problem(f, s);
    const solve_result part = solve_partitioned(problem);
    ASSERT_EQ(part.status, solve_status::ok);
    EXPECT_FALSE(part.empty_solution);
    // universal language: every (u,v) always allowed
    for (std::uint32_t q = 0; q < part.csf->num_states(); ++q) {
        EXPECT_TRUE(part.csf->domain(q).is_one());
    }
}

} // namespace

namespace {

using namespace leq;

/// Build a letter (full assignment) for the (u, v) label variables.
std::vector<bool> uv_letter(const equation_problem& p,
                            const std::vector<bool>& u,
                            const std::vector<bool>& v) {
    std::vector<bool> letter(p.mgr().num_vars(), false);
    for (std::size_t m = 0; m < u.size(); ++m) { letter[p.u_vars[m]] = u[m]; }
    for (std::size_t m = 0; m < v.size(); ++m) { letter[p.v_vars[m]] = v[m]; }
    return letter;
}

TEST(eq_language, csf_accepts_exactly_the_particular_solutions_traces) {
    // the paper's example: X_P is latch #1, so its legal traces satisfy
    // v_t = u_{t-1} with v_0 = 0 (the latch's reset value); every prefix of
    // such a trace must be in the CSF
    const instance inst(make_paper_example(), {1});
    const equation_problem problem(inst.split.fixed, inst.original);
    const solve_result r = solve_partitioned(problem);
    ASSERT_EQ(r.status, solve_status::ok);
    const automaton& csf = *r.csf;

    std::mt19937 rng(3);
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<std::vector<bool>> word;
        bool state = false; // latch initial value
        const int len = 1 + static_cast<int>(rng() % 8);
        for (int t = 0; t < len; ++t) {
            const bool u = (rng() & 1) != 0;
            word.push_back(uv_letter(problem, {u}, {state}));
            state = u;
        }
        EXPECT_TRUE(accepts(csf, word)) << "X_P trace rejected, trial "
                                        << trial;
    }
    // a trace that lies about the first v (latch resets to 0, claiming v=1
    // in step one is not X_P behaviour, but may still be allowed by the
    // flexibility); the CSF must at least be prefix-closed: any accepted
    // word's prefixes are accepted
    for (int trial = 0; trial < 20; ++trial) {
        std::vector<std::vector<bool>> word;
        const int len = 2 + static_cast<int>(rng() % 6);
        for (int t = 0; t < len; ++t) {
            word.push_back(uv_letter(problem, {(rng() & 1) != 0},
                                     {(rng() & 1) != 0}));
        }
        if (accepts(csf, word)) {
            for (std::size_t cut = 0; cut < word.size(); ++cut) {
                std::vector<std::vector<bool>> prefix(word.begin(),
                                                      word.begin() + cut);
                EXPECT_TRUE(accepts(csf, prefix)) << "prefix-closure broken";
            }
        }
    }
}

TEST(eq_language, csf_is_input_progressive_walk) {
    // from any accepted word, for every next u some v must extend the word
    const instance inst(make_traffic_controller(), {1});
    const equation_problem problem(inst.split.fixed, inst.original);
    const solve_result r = solve_partitioned(problem);
    ASSERT_EQ(r.status, solve_status::ok);
    const automaton& csf = *r.csf;

    std::mt19937 rng(9);
    std::vector<std::vector<bool>> word;
    for (int step = 0; step < 30; ++step) {
        const bool u = (rng() & 1) != 0;
        bool extended = false;
        for (const bool v : {false, true}) {
            word.push_back(uv_letter(problem, {u}, {v}));
            if (accepts(csf, word)) {
                extended = true;
                break;
            }
            word.pop_back();
        }
        ASSERT_TRUE(extended) << "not input-progressive at step " << step;
    }
}

} // namespace


namespace {

using namespace leq;

TEST(eq_canonical, minimized_csfs_of_both_flows_are_isomorphic_in_size) {
    // the minimal DFA of a language is unique, so after minimization the
    // two flows must produce state-identical automata even when their raw
    // subset constructions differ
    for (int id = 0; id < 3; ++id) {
        const network net = id == 0   ? make_counter(4)
                            : id == 1 ? make_traffic_controller()
                                      : make_lfsr(4, {1});
        const instance inst(net, {net.num_latches() - 1});
        const equation_problem problem(inst.split.fixed, inst.original);
        const solve_result part = solve_partitioned(problem);
        const solve_result mono = solve_monolithic(problem);
        ASSERT_EQ(part.status, solve_status::ok);
        ASSERT_EQ(mono.status, solve_status::ok);
        ASSERT_TRUE(is_deterministic(*part.csf));
        ASSERT_TRUE(is_deterministic(*mono.csf));
        const automaton a = minimize(*part.csf);
        const automaton b = minimize(*mono.csf);
        EXPECT_EQ(a.num_states(), b.num_states()) << "circuit " << id;
        EXPECT_TRUE(language_equivalent(a, b)) << "circuit " << id;
    }
}

TEST(eq_canonical, partitioned_csf_keeps_the_interning_order) {
    // The subset driver numbers subsets as it discovers them and expands
    // them in that order (breadth first); the CSF keeps the numbering, and
    // each state's edges keep the order of the cofactor-class split.  Other
    // tests only compare one run with another, so this pins the text
    // itself: the paper example split at latch 1, with its states and
    // transitions in interning order (s14 is the don't-care state).
    const instance inst(make_paper_example(), {1});
    const equation_problem problem(inst.split.fixed, inst.original);
    const solve_result r = solve_partitioned(problem);
    ASSERT_EQ(r.status, solve_status::ok);
    EXPECT_EQ(write_kiss_string(*r.csf, problem.u_vars, problem.v_vars),
              ".i 1\n.o 1\n.s 15\n.p 36\n.r s0\n"
              "0 s0 s0 0\n0 s0 s1 1\n1 s0 s2 -\n"
              "1 s1 s3 0\n0 s1 s14 -\n"
              "0 s2 s4 0\n0 s2 s5 1\n1 s2 s2 -\n"
              "0 s3 s6 0\n0 s3 s7 1\n1 s3 s2 -\n"
              "0 s4 s2 0\n1 s4 s2 -\n0 s4 s8 1\n"
              "1 s5 s2 0\n0 s5 s14 -\n"
              "0 s6 s3 0\n0 s6 s9 1\n1 s6 s2 -\n"
              "1 s7 s3 0\n0 s7 s14 -\n"
              "1 s8 s10 0\n0 s8 s14 -\n"
              "1 s9 s11 0\n0 s9 s14 -\n"
              "0 s10 s10 0\n0 s10 s12 1\n1 s10 s2 -\n"
              "0 s11 s11 0\n0 s11 s13 1\n1 s11 s2 -\n"
              "1 s12 s10 0\n0 s12 s14 -\n"
              "1 s13 s11 0\n0 s13 s14 -\n"
              "- s14 s14 -\n"
              ".e\n");
}

TEST(eq_canonical, csf_is_deterministic_across_families) {
    for (int id = 0; id < 5; ++id) {
        const network net = make_menu_circuit(id);
        const instance inst(net, {net.num_latches() - 1});
        const equation_problem problem(inst.split.fixed, inst.original);
        const solve_result r = solve_partitioned(problem);
        ASSERT_EQ(r.status, solve_status::ok);
        EXPECT_TRUE(is_deterministic(*r.csf)) << id;
    }
}

} // namespace
