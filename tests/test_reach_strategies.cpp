/// \file test_reach_strategies.cpp
/// \brief The two reachability strategies (the default frontier fixpoint
/// and the textbook bfs one it is checked against) must be pure
/// scheduling choices: on any machine, with clustering on or off, they
/// reach the identical state set with the identical sat count and the
/// identical BFS layering.  Cross-checked on randomly generated networks
/// (plus structured families) and against an explicit-state BFS.

#include "gen/scenario.hpp"
#include "img/image.hpp"
#include "net/generator.hpp"
#include "net/netbdd.hpp"

#include <gtest/gtest.h>

#include <queue>
#include <set>
#include <vector>

namespace {

using namespace leq;

struct circuit_vars {
    std::vector<std::uint32_t> in, cs, ns;
};

std::pair<net_bdds, circuit_vars> setup(bdd_manager& mgr, const network& net) {
    circuit_vars vars;
    for (std::size_t k = 0; k < net.num_inputs(); ++k) {
        vars.in.push_back(mgr.new_var());
    }
    for (std::size_t k = 0; k < net.num_latches(); ++k) {
        vars.cs.push_back(mgr.new_var());
        vars.ns.push_back(mgr.new_var());
    }
    net_bdds fns = build_net_bdds(mgr, net, vars.in, vars.cs);
    return {std::move(fns), std::move(vars)};
}

/// Explicit BFS oracle (state count only; small machines).
std::size_t explicit_reachable_count(const network& net) {
    std::set<std::vector<bool>> seen;
    std::queue<std::vector<bool>> work;
    work.push(net.initial_state());
    seen.insert(net.initial_state());
    const std::size_t ni = net.num_inputs();
    while (!work.empty()) {
        const std::vector<bool> s = work.front();
        work.pop();
        for (std::size_t m = 0; m < (1u << ni); ++m) {
            std::vector<bool> in(ni);
            for (std::size_t b = 0; b < ni; ++b) {
                in[b] = ((m >> b) & 1) != 0;
            }
            const auto r = net.simulate(s, in);
            if (seen.insert(r.next_state).second) { work.push(r.next_state); }
        }
    }
    return seen.size();
}

/// 24 machines: the deliberately deep/wide stress shapes this suite exists
/// for (strategies diverge most past ~5 sequential levels / 6 parallel
/// latches), then the shared menu's named families and random tail.
network machine_for(int id) {
    switch (id) {
    case 1: return make_counter(6);    // deep-sequential
    case 2: return make_lfsr(6, {1, 4});
    case 3: return make_shift_xor(7);  // wide-parallel
    default: return make_menu_circuit(id);
    }
}

/// The full option matrix the engine supports: every strategy x
/// clustering off/default.
std::vector<image_options> option_matrix() {
    std::vector<image_options> matrix;
    for (const reach_strategy strategy : all_reach_strategies) {
        for (const std::size_t cluster : {std::size_t{0}, std::size_t{2500}}) {
            image_options o;
            o.strategy = strategy;
            o.cluster_limit = cluster;
            matrix.push_back(o);
        }
    }
    return matrix;
}

class reach_strategies : public ::testing::TestWithParam<int> {};

TEST_P(reach_strategies, identical_reached_set_across_option_matrix) {
    const network net = machine_for(GetParam());
    bdd_manager mgr;
    auto [fns, vars] = setup(mgr, net);
    const bdd init = state_cube(mgr, vars.cs, net.initial_state());
    const auto nbits = static_cast<std::uint32_t>(vars.cs.size());

    const bdd reference = reachable_states(mgr, fns.next_state, vars.cs,
                                           vars.ns, vars.in, init);
    const double ref_count = mgr.sat_count(reference, nbits);
    for (const image_options& options : option_matrix()) {
        const bdd reached = reachable_states(mgr, fns.next_state, vars.cs,
                                             vars.ns, vars.in, init, options);
        EXPECT_EQ(reached, reference)
            << "machine " << GetParam() << " strategy "
            << to_string(options.strategy) << " cluster "
            << options.cluster_limit;
        EXPECT_DOUBLE_EQ(mgr.sat_count(reached, nbits), ref_count);
    }
}

TEST_P(reach_strategies, identical_layering_and_depth) {
    const network net = machine_for(GetParam());
    bdd_manager mgr;
    auto [fns, vars] = setup(mgr, net);
    const bdd init = state_cube(mgr, vars.cs, net.initial_state());

    // both strategies add exactly the BFS layer Img(R_k) \ R_k per step,
    // so depth and per-layer counts agree, not just the fixpoint
    image_options options;
    options.strategy = reach_strategy::frontier;
    const reach_info reference = reachable_states_layered(
        mgr, fns.next_state, vars.cs, vars.ns, vars.in, init, options);
    options.strategy = reach_strategy::bfs;
    const reach_info info = reachable_states_layered(
        mgr, fns.next_state, vars.cs, vars.ns, vars.in, init, options);
    EXPECT_EQ(info.reached, reference.reached);
    EXPECT_EQ(info.depth, reference.depth);
    EXPECT_EQ(info.layer_states, reference.layer_states);
    EXPECT_DOUBLE_EQ(info.total_states, reference.total_states);
}

INSTANTIATE_TEST_SUITE_P(random_machines, reach_strategies,
                         ::testing::Range(0, 24));

TEST(reach_strategies_oracle, sat_count_matches_explicit_bfs) {
    for (int id = 0; id < 8; ++id) {
        const network net = machine_for(id);
        if (net.num_inputs() > 4 || net.num_latches() > 10) { continue; }
        bdd_manager mgr;
        auto [fns, vars] = setup(mgr, net);
        const bdd init = state_cube(mgr, vars.cs, net.initial_state());
        const auto oracle =
            static_cast<double>(explicit_reachable_count(net));
        for (const reach_strategy strategy : all_reach_strategies) {
            image_options options;
            options.strategy = strategy;
            const bdd reached = reachable_states(
                mgr, fns.next_state, vars.cs, vars.ns, vars.in, init, options);
            EXPECT_DOUBLE_EQ(
                mgr.sat_count(reached,
                              static_cast<std::uint32_t>(vars.cs.size())),
                oracle)
                << "machine " << id << " strategy " << to_string(strategy);
        }
    }
}

} // namespace
