/// \file test_img.cpp
/// \brief Tests for partitioned image computation and reachability.

#include "gen/scenario.hpp"
#include "img/image.hpp"
#include "net/generator.hpp"
#include "net/netbdd.hpp"

#include <gtest/gtest.h>

#include <queue>
#include <set>

namespace {

using namespace leq;

struct circuit_vars {
    std::vector<std::uint32_t> in, cs, ns;
};

/// Allocate variables (inputs first, then interleaved cs/ns) and build the
/// partitioned functions.
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

/// Explicit BFS over the state graph (oracle for symbolic reachability).
std::set<std::vector<bool>> explicit_reachable(const network& net) {
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
            for (std::size_t b = 0; b < ni; ++b) { in[b] = ((m >> b) & 1) != 0; }
            const auto r = net.simulate(s, in);
            if (seen.insert(r.next_state).second) { work.push(r.next_state); }
        }
    }
    return seen;
}

class reach_property : public ::testing::TestWithParam<int> {};

TEST_P(reach_property, symbolic_reachability_matches_explicit_bfs) {
    const network net = make_menu_circuit(GetParam(), /*salt=*/1);
    bdd_manager mgr;
    auto [fns, vars] = setup(mgr, net);
    const bdd init = state_cube(mgr, vars.cs, net.initial_state());
    const bdd reached =
        reachable_states(mgr, fns.next_state, vars.cs, vars.ns, vars.in, init);

    const auto oracle = explicit_reachable(net);
    EXPECT_DOUBLE_EQ(
        mgr.sat_count(reached, static_cast<std::uint32_t>(vars.cs.size())) *
            1.0,
        static_cast<double>(oracle.size()))
        << "circuit " << GetParam();
    // membership agrees state by state
    for (const auto& s : oracle) {
        EXPECT_FALSE((state_cube(mgr, vars.cs, s) & reached).is_zero());
    }
}

INSTANTIATE_TEST_SUITE_P(circuit_families, reach_property,
                         ::testing::Range(0, 10));

TEST(partitioned_image, scheduled_image_matches_conjoin_then_quantify) {
    const network net = make_lfsr(6, {1, 3});
    bdd_manager mgr;
    auto [fns, vars] = setup(mgr, net);

    std::vector<bdd> parts;
    for (std::size_t k = 0; k < fns.next_state.size(); ++k) {
        parts.push_back(mgr.var(vars.ns[k]).iff(fns.next_state[k]));
    }
    std::vector<std::uint32_t> quantify = vars.in;
    quantify.insert(quantify.end(), vars.cs.begin(), vars.cs.end());

    const transition_relation rel(mgr, parts, quantify);
    // the oracle: conjoin everything, then quantify
    bdd product = mgr.one();
    for (const bdd& p : parts) { product &= p; }
    const bdd qcube = mgr.cube(quantify);

    const bdd from = state_cube(mgr, vars.cs, net.initial_state());
    EXPECT_EQ(rel.image(from), mgr.exists(product & from, qcube));
    // also from a non-singleton set
    const bdd set = from | state_cube(mgr, vars.cs,
                                      {true, false, true, false, true, false});
    EXPECT_EQ(rel.image(set), mgr.exists(product & set, qcube));
}

TEST(partitioned_image, clustering_reduces_part_count) {
    const network net = make_counter(8);
    bdd_manager mgr;
    auto [fns, vars] = setup(mgr, net);
    std::vector<bdd> parts;
    for (std::size_t k = 0; k < fns.next_state.size(); ++k) {
        parts.push_back(mgr.var(vars.ns[k]).iff(fns.next_state[k]));
    }
    std::vector<std::uint32_t> quantify = vars.in;
    quantify.insert(quantify.end(), vars.cs.begin(), vars.cs.end());

    image_options big_clusters;
    big_clusters.cluster_limit = 100000;
    image_options no_clusters;
    no_clusters.cluster_limit = 0;
    const transition_relation clustered(mgr, parts, quantify, big_clusters);
    const transition_relation flat(mgr, parts, quantify, no_clusters);
    EXPECT_LT(clustered.num_clusters(), flat.num_clusters());
    EXPECT_EQ(flat.num_clusters(), parts.size());
    // same results either way
    const bdd from = state_cube(mgr, vars.cs, net.initial_state());
    EXPECT_EQ(clustered.image(from), flat.image(from));
}

TEST(partitioned_image, image_of_empty_set_is_empty) {
    const network net = make_counter(3);
    bdd_manager mgr;
    auto [fns, vars] = setup(mgr, net);
    std::vector<bdd> parts;
    for (std::size_t k = 0; k < fns.next_state.size(); ++k) {
        parts.push_back(mgr.var(vars.ns[k]).iff(fns.next_state[k]));
    }
    std::vector<std::uint32_t> quantify = vars.in;
    quantify.insert(quantify.end(), vars.cs.begin(), vars.cs.end());
    const transition_relation relation(mgr, parts, quantify);
    EXPECT_TRUE(relation.image(mgr.zero()).is_zero());
}

TEST(reachability, counter_reaches_every_state) {
    const network net = make_counter(6);
    bdd_manager mgr;
    auto [fns, vars] = setup(mgr, net);
    const bdd init = state_cube(mgr, vars.cs, net.initial_state());
    const bdd reached =
        reachable_states(mgr, fns.next_state, vars.cs, vars.ns, vars.in, init);
    EXPECT_DOUBLE_EQ(mgr.sat_count(reached, 6), 64.0);
}

TEST(reachability, holds_without_inputs_quantified_only_over_cs) {
    // a free-running 3-bit counter (enable tied high conceptually): build by
    // passing no input vars and substituting constants is not supported, so
    // verify instead that the reachable set from a mid state stays inside
    // the full reachable set
    const network net = make_counter(3);
    bdd_manager mgr;
    auto [fns, vars] = setup(mgr, net);
    const bdd from_mid = state_cube(mgr, vars.cs, {true, true, false});
    const bdd r_mid =
        reachable_states(mgr, fns.next_state, vars.cs, vars.ns, vars.in, from_mid);
    const bdd init = state_cube(mgr, vars.cs, net.initial_state());
    const bdd r_all =
        reachable_states(mgr, fns.next_state, vars.cs, vars.ns, vars.in, init);
    EXPECT_TRUE(r_mid.leq(r_all));
}

} // namespace
