/// \file test_relation.cpp
/// \brief Oracle suite for the shared transition-relation subsystem
/// (src/rel/): image/preimage over random partitions must equal the naive
/// monolithic conjunction across the full {clustering policy x cluster_limit
/// x strategy} option matrix, affinity clustering
/// must respect its node bound, and relation-layer deadlines must interrupt
/// image chains, reachability fixpoints and both solver flows.

#include "eq/solver.hpp"
#include "gen/scenario.hpp"
#include "img/image.hpp"
#include "net/generator.hpp"
#include "net/latch_split.hpp"
#include "net/netbdd.hpp"
#include "rel/relation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <random>
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

/// Relation parts ns_k == T_k for a compiled network.
std::vector<bdd> next_state_parts(bdd_manager& mgr, const net_bdds& fns,
                                  const circuit_vars& vars) {
    std::vector<bdd> parts;
    for (std::size_t k = 0; k < fns.next_state.size(); ++k) {
        parts.push_back(mgr.var(vars.ns[k]).iff(fns.next_state[k]));
    }
    return parts;
}

/// The full option matrix of the relation layer.
std::vector<image_options> option_matrix() {
    std::vector<image_options> matrix;
    for (const cluster_policy policy : all_cluster_policies) {
        for (const std::size_t limit :
             {std::size_t{0}, std::size_t{60}, std::size_t{2500}}) {
            for (const reach_strategy strategy : all_reach_strategies) {
                image_options o;
                o.policy = policy;
                o.cluster_limit = limit;
                o.strategy = strategy;
                matrix.push_back(o);
            }
        }
    }
    return matrix;
}

network machine_for(int id) { return make_menu_circuit(id, /*salt=*/4); }

/// A few interesting from/to sets over the cs variables: the initial state,
/// a random union of states, and a random function of the cs variables.
std::vector<bdd> sample_state_sets(bdd_manager& mgr, const network& net,
                                   const circuit_vars& vars,
                                   std::uint32_t seed) {
    std::mt19937 rng(seed);
    std::vector<bdd> sets;
    sets.push_back(state_cube(mgr, vars.cs, net.initial_state()));
    bdd some = sets.back();
    for (int k = 0; k < 3; ++k) {
        std::vector<bool> s(vars.cs.size());
        for (std::size_t b = 0; b < s.size(); ++b) { s[b] = (rng() & 1) != 0; }
        some |= state_cube(mgr, vars.cs, s);
    }
    sets.push_back(some);
    bdd fn = mgr.zero();
    for (std::size_t k = 0; k < vars.cs.size(); ++k) {
        const bdd lit = mgr.literal(vars.cs[k], (rng() & 1) != 0);
        fn = (rng() & 1) != 0 ? (fn | lit) : (fn ^ lit);
    }
    sets.push_back(fn);
    return sets;
}

class relation_oracle : public ::testing::TestWithParam<int> {};

TEST_P(relation_oracle, image_matches_naive_monolithic_conjunction) {
    const network net = machine_for(GetParam());
    bdd_manager mgr;
    auto [fns, vars] = setup(mgr, net);
    const std::vector<bdd> parts = next_state_parts(mgr, fns, vars);
    std::vector<std::uint32_t> quantify = vars.in;
    quantify.insert(quantify.end(), vars.cs.begin(), vars.cs.end());

    // the oracle: conjoin everything, then quantify
    bdd product = mgr.one();
    for (const bdd& p : parts) { product &= p; }
    const bdd qcube = mgr.cube(quantify);

    const std::vector<bdd> from_sets =
        sample_state_sets(mgr, net, vars, 1000u + GetParam());
    for (const image_options& options : option_matrix()) {
        const transition_relation rel(mgr, parts, quantify, options);
        for (const bdd& from : from_sets) {
            const bdd reference = mgr.exists(product & from, qcube);
            EXPECT_EQ(rel.image(from), reference)
                << "machine " << GetParam() << " policy "
                << to_string(options.policy) << " limit "
                << options.cluster_limit << " strategy "
                << to_string(options.strategy);
        }
    }
}

TEST_P(relation_oracle, preimage_matches_naive_monolithic_conjunction) {
    const network net = machine_for(GetParam());
    bdd_manager mgr;
    auto [fns, vars] = setup(mgr, net);
    const std::vector<bdd> parts = next_state_parts(mgr, fns, vars);

    bdd product = mgr.one();
    for (const bdd& p : parts) { product &= p; }
    std::vector<std::uint32_t> pre_quantify = vars.in;
    pre_quantify.insert(pre_quantify.end(), vars.ns.begin(), vars.ns.end());
    const bdd pre_cube = mgr.cube(pre_quantify);
    std::vector<std::uint32_t> swap(mgr.num_vars());
    for (std::uint32_t v = 0; v < swap.size(); ++v) { swap[v] = v; }
    for (std::size_t k = 0; k < vars.cs.size(); ++k) {
        swap[vars.ns[k]] = vars.cs[k];
        swap[vars.cs[k]] = vars.ns[k];
    }

    const std::vector<bdd> to_sets =
        sample_state_sets(mgr, net, vars, 2000u + GetParam());
    for (const image_options& options : option_matrix()) {
        const transition_relation rel = transition_relation::next_state(
            mgr, fns.next_state, vars.cs, vars.ns, vars.in, options);
        ASSERT_TRUE(rel.has_preimage());
        for (const bdd& to : to_sets) {
            const bdd reference =
                mgr.exists(product & mgr.permute(to, swap), pre_cube);
            EXPECT_EQ(rel.preimage(to), reference)
                << "machine " << GetParam() << " policy "
                << to_string(options.policy) << " limit "
                << options.cluster_limit << " strategy "
                << to_string(options.strategy);
        }
    }
}

TEST_P(relation_oracle, constrained_image_fuses_the_extra_conjunct) {
    // image(from, c) fuses c into the quantification chain; the result must
    // equal the materialized image(from & c) for any extra conjunct
    const network net = machine_for(GetParam());
    bdd_manager mgr;
    auto [fns, vars] = setup(mgr, net);
    const std::vector<bdd> parts = next_state_parts(mgr, fns, vars);
    std::vector<std::uint32_t> quantify = vars.in;
    quantify.insert(quantify.end(), vars.cs.begin(), vars.cs.end());

    const std::vector<bdd> sets =
        sample_state_sets(mgr, net, vars, 3000u + GetParam());
    const bdd& from = sets[1];
    for (const bdd& constraint : sets) {
        for (const cluster_policy policy : all_cluster_policies) {
            image_options options;
            options.policy = policy;
            const transition_relation rel(mgr, parts, quantify, options);
            EXPECT_EQ(rel.image(from, constraint),
                      rel.image(from & constraint))
                << "machine " << GetParam() << " policy "
                << to_string(policy);
        }
        // also through a no-part relation (the X_P walker shape), where the
        // constraint rides the leading quantification
        const transition_relation empty(mgr, {}, vars.cs);
        EXPECT_EQ(empty.image(from, constraint),
                  empty.image(from & constraint));
    }
}

TEST_P(relation_oracle, preimage_closes_over_reachable_states) {
    // sanity beyond the algebraic oracle: network relations are total and
    // the reachable set is successor-closed, so every reachable state has a
    // successor inside the reachable set — reached <= preimage(reached)
    const network net = machine_for(GetParam());
    bdd_manager mgr;
    auto [fns, vars] = setup(mgr, net);
    const bdd init = state_cube(mgr, vars.cs, net.initial_state());
    const bdd reached = reachable_states(mgr, fns.next_state, vars.cs,
                                         vars.ns, vars.in, init);
    const transition_relation rel = transition_relation::next_state(
        mgr, fns.next_state, vars.cs, vars.ns, vars.in);
    EXPECT_TRUE(reached.leq(rel.preimage(reached)));
    // and the preimage of the empty set is empty
    EXPECT_TRUE(rel.preimage(mgr.zero()).is_zero());
}

INSTANTIATE_TEST_SUITE_P(machines, relation_oracle, ::testing::Range(0, 10));

TEST(relation_clustering, affinity_never_exceeds_cluster_limit) {
    // pinned regression for the affinity policy's node bound: every cluster
    // it returns either respects the limit or is a single unmerged part
    for (int id = 0; id < 10; ++id) {
        const network net = machine_for(id);
        bdd_manager mgr;
        auto [fns, vars] = setup(mgr, net);
        const std::vector<bdd> parts = next_state_parts(mgr, fns, vars);
        for (const std::size_t limit :
             {std::size_t{30}, std::size_t{120}, std::size_t{2500}}) {
            const std::vector<bdd> clusters =
                cluster_parts(mgr, parts, cluster_policy::affinity, limit);
            ASSERT_LE(clusters.size(), parts.size());
            for (const bdd& c : clusters) {
                if (mgr.dag_size(c) <= limit) { continue; }
                // oversized clusters must be original (unmergeable) parts
                EXPECT_NE(std::find(parts.begin(), parts.end(), c),
                          parts.end())
                    << "machine " << id << " limit " << limit;
            }
        }
    }
}

TEST(relation_clustering, affinity_merges_coupled_parts_first) {
    // two decoupled 3-bit counters interleaved in declaration order: greedy
    // adjacent merging mixes the blocks, affinity groups each counter
    bdd_manager mgr;
    std::vector<std::uint32_t> a_cs, a_ns, b_cs, b_ns;
    for (int k = 0; k < 3; ++k) {
        a_cs.push_back(mgr.new_var());
        a_ns.push_back(mgr.new_var());
        b_cs.push_back(mgr.new_var());
        b_ns.push_back(mgr.new_var());
    }
    const auto counter_part = [&](const std::vector<std::uint32_t>& cs,
                                  const std::vector<std::uint32_t>& ns,
                                  int k) {
        bdd carry = mgr.one();
        for (int j = 0; j < k; ++j) { carry &= mgr.var(cs[j]); }
        return mgr.var(ns[k]).iff(mgr.var(cs[k]) ^ carry);
    };
    // interleave the two counters' parts: a0 b0 a1 b1 a2 b2
    std::vector<bdd> parts;
    for (int k = 0; k < 3; ++k) {
        parts.push_back(counter_part(a_cs, a_ns, k));
        parts.push_back(counter_part(b_cs, b_ns, k));
    }
    const std::vector<bdd> clusters =
        cluster_parts(mgr, parts, cluster_policy::affinity, 4000);
    ASSERT_EQ(clusters.size(), 2u);
    // each cluster's support stays inside one counter's variables
    for (const bdd& c : clusters) {
        const std::vector<std::uint32_t> support = mgr.support(c);
        bool in_a = false, in_b = false;
        for (const std::uint32_t v : support) {
            if (std::find(a_cs.begin(), a_cs.end(), v) != a_cs.end() ||
                std::find(a_ns.begin(), a_ns.end(), v) != a_ns.end()) {
                in_a = true;
            } else {
                in_b = true;
            }
        }
        EXPECT_NE(in_a, in_b) << "cluster mixes the decoupled counters";
    }
}

TEST(relation_stats, schedule_shape_and_per_call_counters) {
    const network net = make_counter(6);
    bdd_manager mgr;
    auto [fns, vars] = setup(mgr, net);
    image_options options;
    options.collect_stats = true;
    options.cluster_limit = 0; // keep every part its own cluster
    const transition_relation rel = transition_relation::next_state(
        mgr, fns.next_state, vars.cs, vars.ns, vars.in, options);

    const relation_stats& stats = rel.stats();
    ASSERT_EQ(stats.cluster_sizes.size(), rel.num_clusters());
    ASSERT_EQ(stats.quantified_per_cluster.size(), rel.num_clusters());
    EXPECT_EQ(rel.num_clusters(), fns.next_state.size());
    // every quantified variable dies somewhere (counter: all cs vars occur;
    // the input occurs too), so nothing is quantified out of `from` alone
    std::size_t total_quantified = stats.leading_quantified;
    for (const std::size_t n : stats.quantified_per_cluster) {
        total_quantified += n;
    }
    EXPECT_EQ(total_quantified, vars.in.size() + vars.cs.size());

    EXPECT_EQ(stats.images, 0u);
    const bdd init = state_cube(mgr, vars.cs, net.initial_state());
    (void)rel.image(init);
    (void)rel.image(init);
    (void)rel.preimage(init);
    EXPECT_EQ(rel.stats().images, 2u);
    EXPECT_EQ(rel.stats().preimages, 1u);
    EXPECT_GT(rel.stats().peak_intermediate, 0u);
}

TEST(relation_deadline, construction_throws_past_deadline) {
    // clustering is real BDD work: an armed deadline interrupts it before
    // the first image is ever computed
    const network net = make_counter(8);
    bdd_manager mgr;
    auto [fns, vars] = setup(mgr, net);
    image_options options;
    options.deadline = std::chrono::steady_clock::now() -
                       std::chrono::seconds(1);
    EXPECT_THROW((void)transition_relation::next_state(
                     mgr, fns.next_state, vars.cs, vars.ns, vars.in, options),
                 relation_deadline_exceeded);
}

TEST(relation_deadline, image_chain_throws_past_deadline) {
    const network net = make_counter(8);
    bdd_manager mgr;
    auto [fns, vars] = setup(mgr, net);
    image_options options;
    options.cluster_limit = 0; // construction merges nothing, so it survives
    options.deadline = std::chrono::steady_clock::now() -
                       std::chrono::seconds(1);
    const transition_relation rel = transition_relation::next_state(
        mgr, fns.next_state, vars.cs, vars.ns, vars.in, options);
    const bdd init = state_cube(mgr, vars.cs, net.initial_state());
    EXPECT_THROW((void)rel.image(init), relation_deadline_exceeded);
}

TEST(relation_deadline, reachability_fixpoint_throws_past_deadline) {
    const network net = make_counter(8);
    bdd_manager mgr;
    auto [fns, vars] = setup(mgr, net);
    const bdd init = state_cube(mgr, vars.cs, net.initial_state());
    image_options options;
    options.deadline = std::chrono::steady_clock::now() -
                       std::chrono::seconds(1);
    EXPECT_THROW((void)reachable_states(mgr, fns.next_state, vars.cs, vars.ns,
                                        vars.in, init, options),
                 relation_deadline_exceeded);
    EXPECT_THROW((void)reachable_states_layered(mgr, fns.next_state, vars.cs,
                                                vars.ns, vars.in, init,
                                                options),
                 relation_deadline_exceeded);
    // a generous deadline changes nothing
    options.deadline = std::chrono::steady_clock::now() +
                       std::chrono::hours(1);
    const bdd limited = reachable_states(mgr, fns.next_state, vars.cs,
                                         vars.ns, vars.in, init, options);
    const bdd reference = reachable_states(mgr, fns.next_state, vars.cs,
                                           vars.ns, vars.in, init);
    EXPECT_EQ(limited, reference);
}

TEST(relation_deadline, op_deadline_interrupts_inside_a_chain_step) {
    // PR-10 regression pin: the budget used to be probed only *between*
    // chain steps, so one long and_exists could overrun it without bound.
    // schedule::apply now arms the manager's op-level deadline (probed
    // every ~1024 computed-cache lookups inside the recursion) for the
    // duration of the chain and translates bdd_deadline_exceeded into the
    // one exception type relation consumers handle.  A deadline armed on
    // the manager directly — no relation deadline at all, so none of the
    // between-step checks can fire — must therefore surface from image()
    // as relation_deadline_exceeded.
    structured_spec spec;
    spec.num_inputs = 4;
    spec.num_latches = 16;
    spec.seed = 5;
    const network net = make_structured_mix(spec);
    bdd_manager mgr;
    auto [fns, vars] = setup(mgr, net);
    const transition_relation rel = transition_relation::next_state(
        mgr, fns.next_state, vars.cs, vars.ns, vars.in, {});
    // an awkward xor-of-products state set drives the cold chain through
    // several thousand cache probes — a one() or cube operand collapses
    // too fast to cross even one ~1024-lookup stride
    bdd from = mgr.zero();
    for (std::size_t k = 0; k + 2 < vars.cs.size(); k += 3) {
        from ^= mgr.var(vars.cs[k]) &
                (mgr.var(vars.cs[k + 1]) | !mgr.var(vars.cs[k + 2]));
    }

    mgr.set_op_deadline(std::chrono::steady_clock::now() -
                        std::chrono::seconds(1));
    EXPECT_THROW((void)rel.image(from), relation_deadline_exceeded);
    mgr.clear_op_deadline();
    // disarmed, the identical call runs to completion and agrees with an
    // independently built relation (the aborted chain left no bad state)
    const bdd result = rel.image(from);
    const transition_relation again = transition_relation::next_state(
        mgr, fns.next_state, vars.cs, vars.ns, vars.in, {});
    EXPECT_EQ(again.image(from), result);
    EXPECT_FALSE(result.is_zero());
}

TEST(relation_deadline, saturation_fixpoint_throws_past_deadline) {
    // the saturation worklist checks the deadline at every pop, so a deep
    // recursion of chunk fires cannot outlive the budget between images
    const network net = make_counter(8);
    bdd_manager mgr;
    auto [fns, vars] = setup(mgr, net);
    const bdd init = state_cube(mgr, vars.cs, net.initial_state());
    image_options options;
    options.strategy = reach_strategy::saturation;
    options.cluster_limit = 0; // construction merges nothing, so it survives
    options.deadline = std::chrono::steady_clock::now() -
                       std::chrono::seconds(1);
    transition_relation rel = transition_relation::next_state(
        mgr, fns.next_state, vars.cs, vars.ns, vars.in, options);
    rel.rename_image_to_current();
    EXPECT_THROW(
        (void)reachable_states_layered(
            rel, init, static_cast<std::uint32_t>(vars.cs.size())),
        relation_deadline_exceeded);
    EXPECT_EQ(rel.stats().saturation_fires, 0u); // unwound before any fire
    EXPECT_THROW((void)reachable_states(mgr, fns.next_state, vars.cs,
                                        vars.ns, vars.in, init, options),
                 relation_deadline_exceeded);
    // a generous deadline changes nothing
    options.deadline = std::chrono::steady_clock::now() +
                       std::chrono::hours(1);
    const bdd limited = reachable_states(mgr, fns.next_state, vars.cs,
                                         vars.ns, vars.in, init, options);
    const bdd reference = reachable_states(mgr, fns.next_state, vars.cs,
                                           vars.ns, vars.in, init);
    EXPECT_EQ(limited, reference);
}

TEST(relation_deadline, solvers_translate_deadline_into_timeout_status) {
    const network original = make_counter(3);
    const split_result split = split_last_latches(original, 1);
    const equation_problem problem(split.fixed, original);

    solve_options options;
    options.img.deadline = std::chrono::steady_clock::now() -
                           std::chrono::seconds(1);
    const solve_result part = solve_partitioned(problem, options);
    EXPECT_EQ(part.status, solve_status::timeout);
    const solve_result mono = solve_monolithic(problem, options);
    EXPECT_EQ(mono.status, solve_status::timeout);

    // and without the deadline the same instances solve
    const solve_result ok = solve_partitioned(problem, {});
    EXPECT_EQ(ok.status, solve_status::ok);
}

TEST(relation_layer, prebuilt_fixpoint_requires_renamed_structured_relation) {
    const network net = make_counter(4);
    bdd_manager mgr;
    auto [fns, vars] = setup(mgr, net);
    const bdd init = state_cube(mgr, vars.cs, net.initial_state());
    transition_relation rel = transition_relation::next_state(
        mgr, fns.next_state, vars.cs, vars.ns, vars.in);
    // forgetting rename_image_to_current() must fail fast, not diverge
    EXPECT_THROW((void)reachable_states_layered(rel, init, 4),
                 std::invalid_argument);
    rel.rename_image_to_current();
    const reach_info info = reachable_states_layered(rel, init, 4);
    const reach_info reference = reachable_states_layered(
        mgr, fns.next_state, vars.cs, vars.ns, vars.in, init);
    EXPECT_EQ(info.reached, reference.reached);
    EXPECT_EQ(info.depth, reference.depth);
}

} // namespace
