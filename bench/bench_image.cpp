/// \file bench_image.cpp
/// \brief google-benchmark micro suite for the image-computation substrate:
/// early-quantification scheduling vs naive conjoin-then-quantify, cluster
/// limits, and full reachability sweeps.

#include "gen/scenario.hpp"
#include "img/image.hpp"
#include "net/generator.hpp"
#include "net/netbdd.hpp"

#include <benchmark/benchmark.h>

#include <string>

namespace {

using namespace leq;

struct setup {
    bdd_manager mgr;
    std::vector<std::uint32_t> in, cs, ns;
    net_bdds fns;
    bdd init;

    explicit setup(const network& net)
        : mgr(0, bdd_manager_options{/*cache_bits=*/20}), init(mgr.one()) {
        for (std::size_t k = 0; k < net.num_inputs(); ++k) {
            in.push_back(mgr.new_var());
        }
        for (std::size_t k = 0; k < net.num_latches(); ++k) {
            cs.push_back(mgr.new_var());
            ns.push_back(mgr.new_var());
        }
        fns = build_net_bdds(mgr, net, in, cs);
        init = state_cube(mgr, cs, net.initial_state());
    }

    [[nodiscard]] std::vector<bdd> parts() {
        std::vector<bdd> p;
        for (std::size_t k = 0; k < fns.next_state.size(); ++k) {
            p.push_back(mgr.var(ns[k]).iff(fns.next_state[k]));
        }
        return p;
    }
    [[nodiscard]] std::vector<std::uint32_t> quantify() const {
        std::vector<std::uint32_t> q = in;
        q.insert(q.end(), cs.begin(), cs.end());
        return q;
    }
    [[nodiscard]] std::vector<std::uint32_t> cs_ns_swap() const {
        std::vector<std::uint32_t> p(mgr.num_vars());
        for (std::uint32_t v = 0; v < p.size(); ++v) { p[v] = v; }
        for (std::size_t k = 0; k < cs.size(); ++k) {
            p[ns[k]] = cs[k];
            p[cs[k]] = ns[k];
        }
        return p;
    }
    /// `init` advanced a few image steps (a non-trivial frontier).
    [[nodiscard]] bdd advanced_frontier(const transition_relation& relation,
                                        int steps = 3) {
        const std::vector<std::uint32_t> perm = cs_ns_swap();
        bdd from = init;
        for (int k = 0; k < steps; ++k) {
            from |= mgr.permute(relation.image(from), perm);
        }
        return from;
    }
};

network bench_circuit(int size) {
    structured_spec spec;
    spec.num_inputs = 4;
    spec.num_outputs = 4;
    spec.num_latches = static_cast<std::size_t>(size);
    // LEQ_TEST_SEED shifts the generated circuits (0 when unset)
    spec.seed = test_seed(0) + 17;
    return make_structured_mix(spec);
}

void bm_image_scheduled(benchmark::State& state) {
    setup s(bench_circuit(static_cast<int>(state.range(0))));
    image_options options;
    const transition_relation relation(s.mgr, s.parts(), s.quantify(),
                                       options);
    // image from a frontier after a few steps (more interesting than init)
    const bdd from = s.advanced_frontier(relation);
    for (auto _ : state) {
        benchmark::DoNotOptimize(relation.image(from));
    }
}
BENCHMARK(bm_image_scheduled)->Arg(8)->Arg(16)->Arg(24)->Arg(32);

void bm_image_naive(benchmark::State& state) {
    setup s(bench_circuit(static_cast<int>(state.range(0))));
    image_options options;
    options.early_quantification = false;
    const transition_relation relation(s.mgr, s.parts(), s.quantify(),
                                       options);
    bdd from = s.init;
    for (auto _ : state) {
        benchmark::DoNotOptimize(relation.image(from));
    }
}
BENCHMARK(bm_image_naive)->Arg(8)->Arg(16)->Arg(24)->Arg(32);

void bm_reachability(benchmark::State& state) {
    const network net = bench_circuit(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        setup s(net);
        benchmark::DoNotOptimize(
            reachable_states(s.mgr, s.fns.next_state, s.cs, s.ns, s.in,
                             s.init));
    }
}
BENCHMARK(bm_reachability)->Arg(8)->Arg(16)->Arg(24)->Unit(benchmark::kMillisecond);

/// Per-strategy reachability comparison (one row per (workload, size,
/// strategy); the label column names the strategy).  range(1) indexes
/// all_reach_strategies.
void run_reach_strategy(benchmark::State& state, const network& net) {
    const auto strategy = static_cast<reach_strategy>(state.range(1));
    state.SetLabel(to_string(strategy));
    image_options options;
    options.strategy = strategy;
    for (auto _ : state) {
        setup s(net);
        benchmark::DoNotOptimize(reachable_states(
            s.mgr, s.fns.next_state, s.cs, s.ns, s.in, s.init, options));
    }
}

/// Deep-sequential workload: an n-bit counter — 2^n sequential depth, tiny
/// frontiers, the regime where frontier/chaining shine over full-set bfs.
void bm_reach_strategy_deep(benchmark::State& state) {
    run_reach_strategy(state,
                       make_counter(static_cast<std::size_t>(state.range(0))));
}
BENCHMARK(bm_reach_strategy_deep)
    ->ArgsProduct({{6, 8, 10}, {0, 1, 2, 3}})
    ->Unit(benchmark::kMillisecond);

/// Deep-irregular workload: an n-bit LFSR — one fresh state per step like
/// the counter, but the reached-set BDD grows irregularly instead of
/// staying a compact {0..k} prefix, so full-set bfs re-imaging cannot hide
/// behind the computed cache.  This is the saturation strategy's regime.
void bm_reach_strategy_lfsr(benchmark::State& state) {
    run_reach_strategy(
        state, make_lfsr(static_cast<std::size_t>(state.range(0)), {2, 0}));
}
BENCHMARK(bm_reach_strategy_lfsr)
    ->ArgsProduct({{10, 12}, {0, 1, 2, 3}})
    ->Unit(benchmark::kMillisecond);

/// Wide-parallel workload: a structured mix of weakly coupled blocks —
/// shallow depth, wide frontiers, many latches updating in parallel, the
/// regime that stresses the within-step schedule (greedy vs chaining).
/// Above ~24 latches reachability takes minutes; keep the sweep below that.
void bm_reach_strategy_wide(benchmark::State& state) {
    structured_spec spec;
    spec.num_inputs = 4;
    spec.num_outputs = 4;
    spec.num_latches = static_cast<std::size_t>(state.range(0));
    spec.seed = test_seed(0) + 23;
    run_reach_strategy(state, make_structured_mix(spec));
}
BENCHMARK(bm_reach_strategy_wide)
    ->ArgsProduct({{12, 16, 24}, {0, 1, 2, 3}})
    ->Unit(benchmark::kMillisecond);

void bm_cluster_limit(benchmark::State& state) {
    setup s(bench_circuit(20));
    image_options options;
    options.cluster_limit = static_cast<std::size_t>(state.range(0));
    const transition_relation relation(s.mgr, s.parts(), s.quantify(),
                                       options);
    bdd from = s.init;
    for (auto _ : state) {
        benchmark::DoNotOptimize(relation.image(from));
    }
}
BENCHMARK(bm_cluster_limit)->Arg(0)->Arg(500)->Arg(2500)->Arg(10000);

/// Greedy-vs-affinity cluster comparison table (one row per (size, policy);
/// the label column names the policy and the resulting cluster count).
/// range(1) indexes all_cluster_policies.  The from-set is advanced a few
/// steps so the image sees a non-trivial frontier.
void bm_cluster_policy(benchmark::State& state) {
    setup s(bench_circuit(static_cast<int>(state.range(0))));
    image_options options;
    options.policy = static_cast<cluster_policy>(state.range(1));
    // a limit where the policies actually produce different clusterings on
    // these sizes (the default 2500 merges everything into one cluster,
    // which would compare identical schedules)
    options.cluster_limit = 600;
    const transition_relation relation(s.mgr, s.parts(), s.quantify(),
                                       options);
    state.SetLabel(std::string(to_string(options.policy)) + "/" +
                   std::to_string(relation.num_clusters()) + "cl");
    const bdd from = s.advanced_frontier(relation);
    for (auto _ : state) {
        benchmark::DoNotOptimize(relation.image(from));
    }
}
BENCHMARK(bm_cluster_policy)->ArgsProduct({{16, 24, 32}, {0, 1, 2}});

/// The same policy comparison on a full reachability fixpoint over a
/// structured mix of weakly coupled blocks: adjacent greedy merging is at
/// the mercy of declaration order, affinity regroups parts by support.
void bm_cluster_policy_reach(benchmark::State& state) {
    structured_spec spec;
    spec.num_inputs = 4;
    spec.num_outputs = 4;
    spec.num_latches = static_cast<std::size_t>(state.range(0));
    spec.seed = test_seed(0) + 29;
    const network net = make_structured_mix(spec);
    image_options options;
    options.policy = static_cast<cluster_policy>(state.range(1));
    state.SetLabel(to_string(options.policy));
    for (auto _ : state) {
        setup s(net);
        benchmark::DoNotOptimize(reachable_states(
            s.mgr, s.fns.next_state, s.cs, s.ns, s.in, s.init, options));
    }
}
BENCHMARK(bm_cluster_policy_reach)
    ->ArgsProduct({{12, 16}, {0, 1, 2}})
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
