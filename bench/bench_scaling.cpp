/// \file bench_scaling.cpp
/// \brief Figure-style scaling series: partitioned vs monolithic runtime as
/// the unknown component grows.
///
/// Table 1 samples six points; this bench sweeps in between them on two of
/// the table's circuit families:
///
///   series A  the s298 stand-in (3/6/14): full sweep, Xcs = 2..12.  The
///             claim under test is the growth of the partitioned advantage
///             with instance size.
///   series B  the s444 stand-in (3/6/21, paired mixes): tail sweep,
///             Xcs = 16..20.  Mid-size splits of this family leave F with a
///             product space neither flow can enumerate (both CNC — printed
///             once for honesty); the sweep covers the paper's actual
///             operating point and beyond.
///
/// Usage: bench_scaling [time_limit_seconds] (default 60)

#include "eq/solver.hpp"
#include "gen/scenario.hpp"
#include "img/image.hpp"
#include "rel/relation.hpp"
#include "net/generator.hpp"
#include "net/latch_split.hpp"
#include "net/netbdd.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace {

using namespace leq;

std::string cell(const solve_result& r) {
    if (r.status != solve_status::ok) { return "CNC"; }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.2f", r.seconds);
    return buf;
}

void sweep(const network& original, std::size_t x_from, std::size_t x_to,
           std::size_t x_step, double limit) {
    std::printf("%-6s %10s %10s %10s %10s\n", "Xcs", "States(X)", "Part,s",
                "Mono,s", "Ratio");
    solve_options options;
    options.time_limit_seconds = limit;
    for (std::size_t x = x_from; x <= x_to && x < original.num_latches();
         x += x_step) {
        const split_result split = split_last_latches(original, x);
        const equation_problem problem(split.fixed, original);
        const solve_result part = solve_partitioned(problem, options);
        const solve_result mono = solve_monolithic(problem, options);

        std::string ratio = "-";
        if (part.status == solve_status::ok &&
            mono.status == solve_status::ok && part.seconds > 0) {
            char buf[32];
            std::snprintf(buf, sizeof buf, "%.1fx",
                          mono.seconds / part.seconds);
            ratio = buf;
        }
        std::string states = "-";
        if (part.status == solve_status::ok) {
            states = std::to_string(part.csf_states);
        }
        std::printf("%-6zu %10s %10s %10s %10s\n", x, states.c_str(),
                    cell(part).c_str(), cell(mono).c_str(), ratio.c_str());
        std::fflush(stdout);
        if (part.status != solve_status::ok &&
            mono.status != solve_status::ok) {
            break; // both flows out of steam: the series is over
        }
    }
}

/// Compiled reachability workload shared by the series C and D sweeps: one
/// manager, inputs then interleaved cs/ns variables, the partitioned
/// next-state functions and the initial-state cube.
struct reach_setup {
    bdd_manager mgr{0, bdd_manager_options{/*cache_bits=*/20}};
    std::vector<std::uint32_t> in, cs, ns;
    net_bdds fns;
    bdd init;

    explicit reach_setup(const network& net) {
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
};

/// Per-strategy reachability comparison table (series C): the same fixpoint
/// under the three exploration strategies, on a deep-sequential workload
/// (n-bit counters: 2^n depth, tiny frontiers) and a wide-parallel one
/// (structured mixes: shallow depth, wide frontiers).  Every row reaches the
/// identical state set; only the BDD operation schedule differs.
/// Runs the three strategies on one workload; returns the total seconds spent
/// so the caller can stop a series that outgrew the time limit.
double strategy_sweep(const char* label, const network& net) {
    reach_setup s(net);
    double total = 0;
    for (const reach_strategy strategy : all_reach_strategies) {
        image_options options;
        options.strategy = strategy;
        const auto t0 = std::chrono::steady_clock::now();
        const reach_info info = reachable_states_layered(
            s.mgr, s.fns.next_state, s.cs, s.ns, s.in, s.init, options);
        const double seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count();
        std::printf("%-18s %-10s %8zu %12.0f %10.3f\n", label,
                    to_string(strategy), info.depth, info.total_states,
                    seconds);
        std::fflush(stdout);
        total += seconds;
    }
    return total;
}

/// Cluster-policy comparison (series D): greedy adjacent merge vs affinity
/// pairing by shared support, on the same reachability fixpoints.  Every row
/// reaches the identical state set; only the partition clustering — and
/// therefore the quantification schedule — differs.  Returns total seconds.
double policy_sweep(const char* label, const network& net) {
    reach_setup s(net);
    double total = 0;
    for (const cluster_policy policy : all_cluster_policies) {
        image_options options;
        options.policy = policy;
        // the timer covers relation construction too: clustering cost is
        // part of what distinguishes the policies
        const auto t0 = std::chrono::steady_clock::now();
        transition_relation rel = transition_relation::next_state(
            s.mgr, s.fns.next_state, s.cs, s.ns, s.in, options);
        rel.rename_image_to_current();
        const reach_info info = reachable_states_layered(
            rel, s.init, static_cast<std::uint32_t>(s.cs.size()));
        const double seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count();
        std::printf("%-18s %-10s %8zu %12.0f %10.3f\n", label,
                    to_string(policy), rel.num_clusters(), info.total_states,
                    seconds);
        std::fflush(stdout);
        total += seconds;
    }
    return total;
}

} // namespace

int main(int argc, char** argv) {
    const double limit = argc > 1 ? std::atof(argv[1]) : 60.0;
    // LEQ_TEST_SEED shifts every series (0 when unset: canonical circuits)
    const std::uint32_t base = test_seed(0);

    {
        structured_spec spec;
        spec.num_inputs = 3;
        spec.num_outputs = 6;
        spec.num_latches = 14;
        spec.seed = base + 14;
        const network original = make_structured_mix(spec);
        std::printf("Series A: s298 family, i/o/cs = %zu/%zu/%zu\n",
                    original.num_inputs(), original.num_outputs(),
                    original.num_latches());
        sweep(original, 2, 12, 2, limit);
    }
    {
        structured_spec a, b;
        a.num_inputs = b.num_inputs = 3;
        a.num_outputs = b.num_outputs = 6;
        a.num_latches = 11;
        b.num_latches = 10;
        a.seed = base + 6;
        b.seed = base + 1;
        a.chained_enables = b.chained_enables = true;
        const network original = make_paired_mix(a, b);
        std::printf("\nSeries B: s444 family, i/o/cs = %zu/%zu/%zu "
                    "(tail sweep; the mid-size splits leave F too large for "
                    "either flow)\n",
                    original.num_inputs(), original.num_outputs(),
                    original.num_latches());
        sweep(original, 16, 20, 1, limit);
    }
    {
        std::printf("\nSeries C: reachability strategy comparison "
                    "(identical fixpoints, different schedules)\n");
        std::printf("%-18s %-10s %8s %12s %10s\n", "workload", "strategy",
                    "depth", "states", "time,s");
        // each family grows until one workload's three strategies together
        // exceed the per-solve time limit, mirroring the CNC cutoff above
        for (const std::size_t bits : {10, 12, 14}) {
            if (strategy_sweep(("counter-" + std::to_string(bits)).c_str(),
                               make_counter(bits)) > limit) {
                break;
            }
        }
        for (const std::size_t latches : {16, 20, 24}) {
            structured_spec spec;
            spec.num_inputs = 4;
            spec.num_outputs = 4;
            spec.num_latches = latches;
            spec.seed = base + 23;
            if (strategy_sweep(("mix-" + std::to_string(latches)).c_str(),
                               make_structured_mix(spec)) > limit) {
                break;
            }
        }
    }
    {
        std::printf("\nSeries D: cluster-policy comparison "
                    "(identical fixpoints, different partition clustering)\n");
        std::printf("%-18s %-10s %8s %12s %10s\n", "workload", "policy",
                    "clusters", "states", "time,s");
        for (const std::size_t latches : {12, 16, 20}) {
            structured_spec spec;
            spec.num_inputs = 4;
            spec.num_outputs = 4;
            spec.num_latches = latches;
            spec.seed = base + 29;
            if (policy_sweep(("mix-" + std::to_string(latches)).c_str(),
                             make_structured_mix(spec)) > limit) {
                break;
            }
        }
    }
    return 0;
}
