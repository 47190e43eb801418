/// \file differential.cpp
/// \brief Cross-flow differential checks and metamorphic properties.

#include "gen/differential.hpp"

#include "automata/stg.hpp"
#include "eq/problem.hpp"
#include "eq/solver.hpp"
#include "eq/subsolution.hpp"
#include "eq/verify.hpp"

#include <sstream>

namespace leq {

namespace {

std::string describe(const image_options& o) {
    std::ostringstream text;
    text << to_string(o.strategy) << "/" << to_string(o.policy) << "/limit"
         << o.cluster_limit;
    if (o.fault_suppress_var != image_options::no_fault) {
        text << "/FAULT@" << o.fault_suppress_var;
    }
    return text.str();
}


/// Number of label bits of the instance's (u,v,i,o,w) alphabet.  F's ports
/// already carry everything: inputs (i..., v..., w...), outputs (o..., u...).
std::size_t label_bits(const network& fixed) {
    return fixed.num_inputs() + fixed.num_outputs();
}

differential_outcome fail(differential_outcome out, std::string why) {
    out.ok = false;
    out.failure = std::move(why);
    return out;
}

/// Replay a composition-counterexample trace on two spec candidates: the
/// input sequence must drive them to disagreeing outputs at the final step.
bool trace_is_real_difference(const std::vector<trace_step>& trace,
                              const network& baseline,
                              const network& mutant) {
    if (trace.empty()) { return false; }
    std::vector<bool> base_state = baseline.initial_state();
    std::vector<bool> mut_state = mutant.initial_state();
    std::vector<bool> base_out, mut_out;
    for (const trace_step& step : trace) {
        const network::cycle_result b = baseline.simulate(base_state, step.i);
        const network::cycle_result m = mutant.simulate(mut_state, step.i);
        base_state = b.next_state;
        mut_state = m.next_state;
        base_out = b.outputs;
        mut_out = m.outputs;
    }
    return base_out != mut_out;
}

differential_outcome
run_differential_impl(const network& fixed, const network& spec,
                      std::size_t num_choice, const scenario* sc,
                      const differential_options& options) {
    differential_outcome out;
    std::vector<image_options> matrix =
        options.matrix.empty() ? default_option_matrix() : options.matrix;

    const equation_problem problem(fixed, spec, num_choice);
    if (options.tune_matrix) { options.tune_matrix(problem, matrix); }

    solve_options solve;
    solve.time_limit_seconds = options.time_limit_seconds;
    solve.max_subset_states = options.max_subset_states;

    // partitioned flow across the option matrix; entry 0 is the reference
    std::vector<solve_result> part;
    for (std::size_t k = 0; k < matrix.size(); ++k) {
        solve.img = matrix[k];
        part.push_back(solve_partitioned(problem, solve));
        if (part.back().status != solve_status::ok) {
            return fail(std::move(out), "partitioned(" + describe(matrix[k]) +
                                            ") did not complete");
        }
        ++out.flows_run;
    }
    const solve_result& ref = part.front();
    out.empty_solution = ref.empty_solution;
    out.csf_states = ref.csf_states;
    for (std::size_t k = 1; k < matrix.size(); ++k) {
        if (part[k].empty_solution != ref.empty_solution ||
            !language_equivalent(*part[k].csf, *ref.csf)) {
            return fail(std::move(out),
                        "partitioned option matrix disagrees: " +
                            describe(matrix[k]) + " vs reference " +
                            describe(matrix[0]));
        }
    }

    // monolithic flow (reference options)
    solve.img = matrix[0];
    const solve_result mono = solve_monolithic(problem, solve);
    if (mono.status != solve_status::ok) {
        return fail(std::move(out), "monolithic flow did not complete");
    }
    ++out.flows_run;
    if (mono.empty_solution != ref.empty_solution ||
        !language_equivalent(*mono.csf, *ref.csf)) {
        return fail(std::move(out),
                    "monolithic flow disagrees with partitioned reference");
    }

    // explicit Algorithm-1 oracle on small instances
    if (options.with_explicit &&
        fixed.num_latches() + spec.num_latches() <=
            options.explicit_max_latches &&
        label_bits(fixed) <= options.explicit_max_label_bits) {
        const solve_result oracle = solve_explicit(problem, fixed, spec);
        if (oracle.status != solve_status::ok) {
            return fail(std::move(out), "explicit oracle did not complete");
        }
        ++out.flows_run;
        out.oracle_run = true;
        if (oracle.empty_solution != ref.empty_solution ||
            !language_equivalent(*oracle.csf, *ref.csf)) {
            return fail(std::move(out),
                        "explicit Algorithm-1 oracle disagrees with the "
                        "symbolic flows");
        }
    }

    if (options.with_verification) {
        if (!is_deterministic(*ref.csf)) {
            return fail(std::move(out), "CSF is not deterministic");
        }
        if (!is_prefix_closed(*ref.csf)) {
            return fail(std::move(out), "CSF is not prefix-closed");
        }
        if (!ref.empty_solution) {
            if (!verify_composition_contained(problem, *ref.csf)) {
                return fail(std::move(out),
                            "composition check failed: F . X is not "
                            "contained in S");
            }
            // the largest solution contains every sub-solution
            if (!problem.u_vars.empty()) {
                const automaton sub = extract_fsm(*ref.csf, problem.u_vars,
                                                  problem.v_vars);
                if (!language_contained(sub, *ref.csf)) {
                    return fail(std::move(out),
                                "extracted sub-solution escapes the CSF");
                }
                if (!verify_composition_contained(problem, sub)) {
                    return fail(std::move(out),
                                "extracted sub-solution fails the "
                                "composition check");
                }
            }
        }
    }

    // family-specific metamorphic checks
    if (sc != nullptr && sc->has_part) {
        if (!sc->is_mutant) {
            // a latch split always admits X_P itself
            if (ref.empty_solution) {
                return fail(std::move(out),
                            "split instance reported unsolvable, but X_P "
                            "is a solution");
            }
            if (!verify_particular_contained(problem, *ref.csf,
                                             sc->part.initial_state())) {
                return fail(std::move(out),
                            "X_P is not contained in the CSF");
            }
        } else {
            // near-miss mutant: if X_P stopped verifying, the diagnosis
            // must be a real difference word between baseline and mutant
            const automaton xp = network_to_automaton(
                problem.mgr(), sc->part, problem.u_vars, problem.v_vars);
            const verify_diagnosis d =
                diagnose_composition_contained(problem, xp);
            if (!d.ok && !trace_is_real_difference(d.trace, sc->baseline_spec,
                                                   spec)) {
                return fail(std::move(out),
                            "mutant diagnosis trace is not a real "
                            "difference word (" + sc->mutation_desc + ")");
            }
        }
    }

    return out;
}

} // namespace

std::string
describe_option_matrix(const std::vector<image_options>& matrix) {
    std::string text;
    for (std::size_t k = 0; k < matrix.size(); ++k) {
        text += (k == 0 ? "[" : ", ") + describe(matrix[k]);
    }
    return text + "]";
}

std::vector<image_options> default_option_matrix() {
    std::vector<image_options> matrix(6);
    // matrix[0]: the defaults (frontier, greedy)
    matrix[1].strategy = reach_strategy::bfs;
    matrix[1].cluster_limit = 0;
    matrix[2].strategy = reach_strategy::chaining;
    matrix[2].policy = cluster_policy::affinity;
    matrix[3].strategy = reach_strategy::frontier;
    matrix[3].policy = cluster_policy::affinity;
    matrix[3].cluster_limit = 600;
    matrix[4].strategy = reach_strategy::saturation;
    matrix[5].strategy = reach_strategy::saturation;
    matrix[5].policy = cluster_policy::affinity;
    matrix[5].cluster_limit = 600;
    return matrix;
}

differential_outcome run_differential(const network& fixed,
                                      const network& spec,
                                      std::size_t num_choice_inputs,
                                      const differential_options& options) {
    return run_differential_impl(fixed, spec, num_choice_inputs, nullptr,
                                 options);
}

differential_outcome run_differential(const scenario& s,
                                      const differential_options& options) {
    return run_differential_impl(s.fixed, s.spec, s.num_choice_inputs, &s,
                                 options);
}

} // namespace leq
