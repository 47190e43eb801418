/// \file differential.hpp
/// \brief Differential oracle: cross-examine the three solver flows on one
/// scenario and check the metamorphic closure properties of the CSF.
///
/// The paper's correctness story (Corollary 1 plus Algorithm 1) says all
/// flows compute the same largest solution; this module turns that into an
/// executable oracle.  For a scenario it runs `solve_partitioned` across an
/// option matrix (strategy x cluster policy and limit),
/// `solve_monolithic`, and — when the instance is small enough for the
/// exponential oracle — `solve_explicit`, then checks:
///
///   * every flow/option agrees on the CSF language and emptiness;
///   * the CSF is deterministic and prefix-closed;
///   * the composition F . X refines S (`verify_composition_contained`);
///   * the largest solution contains every sub-solution (a greedily
///     extracted FSM is language-contained in the CSF);
///   * split-derived scenarios: X_P is contained in the CSF;
///   * mutant scenarios: when X_P stops verifying, `diagnose` must return a
///     *real* difference word — the trace's input sequence replays on the
///     baseline and mutated spec networks with disagreeing outputs.
///
/// A failure is reported as text (never an abort): the fuzz driver shrinks
/// the instance and writes a reproducer instead of dying on an assertion.
#pragma once

#include "gen/scenario.hpp"
#include "img/image.hpp"

#include <functional>
#include <string>
#include <vector>

namespace leq {

class equation_problem;

struct differential_options {
    /// Partitioned-flow option matrix; empty selects
    /// `default_option_matrix()`.  Entry 0 is the reference configuration.
    std::vector<image_options> matrix;
    /// Called after the equation problem is built and before solving, so a
    /// caller can tune per-problem option fields (the fault-injection
    /// self-tests set `fault_suppress_var` to a live variable id here).
    std::function<void(const equation_problem&, std::vector<image_options>&)>
        tune_matrix;
    /// Run the explicit Algorithm-1 oracle when the instance is small.
    bool with_explicit = true;
    std::size_t explicit_max_latches = 6; ///< fixed+spec latch cap
    std::size_t explicit_max_label_bits = 7; ///< i+o+u+v+w cap
    /// Run the closure/verification property checks on the reference CSF.
    bool with_verification = true;
    /// Per-solve limits; a scenario that blows them is a finding, not a hang.
    double time_limit_seconds = 60.0;
    std::size_t max_subset_states = 50000;
};

/// The sweep the differential runs by default: reference options, an
/// unclustered BFS, a chaining/affinity configuration, a tightly clustered
/// affinity frontier, default saturation, and a tightly clustered affinity
/// saturation.
[[nodiscard]] std::vector<image_options> default_option_matrix();

/// Compact rendering of an option matrix ("[frontier/greedy/limit2500,
/// ...]") for failure messages and reproducer headers.
[[nodiscard]] std::string
describe_option_matrix(const std::vector<image_options>& matrix);

struct differential_outcome {
    bool ok = true;
    std::string failure; ///< empty when ok; human-readable otherwise
    bool empty_solution = false;
    std::size_t csf_states = 0;
    std::size_t flows_run = 0; ///< solver invocations that completed
    bool oracle_run = false;   ///< explicit flow participated
};

/// Differential core over raw networks — what the shrinker re-runs on every
/// candidate reduction.  Checks flow agreement and the generic closure
/// properties; knows nothing about families.
[[nodiscard]] differential_outcome
run_differential(const network& fixed, const network& spec,
                 std::size_t num_choice_inputs,
                 const differential_options& options = {});

/// Full scenario check: the core plus the family-specific metamorphic
/// checks (X_P containment, mutant diagnose replay).
[[nodiscard]] differential_outcome
run_differential(const scenario& s, const differential_options& options = {});

} // namespace leq
