/// \file scenario.hpp
/// \brief Scenario families for the differential fuzz harness.
///
/// The paper's central claim is observational: the partitioned flow computes
/// the *same* largest solution as the monolithic and explicit flows, only
/// faster.  The strongest test asset is therefore a generator that
/// manufactures diverse, reproducible equation instances and hands them to a
/// differential oracle (gen/differential.hpp).  Uniform random machines
/// alone exercise a narrow slice of the solver — random next-state logic has
/// high per-state fanout and shallow reachable structure — so the kit adds
/// structured families: counters/shifters with feedback, arbiter/handshake
/// controllers, pipelined compositions built through net/compose, machines
/// with nondeterministic choice inputs (the paper's footnote-2 w variables),
/// and near-miss mutants of known-good fixed/spec pairs where one flipped
/// transition or output bit makes the equation shrink or become unsolvable.
///
/// Everything is seeded: the same (family, seed) pair reproduces the same
/// instance bit for bit, which is what lets a nightly fuzz failure replay
/// locally from two integers.
#pragma once

#include "net/network.hpp"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace leq {

enum class scenario_family : std::uint8_t {
    random,   ///< uniform random machine, latch-split
    counter,  ///< counter / shift register / LFSR with feedback, latch-split
    arbiter,  ///< two-request arbiter or req/done handshake controller
    pipeline, ///< latch-split of a compose_networks-built flat pipeline
    nondet,   ///< F carries a choice input w (footnote-2 nondeterminism)
    mutant,   ///< near-miss: solvable pair with one flipped spec bit
    /// Gated ripple counter with a long carry dependency chain: low bits
    /// churn every step while high bits move rarely: a deep-sequential
    /// stress case, thousands of BFS layers of one state each.  Appended
    /// after mutant so historical (family, seed) reproducers keep their
    /// meaning.
    chaincounter,
};

/// All families, in a fixed order (sweeps, CLI).
inline constexpr scenario_family all_scenario_families[] = {
    scenario_family::random,  scenario_family::counter,
    scenario_family::arbiter, scenario_family::pipeline,
    scenario_family::nondet,  scenario_family::mutant,
    scenario_family::chaincounter,
};

[[nodiscard]] const char* to_string(scenario_family family);
[[nodiscard]] std::optional<scenario_family>
scenario_family_from_string(const std::string& name);

/// One generated equation instance F . X <= S.  `fixed` has inputs
/// (i..., v..., w...) and outputs (o..., u...) as equation_problem expects;
/// `spec` is S.  When the instance came from a latch split, `part` holds the
/// particular solution X_P (the extracted latches) and `has_part` is true.
/// Mutant scenarios additionally carry the unmutated spec in `baseline_spec`
/// and a description of the injected fault.
struct scenario {
    scenario_family family = scenario_family::random;
    std::uint32_t seed = 0;
    std::uint32_t scale = 1; ///< state-space multiplier (see make_scenario)
    std::string name; ///< "family:seed[:scale]", for logs and reproducers

    network fixed;
    network spec;
    std::size_t num_choice_inputs = 0;

    bool has_part = false;
    network part; ///< X_P; valid when has_part

    bool is_mutant = false;
    network baseline_spec;     ///< pre-mutation S; valid when is_mutant
    std::string mutation_desc; ///< the flipped bit; valid when is_mutant
};

/// Build the (family, seed) instance.  Deterministic: equal arguments yield
/// structurally identical networks.
///
/// `scale` multiplies the target state space: each doubling adds one state
/// bit to the family's machine (counters/shifters get wider, arbiters chain
/// more handshake stages, random machines gain latches), so `scale = 1024`
/// asks for instances roughly a thousand times larger than the fuzz-sized
/// defaults.  Only the floor power of two matters.  `scale = 1` is
/// bit-for-bit identical to the historical two-argument call — shrunk fuzz
/// reproducers stay valid — and every scale draws the same rng sequence, so
/// scaling never reshuffles a family's structure, it only widens it.
[[nodiscard]] scenario make_scenario(scenario_family family,
                                     std::uint32_t seed,
                                     std::uint32_t scale = 1);

/// The raw chaincounter network behind `gen:chaincounter` scenarios: a
/// ripple counter with `gate` injected into the carry chain every
/// `gate_every` cells.  Exposed so the bench harness can run reachability
/// on a deterministic deep-sequential machine (the `reach/chain` rows) with
/// exactly the shape the chaincounter family generates.
[[nodiscard]] network make_chain_counter(std::size_t cells,
                                         std::size_t gate_every);

// ---------------------------------------------------------------------------
// shared helpers for the randomized test suites
// ---------------------------------------------------------------------------

/// Canonical small-circuit menu for property suites (consolidates the
/// near-identical per-file `circuit_for` switches): 0 paper example,
/// 1 counter, 2 LFSR, 3 shift-xor, 4 traffic controller, 5 structured mix;
/// ids >= 6 are seeded random machines with id-varied dimensions.  `salt`
/// decorrelates suites that iterate the same id range.
[[nodiscard]] network make_menu_circuit(int id, std::uint32_t salt = 0);

/// Seeded uniform random machine — the one-liner the suites use instead of
/// spelling out a random_spec block per file.
[[nodiscard]] network make_random_net(std::uint32_t seed,
                                      std::size_t num_inputs = 2,
                                      std::size_t num_outputs = 2,
                                      std::size_t num_latches = 4,
                                      std::size_t max_fanin = 3);

/// Effective seed for one randomized test case: the LEQ_TEST_SEED
/// environment variable when set (announced once on stderr), otherwise
/// `fallback`.  Suites fold the returned value into every failure message,
/// so any CI red replays locally with
///     LEQ_TEST_SEED=<printed seed> ctest -R <suite>
[[nodiscard]] std::uint32_t test_seed(std::uint32_t fallback);

} // namespace leq
