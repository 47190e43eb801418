/// \file test_differential.cpp
/// \brief Quick-label differential entry point: every scenario family must
/// pass the full cross-flow oracle.  This replaces the ad-hoc per-file
/// cross-check loops as the first thing to run when touching a solver flow
/// (`ctest -R test_differential`); test_random_crosscheck remains the
/// slow-label deep sweep.

#include "gen/differential.hpp"
#include "gen/fuzz.hpp"
#include "gen/scenario.hpp"

#include <gtest/gtest.h>

namespace {

using namespace leq;

class differential_families
    : public ::testing::TestWithParam<std::tuple<int, std::uint32_t>> {};

TEST_P(differential_families, all_flows_agree_and_csf_verifies) {
    const auto family = all_scenario_families[std::get<0>(GetParam())];
    const std::uint32_t seed = test_seed(std::get<1>(GetParam()));
    const scenario sc = make_scenario(family, seed);
    const differential_outcome out = run_differential(sc);
    EXPECT_TRUE(out.ok) << sc.name << ": " << out.failure
                        << " (replay: LEQ_TEST_SEED=" << seed << ")";
    // partitioned matrix + monolithic always run; the oracle joins on the
    // small instances, which every family produces for low seeds
    EXPECT_GE(out.flows_run, default_option_matrix().size() + 1);
}

INSTANTIATE_TEST_SUITE_P(
    families_x_seeds, differential_families,
    ::testing::Combine(::testing::Range(0, 7),
                       ::testing::Values(1u, 2u, 3u, 4u)));

TEST(differential_oracle, explicit_flow_joins_every_family) {
    // each family must produce instances small enough for Algorithm 1 on a
    // short seed sweep, so all three flows get differential coverage
    for (const scenario_family family : all_scenario_families) {
        bool oracle_joined = false;
        for (std::uint32_t seed = 1; seed <= 6 && !oracle_joined; ++seed) {
            const scenario sc = make_scenario(family, seed);
            const differential_outcome out = run_differential(sc);
            ASSERT_TRUE(out.ok) << sc.name << ": " << out.failure;
            oracle_joined = out.oracle_run;
        }
        EXPECT_TRUE(oracle_joined) << to_string(family);
    }
}

TEST(differential_oracle, mutants_exercise_the_diagnosis_replay) {
    // across a seed sweep at least some mutants must break X_P containment
    // (that is what makes them near misses) and every diagnosis that fires
    // must replay as a real difference word — run_differential fails
    // otherwise, so a clean sweep is the assertion
    std::size_t empty_or_shrunk = 0;
    for (std::uint32_t seed = 1; seed <= 12; ++seed) {
        const scenario sc = make_scenario(scenario_family::mutant, seed);
        const differential_outcome out = run_differential(sc);
        EXPECT_TRUE(out.ok) << sc.name << ": " << out.failure;
        if (out.empty_solution) { ++empty_or_shrunk; }
    }
    // mutation is a near miss, not a no-op: a decent fraction of the seeds
    // must actually lose solvability
    EXPECT_GE(empty_or_shrunk, 1u);
}

TEST(differential_options_, matrix_is_a_real_sweep) {
    const std::vector<image_options> matrix = default_option_matrix();
    ASSERT_EQ(matrix.size(), 4u);
    // both cluster policies, clustering off and a tight limit appear, and
    // no two entries configure the same solve
    bool greedy = false, affinity = false, unclustered = false, tight = false;
    for (std::size_t k = 0; k < matrix.size(); ++k) {
        const image_options& o = matrix[k];
        greedy |= o.policy == cluster_policy::greedy;
        affinity |= o.policy == cluster_policy::affinity;
        unclustered |= o.cluster_limit == 0;
        tight |= o.cluster_limit > 0 && o.cluster_limit < 2500;
        for (std::size_t m = 0; m < k; ++m) {
            EXPECT_FALSE(matrix[m].policy == o.policy &&
                         matrix[m].cluster_limit == o.cluster_limit)
                << "entries " << m << " and " << k << " are the same solve";
        }
    }
    EXPECT_TRUE(greedy);
    EXPECT_TRUE(affinity);
    EXPECT_TRUE(unclustered);
    EXPECT_TRUE(tight);
    EXPECT_EQ(describe_option_matrix(matrix),
              "[greedy/limit2500, greedy/limit0, affinity/limit2500, "
              "affinity/limit600]");
}

TEST(differential_fuzz, short_campaign_is_clean) {
    fuzz_options options;
    options.seeds = 3;
    options.seed_base = test_seed(100);
    const fuzz_report report = run_fuzz(options);
    EXPECT_TRUE(report.ok())
        << report.failures.front().failure
        << " (replay: LEQ_TEST_SEED=" << options.seed_base << ")";
    EXPECT_EQ(report.scenarios_run, 3u * 7u);
}

} // namespace
