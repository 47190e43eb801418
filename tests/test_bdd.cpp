/// \file test_bdd.cpp
/// \brief Unit and property tests for the ROBDD package.

#include "bdd/bdd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

namespace {

using leq::bdd;
using leq::bdd_manager;

TEST(bdd_basic, constants_are_distinct_and_fixed) {
    bdd_manager m(4);
    EXPECT_TRUE(m.zero().is_zero());
    EXPECT_TRUE(m.one().is_one());
    EXPECT_NE(m.zero(), m.one());
    EXPECT_TRUE(m.zero().is_const());
    EXPECT_TRUE(m.one().is_const());
}

TEST(bdd_basic, variable_canonical) {
    bdd_manager m(4);
    EXPECT_EQ(m.var(0), m.var(0));
    EXPECT_NE(m.var(0), m.var(1));
    EXPECT_EQ(m.nvar(2), !m.var(2));
}

TEST(bdd_basic, and_or_terminal_rules) {
    bdd_manager m(4);
    const bdd x = m.var(0);
    EXPECT_EQ(x & m.one(), x);
    EXPECT_EQ(x & m.zero(), m.zero());
    EXPECT_EQ(x | m.one(), m.one());
    EXPECT_EQ(x | m.zero(), x);
    EXPECT_EQ(x & x, x);
    EXPECT_EQ(x | x, x);
    EXPECT_EQ(x ^ x, m.zero());
}

TEST(bdd_basic, negation_involution) {
    bdd_manager m(6);
    const bdd f = (m.var(0) & m.var(1)) | (m.var(2) ^ m.var(3));
    EXPECT_EQ(!!f, f);
    EXPECT_EQ(f & !f, m.zero());
    EXPECT_EQ(f | !f, m.one());
}

TEST(bdd_basic, implies_iff) {
    bdd_manager m(3);
    const bdd a = m.var(0), b = m.var(1);
    EXPECT_EQ(a.implies(b), (!a) | b);
    EXPECT_EQ(a.iff(b), (a & b) | ((!a) & (!b)));
    EXPECT_TRUE((a & b).leq(a));
    EXPECT_FALSE(a.leq(a & b));
}

TEST(bdd_basic, ite_matches_definition) {
    bdd_manager m(5);
    const bdd f = m.var(0), g = m.var(1) & m.var(2), h = m.var(3) | m.var(4);
    EXPECT_EQ(m.ite(f, g, h), (f & g) | ((!f) & h));
    EXPECT_EQ(m.ite(m.one(), g, h), g);
    EXPECT_EQ(m.ite(m.zero(), g, h), h);
    EXPECT_EQ(m.ite(f, m.one(), m.zero()), f);
    EXPECT_EQ(m.ite(f, m.zero(), m.one()), !f);
}

TEST(bdd_quant, exists_removes_variable) {
    bdd_manager m(4);
    const bdd f = (m.var(0) & m.var(1)) | ((!m.var(0)) & m.var(2));
    const bdd q = m.exists(f, m.cube({0}));
    EXPECT_EQ(q, m.var(1) | m.var(2));
    const std::vector<std::uint32_t> s = m.support(q);
    EXPECT_EQ(s, (std::vector<std::uint32_t>{1, 2}));
}

TEST(bdd_quant, forall_dual_of_exists) {
    bdd_manager m(4);
    const bdd f = (m.var(0) & m.var(1)) | (m.var(2) & !m.var(1));
    const bdd c = m.cube({1});
    EXPECT_EQ(m.forall(f, c), !m.exists(!f, c));
}

TEST(bdd_quant, and_exists_equals_exists_of_and) {
    bdd_manager m(6);
    const bdd f = (m.var(0) & m.var(2)) | (m.var(1) & m.var(4));
    const bdd g = (m.var(2) ^ m.var(3)) | m.var(5);
    const bdd c = m.cube({2, 4});
    EXPECT_EQ(m.and_exists(f, g, c), m.exists(f & g, c));
}

TEST(bdd_quant, exists_of_independent_variable_is_identity) {
    bdd_manager m(4);
    const bdd f = m.var(1) & m.var(3);
    EXPECT_EQ(m.exists(f, m.cube({0})), f);
    EXPECT_EQ(m.exists(f, m.cube({2})), f);
}

TEST(bdd_subst, permute_renames_support) {
    bdd_manager m(6);
    const bdd f = (m.var(0) & m.var(1)) | m.var(2);
    std::vector<std::uint32_t> perm{3, 4, 5, 0, 1, 2};
    const bdd g = m.permute(f, perm);
    EXPECT_EQ(g, (m.var(3) & m.var(4)) | m.var(5));
    // round-trip
    EXPECT_EQ(m.permute(g, perm), f);
}

TEST(bdd_subst, cofactor_by_cube) {
    bdd_manager m(4);
    const bdd f = (m.var(0) & m.var(1)) | ((!m.var(0)) & m.var(2));
    EXPECT_EQ(m.cofactor(f, m.var(0)), m.var(1));
    EXPECT_EQ(m.cofactor(f, !m.var(0)), m.var(2));
    EXPECT_EQ(m.cofactor(f, m.var(0) & m.var(1)), m.one());
}

TEST(bdd_util, support_and_dag_size) {
    bdd_manager m(8);
    const bdd f = (m.var(1) & m.var(3)) ^ m.var(5);
    EXPECT_EQ(m.support(f), (std::vector<std::uint32_t>{1, 3, 5}));
    EXPECT_GE(m.dag_size(f), 4u);
    EXPECT_EQ(m.support(m.one()), std::vector<std::uint32_t>{});
}

TEST(bdd_util, sat_count_small_functions) {
    bdd_manager m(3);
    EXPECT_DOUBLE_EQ(m.sat_count(m.one(), 3), 8.0);
    EXPECT_DOUBLE_EQ(m.sat_count(m.zero(), 3), 0.0);
    EXPECT_DOUBLE_EQ(m.sat_count(m.var(0), 3), 4.0);
    EXPECT_DOUBLE_EQ(m.sat_count(m.var(0) & m.var(1), 3), 2.0);
    EXPECT_DOUBLE_EQ(m.sat_count(m.var(0) ^ m.var(1), 3), 4.0);
}

TEST(bdd_util, eval_agrees_with_structure) {
    bdd_manager m(3);
    const bdd f = (m.var(0) & m.var(1)) | m.var(2);
    EXPECT_TRUE(m.eval(f, {true, true, false}));
    EXPECT_TRUE(m.eval(f, {false, false, true}));
    EXPECT_FALSE(m.eval(f, {true, false, false}));
}

TEST(bdd_util, pick_cube_is_satisfying_implicant) {
    bdd_manager m(4);
    const bdd f = (m.var(0) & !m.var(2)) | (m.var(1) & m.var(3));
    const bdd c = m.pick_cube(f);
    EXPECT_FALSE(c.is_zero());
    EXPECT_TRUE(c.leq(f));
}

TEST(bdd_util, foreach_cube_enumerates_minterms) {
    bdd_manager m(3);
    const bdd f = m.var(0) ^ m.var(1);
    std::size_t count = 0;
    double minterms = 0;
    m.foreach_cube(f, {0, 1, 2}, [&](const std::vector<int>& v) {
        ++count;
        int dc = 0;
        for (const int x : v) { dc += (x == 2); }
        minterms += 1 << dc;
    });
    EXPECT_GE(count, 2u);
    EXPECT_DOUBLE_EQ(minterms, m.sat_count(f, 3));
}

TEST(bdd_util, to_string_round_trip_basics) {
    bdd_manager m(3);
    const std::vector<std::string> names{"a", "b", "c"};
    EXPECT_EQ(m.to_string(m.zero(), names), "0");
    EXPECT_EQ(m.to_string(m.one(), names), "1");
    EXPECT_EQ(m.to_string(m.var(1), names), "b");
}

TEST(bdd_order, custom_order_changes_levels_not_semantics) {
    bdd_manager m(4);
    m.set_var_order({3, 1, 0, 2});
    EXPECT_EQ(m.level_of(3), 0u);
    EXPECT_EQ(m.var_at_level(0), 3u);
    const bdd f = (m.var(0) & m.var(3)) | m.var(2);
    EXPECT_TRUE(m.eval(f, {false, false, true, false}));
    EXPECT_TRUE(m.eval(f, {true, false, false, true}));
    EXPECT_FALSE(m.eval(f, {true, false, false, false}));
}

TEST(bdd_order, set_order_rejects_bad_input) {
    bdd_manager m(3);
    EXPECT_THROW(m.set_var_order({0, 1}), std::invalid_argument);
    EXPECT_THROW(m.set_var_order({0, 0, 1}), std::invalid_argument);
    const bdd held = m.var(0);
    EXPECT_THROW(m.set_var_order({2, 1, 0}), std::logic_error);
}

TEST(bdd_gc, collect_preserves_live_handles) {
    bdd_manager m(16);
    bdd keep = m.one();
    for (std::uint32_t v = 0; v < 16; ++v) { keep &= m.var(v); }
    // create lots of garbage
    for (int round = 0; round < 50; ++round) {
        bdd junk = m.zero();
        for (std::uint32_t v = 0; v < 16; ++v) {
            junk |= m.var(v) & m.var((v + 3) % 16);
        }
    }
    m.collect_garbage();
    // keep must still be the full conjunction
    EXPECT_DOUBLE_EQ(m.sat_count(keep, 16), 1.0);
    bdd rebuilt = m.one();
    for (std::uint32_t v = 0; v < 16; ++v) { rebuilt &= m.var(v); }
    EXPECT_EQ(keep, rebuilt);
}

TEST(bdd_gc, stats_report_runs) {
    bdd_manager m(8);
    m.collect_garbage();
    EXPECT_GE(m.stats().gc_runs, 1u);
    EXPECT_GE(m.stats().num_vars, 8u);
}

// ---------------------------------------------------------------------------
// property tests: random-function sweeps (truth-table cross-check)
// ---------------------------------------------------------------------------

/// Build a BDD from an explicit truth table over `nvars` variables.
bdd from_truth_table(bdd_manager& m, const std::vector<bool>& tt,
                     std::uint32_t nvars) {
    bdd f = m.zero();
    for (std::size_t row = 0; row < tt.size(); ++row) {
        if (!tt[row]) { continue; }
        bdd term = m.one();
        for (std::uint32_t v = 0; v < nvars; ++v) {
            term &= m.literal(v, ((row >> v) & 1) != 0);
        }
        f |= term;
    }
    return f;
}

class bdd_property : public ::testing::TestWithParam<unsigned> {};

TEST_P(bdd_property, random_functions_respect_boolean_algebra) {
    const unsigned seed = GetParam();
    std::mt19937 rng(seed);
    constexpr std::uint32_t nvars = 5;
    constexpr std::size_t rows = 1u << nvars;
    bdd_manager m(nvars);

    std::vector<bool> tf(rows), tg(rows);
    for (std::size_t r = 0; r < rows; ++r) {
        tf[r] = (rng() & 1) != 0;
        tg[r] = (rng() & 1) != 0;
    }
    const bdd f = from_truth_table(m, tf, nvars);
    const bdd g = from_truth_table(m, tg, nvars);

    // de Morgan
    EXPECT_EQ(!(f & g), (!f) | (!g));
    EXPECT_EQ(!(f | g), (!f) & (!g));
    // xor decomposition
    EXPECT_EQ(f ^ g, (f & !g) | ((!f) & g));
    // absorption
    EXPECT_EQ(f & (f | g), f);
    EXPECT_EQ(f | (f & g), f);
    // Shannon expansion on every variable
    for (std::uint32_t v = 0; v < nvars; ++v) {
        const bdd pos = m.cofactor(f, m.var(v));
        const bdd neg = m.cofactor(f, !m.var(v));
        EXPECT_EQ(f, m.ite(m.var(v), pos, neg));
        // quantifier identities
        EXPECT_EQ(m.exists(f, m.cube({v})), pos | neg);
        EXPECT_EQ(m.forall(f, m.cube({v})), pos & neg);
    }
    // and_exists over a random cube
    const bdd c = m.cube({0, 2, 4});
    EXPECT_EQ(m.and_exists(f, g, c), m.exists(f & g, c));

    // pointwise agreement with the truth table
    for (std::size_t r = 0; r < rows; ++r) {
        std::vector<bool> a(nvars);
        for (std::uint32_t v = 0; v < nvars; ++v) { a[v] = ((r >> v) & 1) != 0; }
        EXPECT_EQ(m.eval(f, a), tf[r]);
        EXPECT_EQ(m.eval(f & g, a), tf[r] && tg[r]);
        EXPECT_EQ(m.eval(f ^ g, a), tf[r] != tg[r]);
    }
    // sat_count equals the truth-table count
    const double expected =
        static_cast<double>(std::count(tf.begin(), tf.end(), true));
    EXPECT_DOUBLE_EQ(m.sat_count(f, nvars), expected);
}

INSTANTIATE_TEST_SUITE_P(random_seeds, bdd_property,
                         ::testing::Range(0u, 20u));

/// Quantifier scheduling property: existential quantification distributes
/// over conjunction only when the variable is absent from one conjunct.
class bdd_quant_property : public ::testing::TestWithParam<unsigned> {};

TEST_P(bdd_quant_property, early_quantification_condition) {
    std::mt19937 rng(GetParam());
    constexpr std::uint32_t nvars = 6;
    bdd_manager m(nvars);
    // f over vars {0..2}, g over vars {3..5}: disjoint supports
    std::vector<bool> tf(1u << 3), tg(1u << 3);
    for (auto&& x : tf) { x = (rng() & 1) != 0; }
    for (auto&& x : tg) { x = (rng() & 1) != 0; }
    bdd f = m.zero(), g = m.zero();
    for (std::size_t r = 0; r < 8; ++r) {
        if (tf[r]) {
            bdd t = m.one();
            for (std::uint32_t v = 0; v < 3; ++v) {
                t &= m.literal(v, ((r >> v) & 1) != 0);
            }
            f |= t;
        }
        if (tg[r]) {
            bdd t = m.one();
            for (std::uint32_t v = 0; v < 3; ++v) {
                t &= m.literal(3 + v, ((r >> v) & 1) != 0);
            }
            g |= t;
        }
    }
    // var 0 occurs only in f: exists(f&g, 0) == exists(f,0) & g
    const bdd c0 = m.cube({0});
    EXPECT_EQ(m.exists(f & g, c0), m.exists(f, c0) & g);
    // var 3 occurs only in g
    const bdd c3 = m.cube({3});
    EXPECT_EQ(m.exists(f & g, c3), f & m.exists(g, c3));
}

INSTANTIATE_TEST_SUITE_P(random_seeds, bdd_quant_property,
                         ::testing::Range(0u, 10u));

} // namespace
