/// \file test_bdd_props.cpp
/// \brief Property sweeps over the BDD package: algebraic identities that
/// must hold for arbitrary functions, checked on seeded random instances.

#include "bdd/bdd.hpp"

#include <gtest/gtest.h>

#include <random>
#include <utility>

namespace leq {
namespace {

constexpr std::uint32_t nvars = 8;

bdd random_function(bdd_manager& mgr, std::uint32_t seed, std::size_t ops = 60) {
    std::mt19937 rng(seed);
    std::uniform_int_distribution<std::uint32_t> pick(0, nvars - 1);
    bdd f = mgr.literal(pick(rng), (rng() & 1u) != 0);
    for (std::size_t k = 0; k < ops; ++k) {
        const bdd lit = mgr.literal(pick(rng), (rng() & 1u) != 0);
        switch (rng() % 3) {
            case 0: f = f & lit; break;
            case 1: f = f | lit; break;
            default: f = f ^ lit; break;
        }
    }
    return f;
}

class bdd_props : public ::testing::TestWithParam<std::uint32_t> {
protected:
    bdd_manager mgr{nvars};
    bdd f = random_function(mgr, GetParam());
    bdd g = random_function(mgr, GetParam() + 100);
    bdd h = random_function(mgr, GetParam() + 200);
    bdd cube = mgr.cube({1, 3, 5});
};

TEST_P(bdd_props, boolean_algebra) {
    // absorption, distribution, de Morgan — at the canonical-node level
    EXPECT_EQ(f & (f | g), f);
    EXPECT_EQ(f | (f & g), f);
    EXPECT_EQ(f & (g | h), (f & g) | (f & h));
    EXPECT_EQ(!(f & g), (!f) | (!g));
    EXPECT_EQ(!(f | g), (!f) & (!g));
    EXPECT_EQ(f ^ g, (f & !g) | ((!f) & g));
    EXPECT_EQ(mgr.ite(f, g, h), (f & g) | ((!f) & h));
}

TEST_P(bdd_props, implication_and_containment) {
    EXPECT_TRUE((f & g).leq(f));
    EXPECT_TRUE(f.leq(f | g));
    EXPECT_EQ(f.implies(g).is_one(), f.leq(g));
    EXPECT_EQ(f.iff(f), mgr.one());
}

TEST_P(bdd_props, quantifier_identities) {
    // duality, monotonicity, distribution laws
    EXPECT_EQ(mgr.exists(f, cube), !mgr.forall(!f, cube));
    EXPECT_TRUE(mgr.forall(f, cube).leq(f));
    EXPECT_TRUE(f.leq(mgr.exists(f, cube)));
    EXPECT_EQ(mgr.exists(f | g, cube),
              mgr.exists(f, cube) | mgr.exists(g, cube));
    EXPECT_EQ(mgr.forall(f & g, cube),
              mgr.forall(f, cube) & mgr.forall(g, cube));
    // quantifying twice is idempotent
    EXPECT_EQ(mgr.exists(mgr.exists(f, cube), cube), mgr.exists(f, cube));
}

TEST_P(bdd_props, and_exists_is_fused_relational_product) {
    EXPECT_EQ(mgr.and_exists(f, g, cube), mgr.exists(f & g, cube));
    // special cases
    EXPECT_EQ(mgr.and_exists(f, mgr.one(), cube), mgr.exists(f, cube));
    EXPECT_EQ(mgr.and_exists(f, mgr.zero(), cube), mgr.zero());
}

TEST_P(bdd_props, nary_and_exists_matches_folded_conjunction) {
    const bdd k = random_function(mgr, GetParam() + 300);
    EXPECT_EQ(mgr.and_exists({f, g, h, k}, cube),
              mgr.exists(f & g & h & k, cube));
    EXPECT_EQ(mgr.and_exists({f, g, h}, cube), mgr.exists(f & g & h, cube));
    // degenerate spans collapse onto the cached unary/binary cores
    EXPECT_EQ(mgr.and_exists({f, g}, cube), mgr.and_exists(f, g, cube));
    EXPECT_EQ(mgr.and_exists({f}, cube), mgr.exists(f, cube));
    EXPECT_EQ(mgr.and_exists(std::vector<bdd>{}, cube), mgr.one());
    // absorbing / neutral operands and complementary pairs
    EXPECT_EQ(mgr.and_exists({f, mgr.zero(), g}, cube), mgr.zero());
    EXPECT_EQ(mgr.and_exists({f, mgr.one(), g}, cube),
              mgr.and_exists(f, g, cube));
    EXPECT_EQ(mgr.and_exists({f, !f, g}, cube), mgr.zero());
    EXPECT_EQ(mgr.and_exists({f, f, g}, cube), mgr.and_exists(f, g, cube));
    // an empty cube is a plain n-ary conjunction
    EXPECT_EQ(mgr.and_exists({f, g, h}, mgr.one()), f & g & h);
}

TEST_P(bdd_props, cofactor_shannon_expansion) {
    const bdd x = mgr.var(2);
    const bdd f1 = mgr.cofactor(f, x);
    const bdd f0 = mgr.cofactor(f, !x);
    EXPECT_EQ(f, (x & f1) | ((!x) & f0));
    // cofactors are independent of the cofactored variable
    for (const std::uint32_t v : mgr.support(f1)) { EXPECT_NE(v, 2u); }
}

TEST_P(bdd_props, constrain_and_restrict_image_property) {
    if (g.is_zero()) { GTEST_SKIP(); }
    // both generalized cofactors agree with f on the care set
    EXPECT_EQ(mgr.constrain(f, g) & g, f & g);
    EXPECT_EQ(mgr.restrict_dc(f, g) & g, f & g);
    // constrain by one is the identity
    EXPECT_EQ(mgr.constrain(f, mgr.one()), f);
    EXPECT_EQ(mgr.restrict_dc(f, mgr.one()), f);
}

TEST_P(bdd_props, sat_count_inclusion_exclusion) {
    const double cf = mgr.sat_count(f, nvars);
    const double cg = mgr.sat_count(g, nvars);
    const double cand = mgr.sat_count(f & g, nvars);
    const double cor = mgr.sat_count(f | g, nvars);
    EXPECT_EQ(cf + cg, cand + cor);
    EXPECT_EQ(mgr.sat_count(!f, nvars), 256.0 - cf);
}

TEST_P(bdd_props, support_is_tight) {
    // every support variable actually matters; every other one does not
    const auto support = mgr.support(f);
    for (std::uint32_t v = 0; v < nvars; ++v) {
        const bdd pos = mgr.cofactor(f, mgr.var(v));
        const bdd neg = mgr.cofactor(f, mgr.nvar(v));
        const bool in_support =
            std::find(support.begin(), support.end(), v) != support.end();
        EXPECT_EQ(pos != neg, in_support) << "var " << v;
    }
}

TEST_P(bdd_props, pick_cube_satisfies) {
    if (f.is_zero()) { GTEST_SKIP(); }
    const bdd cube_of_f = mgr.pick_cube(f);
    EXPECT_TRUE(cube_of_f.leq(f));
    EXPECT_FALSE(cube_of_f.is_zero());
}

TEST_P(bdd_props, permute_round_trip_and_composition) {
    std::vector<std::uint32_t> swap02(nvars);
    for (std::uint32_t v = 0; v < nvars; ++v) { swap02[v] = v; }
    std::swap(swap02[0], swap02[2]);
    EXPECT_EQ(mgr.permute(mgr.permute(f, swap02), swap02), f);
    // permute == compose_vector with variable substitutions
    EXPECT_EQ(mgr.permute(f, swap02),
              mgr.compose_vector(f, {{0, mgr.var(2)}, {2, mgr.var(0)}}));
}

TEST_P(bdd_props, compose_inverts_expansion) {
    // f == ite(x, f|x=1, f|x=0) composed back with anything for x when f
    // does not depend on x after cofactoring
    const bdd f1 = mgr.cofactor(f, mgr.var(4));
    EXPECT_EQ(mgr.compose(f1, 4, g), f1); // x4 absent from f1
    // compose with the variable itself is the identity
    EXPECT_EQ(mgr.compose(f, 4, mgr.var(4)), f);
}

INSTANTIATE_TEST_SUITE_P(seeds, bdd_props, ::testing::Range(1u, 16u));

// ---------------------------------------------------------------------------
// memory-discipline knobs (bdd_manager_options): cache growth and the GC
// trigger must follow their documented policies, and identical workloads
// must produce identical functions whatever the tuning
// ---------------------------------------------------------------------------

constexpr std::uint32_t big_nvars = 16;

/// Enough distinct nodes to outgrow a 2^8-entry cache several times over.
bdd big_function(bdd_manager& mgr, std::uint32_t seed) {
    std::mt19937 rng(seed);
    std::uniform_int_distribution<std::uint32_t> pick(0, big_nvars - 1);
    bdd f = mgr.literal(pick(rng), (rng() & 1u) != 0);
    for (std::size_t k = 0; k < 400; ++k) {
        const bdd lit = mgr.literal(pick(rng), (rng() & 1u) != 0);
        switch (rng() % 3) {
            case 0: f = f & lit; break;
            case 1: f = f | lit; break;
            default: f = f ^ lit; break;
        }
        if (k % 5 == 0) { f = f ^ (mgr.var(pick(rng)) & f); }
    }
    return f;
}

TEST(bdd_manager_options_test, cache_grows_geometrically_with_unique_table) {
    leq::bdd_manager_options small;
    small.cache_bits = 8;
    small.max_cache_bits = 16;
    bdd_manager mgr(big_nvars, small);
    EXPECT_EQ(mgr.stats().cache_entries, std::size_t{1} << 8);
    const bdd f = big_function(mgr, 7);
    // the node counters are refreshed by mark-and-sweep, so force one
    ASSERT_GT(mgr.live_node_count(), 0u);
    ASSERT_GT(mgr.stats().allocated_nodes, std::size_t{1} << 9)
        << "workload too small to exercise cache growth";
    EXPECT_GT(mgr.stats().cache_resizes, 0u);
    EXPECT_GT(mgr.stats().cache_entries, std::size_t{1} << 8);
    EXPECT_LE(mgr.stats().cache_entries, std::size_t{1} << 16);
    // tuning must not change the function computed
    bdd_manager reference(big_nvars);
    EXPECT_EQ(mgr.sat_count(f, big_nvars),
              reference.sat_count(big_function(reference, 7), big_nvars));
}

TEST(bdd_manager_options_test, max_cache_bits_pins_a_fixed_cache) {
    leq::bdd_manager_options pinned;
    pinned.cache_bits = 10;
    pinned.max_cache_bits = 10; // the historical never-resizing cache
    bdd_manager mgr(big_nvars, pinned);
    (void)big_function(mgr, 7);
    EXPECT_EQ(mgr.stats().cache_entries, std::size_t{1} << 10);
    EXPECT_EQ(mgr.stats().cache_resizes, 0u);
}

TEST(bdd_manager_options_test, out_of_range_options_are_clamped) {
    leq::bdd_manager_options wild;
    wild.cache_bits = 2;      // below the 8-bit floor
    wild.max_cache_bits = 4;  // below cache_bits after clamping
    wild.gc_threshold = 1;    // below the 2^10 floor
    bdd_manager mgr(4, wild);
    EXPECT_EQ(mgr.stats().cache_entries, std::size_t{1} << 8);
    EXPECT_EQ(mgr.stats().gc_threshold, std::size_t{1} << 10);
}

TEST(bdd_manager_options_test, cache_bits_option_pins_initial_cache_size) {
    leq::bdd_manager_options opts;
    opts.cache_bits = 12;
    bdd_manager mgr(4, opts);
    EXPECT_EQ(mgr.stats().cache_entries, std::size_t{1} << 12);
}

TEST(bdd_manager_options_test, gc_trigger_tracks_live_nodes) {
    leq::bdd_manager_options opts;
    opts.gc_threshold = std::size_t{1} << 10;
    bdd_manager mgr(big_nvars, opts);
    // churn: build and drop garbage until collections happen
    for (std::uint32_t round = 0; round < 12; ++round) {
        (void)big_function(mgr, 100 + round);
    }
    const auto& stats = mgr.stats();
    ASSERT_GT(stats.gc_runs, 0u);
    // the trigger never drops below the configured floor, and after a
    // productive collection (all garbage above) it stays proportional to
    // the live set / arena instead of ratcheting monotonically
    EXPECT_GE(stats.gc_threshold, std::size_t{1} << 10);
    EXPECT_LE(stats.gc_threshold,
              std::max({std::size_t{1} << 10, 2 * stats.live_nodes,
                        stats.allocated_nodes / 2}) +
                  (std::size_t{1} << 10));
}

// ---------------------------------------------------------------------------
// computed-cache geometry: sizing, replacement, aging across GC
// ---------------------------------------------------------------------------

TEST(bdd_cache_geometry, replacement_is_deterministic) {
    // identical op sequences against identical geometry must produce
    // identical hit/miss/GC behavior — the move-to-front LRU policy has no
    // hidden state (no randomness, no clocks)
    leq::bdd_manager_options opts;
    opts.cache_bits = 8;
    opts.max_cache_bits = 10; // pinned small: replacement under pressure
    opts.gc_threshold = std::size_t{1} << 10;
    bdd_manager a(big_nvars, opts);
    bdd_manager b(big_nvars, opts);
    const bdd fa = big_function(a, 11);
    const bdd fb = big_function(b, 11);
    EXPECT_EQ(fa.index(), fb.index());
    EXPECT_EQ(a.stats().cache_lookups, b.stats().cache_lookups);
    EXPECT_EQ(a.stats().cache_hits, b.stats().cache_hits);
    EXPECT_EQ(a.stats().gc_runs, b.stats().gc_runs);
    EXPECT_EQ(a.stats().allocated_nodes, b.stats().allocated_nodes);
    ASSERT_GT(a.stats().cache_lookups, a.stats().cache_hits)
        << "workload too small to exercise replacement";
}

TEST(bdd_cache_geometry, results_are_identical_across_cache_sizes) {
    // cache sizing only changes what is memoized, never what is computed:
    // a pinned tiny cache, a growing one and a pinned large one all build
    // the same node
    const std::pair<unsigned, unsigned> sizes[] = {
        {8, 8}, {8, 10}, {10, 10}, {8, 16}, {16, 16}};
    std::uint32_t reference = 0;
    for (const auto& [bits, max_bits] : sizes) {
        leq::bdd_manager_options opts;
        opts.cache_bits = bits;
        opts.max_cache_bits = max_bits;
        opts.gc_threshold = std::size_t{1} << 10;
        bdd_manager mgr(big_nvars, opts);
        const bdd f = big_function(mgr, 23);
        if (reference == 0) {
            reference = f.index();
        } else {
            EXPECT_EQ(f.index(), reference)
                << "cache_bits=" << bits << " max_cache_bits=" << max_bits;
        }
    }
}

TEST(bdd_cache_geometry, entries_age_across_gc_instead_of_dying) {
    bdd_manager mgr(8);
    const bdd f = mgr.var(0);
    const bdd g = mgr.var(1);
    const bdd h1 = f & g; // seeds the and-op cache entry
    mgr.collect_garbage();
    const std::size_t hits = mgr.stats().cache_hits;
    const bdd h2 = f & g; // every operand is externally held, so the entry
                          // must have survived the sweep with an older age
    EXPECT_EQ(h1, h2);
    EXPECT_EQ(mgr.stats().cache_hits, hits + 1)
        << "garbage collection dropped a cache entry whose key and result "
           "are all live";
}

TEST(bdd_cache_geometry, growth_migrates_surviving_entries) {
    leq::bdd_manager_options opts;
    opts.cache_bits = 8;
    opts.max_cache_bits = 16;
    bdd_manager mgr(6000, opts);
    const bdd f = mgr.var(0);
    const bdd g = mgr.var(1);
    const bdd h1 = f & g; // the sentinel entry that must survive growth
    // grow the unique table with variable nodes only — no cache traffic, so
    // the sentinel cannot be evicted by replacement, only lost by a
    // clear-on-grow (the regression this test pins against)
    for (std::uint32_t v = 2; v < 6000; ++v) { (void)mgr.var(v); }
    ASSERT_GT(mgr.stats().cache_resizes, 0u)
        << "workload too small to trigger cache growth";
    const std::size_t hits = mgr.stats().cache_hits;
    const bdd h2 = f & g;
    EXPECT_EQ(h1, h2);
    EXPECT_EQ(mgr.stats().cache_hits, hits + 1)
        << "rehash-migration dropped a surviving cache entry";
}

} // namespace
} // namespace leq
