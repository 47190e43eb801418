/// \file test_bdd_groups.cpp
/// \brief Group sifting (blocks stay adjacent) and a pointwise image check.

#include "bdd/bdd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>

namespace leq {
namespace {

bdd random_function(bdd_manager& mgr, std::uint32_t nvars, std::uint32_t seed,
                    std::size_t ops = 50) {
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

// ---------------------------------------------------------------------------
// group sifting
// ---------------------------------------------------------------------------

TEST(bdd_groups, rejects_bad_partitions) {
    bdd_manager mgr(4);
    EXPECT_THROW(mgr.reorder_sift_groups({{0, 1}, {1, 2, 3}}),
                 std::invalid_argument); // overlap
    EXPECT_THROW(mgr.reorder_sift_groups({{0, 1}}), std::invalid_argument);
    EXPECT_THROW(mgr.reorder_sift_groups({{0, 1}, {}, {2, 3}}),
                 std::invalid_argument);
    EXPECT_THROW(mgr.reorder_sift_groups({{0, 1}, {2, 9}}),
                 std::invalid_argument);
}

TEST(bdd_groups, groups_end_up_adjacent_in_listed_order) {
    bdd_manager mgr(8);
    const bdd f = random_function(mgr, 8, 5);
    (void)f;
    const std::vector<std::vector<std::uint32_t>> groups = {
        {0, 4}, {1, 5}, {2, 6}, {3, 7}};
    mgr.reorder_sift_groups(groups);
    mgr.check_consistency();
    for (const auto& group : groups) {
        for (std::size_t k = 1; k < group.size(); ++k) {
            EXPECT_EQ(mgr.level_of(group[k]), mgr.level_of(group[k - 1]) + 1)
                << "group member " << group[k];
        }
    }
}

TEST(bdd_groups, preserves_semantics) {
    bdd_manager mgr(9);
    std::vector<bdd> funcs;
    for (std::uint32_t s = 0; s < 4; ++s) {
        funcs.push_back(random_function(mgr, 9, 20 + s));
    }
    std::vector<std::vector<bool>> truth(funcs.size());
    std::vector<bool> a(9);
    for (std::uint32_t m = 0; m < (1u << 9); ++m) {
        for (std::uint32_t v = 0; v < 9; ++v) { a[v] = (m >> v) & 1u; }
        for (std::size_t k = 0; k < funcs.size(); ++k) {
            truth[k].push_back(mgr.eval(funcs[k], a));
        }
    }
    mgr.reorder_sift_groups({{0, 1, 2}, {3, 4}, {5}, {6, 7, 8}});
    mgr.check_consistency();
    for (std::uint32_t m = 0; m < (1u << 9); ++m) {
        for (std::uint32_t v = 0; v < 9; ++v) { a[v] = (m >> v) & 1u; }
        for (std::size_t k = 0; k < funcs.size(); ++k) {
            ASSERT_EQ(mgr.eval(funcs[k], a), truth[k][m]) << m;
        }
    }
}

TEST(bdd_groups, paired_blocks_recover_linear_size) {
    // f = (x0 ~ y0) & (x1 ~ y1) & ... with pairs split far apart; group
    // sifting with {x_k, y_k} blocks must recover the linear pairing
    constexpr std::uint32_t pairs = 5;
    bdd_manager mgr(2 * pairs);
    // creation order: all x first, then all y (the bad arrangement)
    bdd f = mgr.one();
    for (std::uint32_t p = 0; p < pairs; ++p) {
        f &= mgr.var(p).iff(mgr.var(pairs + p));
    }
    const std::size_t bad = mgr.dag_size(f);
    std::vector<std::vector<std::uint32_t>> groups;
    for (std::uint32_t p = 0; p < pairs; ++p) {
        groups.push_back({p, pairs + p});
    }
    mgr.reorder_sift_groups(groups);
    mgr.check_consistency();
    const std::size_t good = mgr.dag_size(f);
    EXPECT_LT(good, bad);
    EXPECT_LE(good, 3 * pairs + 2); // linear in the paired order
}

TEST(bdd_groups, singleton_groups_behave_like_plain_sifting) {
    bdd_manager mgr(10);
    const bdd f = random_function(mgr, 10, 77, 120);
    std::vector<std::vector<std::uint32_t>> singletons;
    for (std::uint32_t v = 0; v < 10; ++v) { singletons.push_back({v}); }
    const std::size_t grouped = mgr.reorder_sift_groups(singletons);
    EXPECT_LE(grouped, mgr.dag_size(f) + 16); // sane scale
    mgr.check_consistency();
}

// ---------------------------------------------------------------------------
// relational product
// ---------------------------------------------------------------------------

TEST(relational_product, image_matches_pointwise_successors) {
    // Img(ns) of a state set under next-state functions, checked pointwise
    // against the successors enumerated input by input on a 2-latch system
    bdd_manager mgr(6); // cs0 cs1 i ns0 ns1 (+1 spare)
    const std::uint32_t cs0 = 0, cs1 = 1, in = 2, ns0 = 3, ns1 = 4;
    const bdd t0 = mgr.var(in) & mgr.var(cs1);  // T0(i, cs)
    const bdd t1 = (!mgr.var(in)) | mgr.var(cs0); // T1(i, cs)
    const bdd from = (!mgr.var(cs0)) & (!mgr.var(cs1));
    // relational product
    const bdd rel = (mgr.var(ns0).iff(t0)) & (mgr.var(ns1).iff(t1));
    const bdd img_rel =
        mgr.and_exists(rel, from, mgr.cube({cs0, cs1, in}));
    for (std::uint32_t m = 0; m < 4; ++m) {
        std::vector<bool> a(6, false);
        a[ns0] = (m & 1) != 0;
        a[ns1] = (m & 2) != 0;
        // img_rel(ns) true iff exists i: T(i, 00) == ns
        bool expect = false;
        for (int i = 0; i < 2; ++i) {
            std::vector<bool> b(6, false);
            b[in] = i != 0;
            const bool v0 = mgr.eval(t0, b);
            const bool v1 = mgr.eval(t1, b);
            expect = expect || (v0 == a[ns0] && v1 == a[ns1]);
        }
        EXPECT_EQ(mgr.eval(img_rel, a), expect) << m;
    }
}

} // namespace
} // namespace leq
