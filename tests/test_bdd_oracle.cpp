/// \file test_bdd_oracle.cpp
/// \brief Exhaustive truth-table oracle for the complement-edge BDD engine.
///
/// Every BDD operation is cross-checked against independent bit-vector
/// semantics: a function over n <= 12 variables is a 2^n-bit table, each
/// operator a few word-wise instructions.  Random expression DAGs mix
/// and/or/xor/not/ite/exists/forall/relprod (and_exists) and substitution
/// (compose/permute/cofactor), and after every step the new node must agree
/// with the oracle on all 2^n rows.
///
/// On top of pointwise agreement the suite asserts the complement-edge
/// canonicity contract:
///  * double negation restores the exact handle (`!!f == f` by reference);
///  * De Morgan forms are handle-identical, not merely equivalent;
///  * a regular (even-reference) handle's then-cofactor is regular — the
///    public-API shadow of the "stored then-edges carry no complement bit"
///    invariant — checked recursively over the whole reachable DAG;
///  * f and !f have the same dag_size (they share every node);
///  * check_consistency() validates the unique table (no duplicate keys, no
///    complemented then-edge, i.e. no function present in both phases).

#include "bdd/bdd.hpp"
#include "bdd_invariants.hpp"
#include "gen/scenario.hpp" // test_seed

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <random>
#include <string>
#include <vector>

namespace {

using leq::bdd;
using leq::bdd_manager;

// ---------------------------------------------------------------------------
// bit-vector truth tables (the oracle)
// ---------------------------------------------------------------------------

using words = std::vector<std::uint64_t>;

std::size_t tt_rows(std::uint32_t nvars) { return std::size_t{1} << nvars; }

std::size_t tt_words(std::uint32_t nvars) {
    return nvars >= 6 ? (std::size_t{1} << (nvars - 6)) : 1;
}

std::uint64_t tt_tail_mask(std::uint32_t nvars) {
    return nvars >= 6 ? ~0ull : ((1ull << (1u << nvars)) - 1);
}

bool tt_bit(const words& t, std::size_t row) {
    return ((t[row >> 6] >> (row & 63)) & 1ull) != 0;
}

void tt_assign(words& t, std::size_t row, bool value) {
    if (value) {
        t[row >> 6] |= 1ull << (row & 63);
    } else {
        t[row >> 6] &= ~(1ull << (row & 63));
    }
}

words tt_const(std::uint32_t nvars, bool value) {
    words t(tt_words(nvars), value ? ~0ull : 0ull);
    if (value) { t.back() &= tt_tail_mask(nvars); }
    return t;
}

words tt_var(std::uint32_t nvars, std::uint32_t v) {
    words t = tt_const(nvars, false);
    for (std::size_t r = 0; r < tt_rows(nvars); ++r) {
        tt_assign(t, r, ((r >> v) & 1) != 0);
    }
    return t;
}

words tt_not(const words& a, std::uint32_t nvars) {
    words t(a.size());
    for (std::size_t k = 0; k < a.size(); ++k) { t[k] = ~a[k]; }
    t.back() &= tt_tail_mask(nvars);
    return t;
}

words tt_bin(const words& a, const words& b, int op) {
    words t(a.size());
    for (std::size_t k = 0; k < a.size(); ++k) {
        t[k] = op == 0 ? (a[k] & b[k]) : op == 1 ? (a[k] | b[k])
                                                 : (a[k] ^ b[k]);
    }
    return t;
}

words tt_ite(const words& f, const words& g, const words& h,
             std::uint32_t nvars) {
    words t(f.size());
    for (std::size_t k = 0; k < f.size(); ++k) {
        t[k] = (f[k] & g[k]) | (~f[k] & h[k]);
    }
    t.back() &= tt_tail_mask(nvars);
    return t;
}

/// Smooth (existential) or consense (universal) over one variable.
words tt_quant1(const words& a, std::uint32_t nvars, std::uint32_t v,
                bool universal) {
    words t = a;
    for (std::size_t r = 0; r < tt_rows(nvars); ++r) {
        const bool b0 = tt_bit(a, r & ~(std::size_t{1} << v));
        const bool b1 = tt_bit(a, r | (std::size_t{1} << v));
        tt_assign(t, r, universal ? (b0 && b1) : (b0 || b1));
    }
    return t;
}

words tt_quant(const words& a, std::uint32_t nvars,
               const std::vector<std::uint32_t>& vars, bool universal) {
    words t = a;
    for (const std::uint32_t v : vars) { t = tt_quant1(t, nvars, v, universal); }
    return t;
}

/// Substitute g for variable v in f.
words tt_compose(const words& f, std::uint32_t v, const words& g,
                 std::uint32_t nvars) {
    words t = tt_const(nvars, false);
    for (std::size_t r = 0; r < tt_rows(nvars); ++r) {
        const std::size_t rr = tt_bit(g, r)
                                   ? (r | (std::size_t{1} << v))
                                   : (r & ~(std::size_t{1} << v));
        tt_assign(t, r, tt_bit(f, rr));
    }
    return t;
}

/// Rename variable v to perm[v] in f: result(x) = f(x[perm[0]], ...).
words tt_permute(const words& f, const std::vector<std::uint32_t>& perm,
                 std::uint32_t nvars) {
    words t = tt_const(nvars, false);
    for (std::size_t r = 0; r < tt_rows(nvars); ++r) {
        std::size_t rr = 0;
        for (std::uint32_t v = 0; v < nvars; ++v) {
            if ((r >> perm[v]) & 1) { rr |= std::size_t{1} << v; }
        }
        tt_assign(t, r, tt_bit(f, rr));
    }
    return t;
}

std::size_t tt_count(const words& a) {
    std::size_t n = 0;
    for (const std::uint64_t w : a) {
        n += static_cast<std::size_t>(__builtin_popcountll(w));
    }
    return n;
}

// ---------------------------------------------------------------------------
// agreement + canonicity checks
// ---------------------------------------------------------------------------

/// Pointwise agreement between a BDD and its oracle table.
void expect_matches(bdd_manager& mgr, const bdd& f, const words& t,
                    std::uint32_t nvars, const char* what) {
    std::vector<bool> a(nvars);
    for (std::size_t r = 0; r < tt_rows(nvars); ++r) {
        for (std::uint32_t v = 0; v < nvars; ++v) { a[v] = ((r >> v) & 1) != 0; }
        ASSERT_EQ(mgr.eval(f, a), tt_bit(t, r))
            << what << ": disagrees with the oracle at row " << r;
    }
}

void expect_canonicity(bdd_manager& mgr, const bdd& f, const bdd& g,
                       std::uint32_t nvars) {
    // double negation restores the handle exactly
    ASSERT_EQ((!(!f)).index(), f.index());
    // De Morgan and xor-complement forms are handle-identical
    ASSERT_EQ((!(f & g)).index(), ((!f) | (!g)).index());
    ASSERT_EQ((!(f | g)).index(), ((!f) & (!g)).index());
    ASSERT_EQ((f ^ mgr.one()).index(), (!f).index());
    // f and !f share every node
    ASSERT_EQ(mgr.dag_size(f), mgr.dag_size(!f));
    // complementary sat counts
    ASSERT_DOUBLE_EQ(mgr.sat_count(f, nvars) + mgr.sat_count(!f, nvars),
                     std::pow(2.0, nvars));
    expect_regular_then_edges(f);
}

// ---------------------------------------------------------------------------
// random expression DAGs
// ---------------------------------------------------------------------------

struct oracle_params {
    unsigned seed;
    std::uint32_t min_vars;
    std::uint32_t max_vars;
    std::size_t ops;
};

void run_expression_dag(const oracle_params& p) {
    SCOPED_TRACE("seed " + std::to_string(p.seed) +
                 " (replay: LEQ_TEST_SEED=" + std::to_string(p.seed) + ")");
    std::mt19937 rng(p.seed * 2654435761u + 13);
    std::uniform_int_distribution<std::uint32_t> pick_nvars(p.min_vars,
                                                            p.max_vars);
    const std::uint32_t nvars = pick_nvars(rng);
    bdd_manager mgr(nvars);

    // seed pool: literals of both phases and the constants
    std::vector<std::pair<bdd, words>> pool;
    pool.emplace_back(mgr.zero(), tt_const(nvars, false));
    pool.emplace_back(mgr.one(), tt_const(nvars, true));
    for (std::uint32_t v = 0; v < nvars; ++v) {
        pool.emplace_back(mgr.var(v), tt_var(nvars, v));
        pool.emplace_back(mgr.nvar(v),
                          tt_not(tt_var(nvars, v), nvars));
    }

    const auto pick = [&]() -> const std::pair<bdd, words>& {
        std::uniform_int_distribution<std::size_t> d(0, pool.size() - 1);
        return pool[d(rng)];
    };
    const auto pick_vars = [&](std::size_t count) {
        std::vector<std::uint32_t> vars(nvars);
        std::iota(vars.begin(), vars.end(), 0u);
        std::shuffle(vars.begin(), vars.end(), rng);
        vars.resize(std::min(count, vars.size()));
        return vars;
    };

    for (std::size_t step = 0; step < p.ops; ++step) {
        std::uniform_int_distribution<int> pick_op(0, 9);
        const int op = pick_op(rng);
        bdd f;
        words t;
        switch (op) {
        case 0:
        case 1:
        case 2: { // and / or / xor
            const auto& [af, at] = pick();
            const auto& [bf, bt] = pick();
            f = op == 0 ? (af & bf) : op == 1 ? (af | bf) : (af ^ bf);
            t = tt_bin(at, bt, op);
            break;
        }
        case 3: { // not
            const auto& [af, at] = pick();
            f = !af;
            t = tt_not(at, nvars);
            break;
        }
        case 4: { // ite
            const auto& [af, at] = pick();
            const auto& [bf, bt] = pick();
            const auto& [cf, ct] = pick();
            f = mgr.ite(af, bf, cf);
            t = tt_ite(at, bt, ct, nvars);
            break;
        }
        case 5: { // exists
            const auto& [af, at] = pick();
            const auto vars = pick_vars(1 + rng() % 3);
            f = mgr.exists(af, mgr.cube(vars));
            t = tt_quant(at, nvars, vars, false);
            break;
        }
        case 6: { // forall
            const auto& [af, at] = pick();
            const auto vars = pick_vars(1 + rng() % 3);
            f = mgr.forall(af, mgr.cube(vars));
            t = tt_quant(at, nvars, vars, true);
            break;
        }
        case 7: { // relational product
            const auto& [af, at] = pick();
            const auto& [bf, bt] = pick();
            const auto vars = pick_vars(1 + rng() % 3);
            f = mgr.and_exists(af, bf, mgr.cube(vars));
            t = tt_quant(tt_bin(at, bt, 0), nvars, vars, false);
            // the fused form must equal the two-step form exactly
            ASSERT_EQ(f.index(),
                      mgr.exists(af & bf, mgr.cube(vars)).index());
            break;
        }
        case 8: { // compose (substitution)
            const auto& [af, at] = pick();
            const auto& [bf, bt] = pick();
            const std::uint32_t v = rng() % nvars;
            f = mgr.compose(af, v, bf);
            t = tt_compose(at, v, bt, nvars);
            break;
        }
        default: { // permute: swap two variables
            const auto& [af, at] = pick();
            std::vector<std::uint32_t> perm(nvars);
            std::iota(perm.begin(), perm.end(), 0u);
            const std::uint32_t a = rng() % nvars;
            const std::uint32_t b = rng() % nvars;
            std::swap(perm[a], perm[b]);
            f = mgr.permute(af, perm);
            t = tt_permute(at, perm, nvars);
            break;
        }
        }
        ASSERT_NO_FATAL_FAILURE(
            expect_matches(mgr, f, t, nvars, "dag step"));
        // sat_count against popcount on every step
        ASSERT_DOUBLE_EQ(mgr.sat_count(f, nvars),
                         static_cast<double>(tt_count(t)));
        pool.emplace_back(std::move(f), std::move(t));
    }

    // canonicity sweep over a handful of random pool members
    for (int k = 0; k < 6; ++k) {
        const bdd f = pick().first;
        const bdd g = pick().first;
        ASSERT_NO_FATAL_FAILURE(expect_canonicity(mgr, f, g, nvars));
    }
    mgr.check_consistency();
    mgr.collect_garbage();
    mgr.check_consistency();
}

class oracle_small : public ::testing::TestWithParam<unsigned> {};

/// 160 DAGs over 4..8 variables, 24 operations each.
TEST_P(oracle_small, random_dag_agrees_with_truth_tables) {
    run_expression_dag({leq::test_seed(GetParam()), 4, 8, 24});
}

INSTANTIATE_TEST_SUITE_P(seeds, oracle_small, ::testing::Range(0u, 160u));

class oracle_wide : public ::testing::TestWithParam<unsigned> {};

/// 40 DAGs over 9..12 variables, 12 operations each (4096-row tables).
TEST_P(oracle_wide, random_dag_agrees_with_truth_tables) {
    run_expression_dag({leq::test_seed(GetParam()), 9, 12, 12});
}

INSTANTIATE_TEST_SUITE_P(seeds, oracle_wide, ::testing::Range(1000u, 1040u));

// ---------------------------------------------------------------------------
// directed canonicity cases
// ---------------------------------------------------------------------------

TEST(oracle_canonicity, constants_and_literals) {
    bdd_manager m(6);
    EXPECT_EQ((!m.zero()).index(), m.one().index());
    EXPECT_EQ((!m.one()).index(), m.zero().index());
    for (std::uint32_t v = 0; v < 6; ++v) {
        EXPECT_EQ((!m.var(v)).index(), m.nvar(v).index());
        EXPECT_EQ((!m.nvar(v)).index(), m.var(v).index());
        // a literal and its negation are the same node, opposite phase
        EXPECT_EQ(m.var(v).index() ^ 1u, m.nvar(v).index());
    }
    m.check_consistency();
}

TEST(oracle_canonicity, negation_is_node_free) {
    bdd_manager m(16);
    bdd f = m.one();
    for (std::uint32_t v = 0; v + 1 < 16; v += 2) {
        f &= (m.var(v) | m.var(v + 1));
    }
    const std::size_t before_nodes = m.live_node_count();
    const auto before_lookups = m.stats().cache_lookups;
    std::vector<bdd> negs;
    for (int k = 0; k < 1000; ++k) { negs.push_back(!f); }
    // O(1) contract: no new nodes, no cache traffic
    EXPECT_EQ(m.live_node_count(), before_nodes);
    EXPECT_EQ(m.stats().cache_lookups, before_lookups);
    EXPECT_EQ(negs.front(), negs.back());
}

TEST(oracle_canonicity, unique_table_survives_rehash_growth) {
    // drive the arena through several unique-table rehashes (growth doublings
    // at 4k/8k/16k/... nodes) while holding everything live, and verify after
    // each one that every reachable node is still findable through the table
    // — a chain-corrupting rehash would mint duplicate nodes and break
    // reference canonicity
    // distinct literal cubes build through mk() alone (no computed-cache
    // short-circuit), so a table-orphaned node would deterministically
    // surface as a duplicate — and a different handle — on re-derivation
    bdd_manager m(26);
    const auto build_cube = [&m](std::uint32_t seed) {
        std::mt19937 rng(seed);
        std::vector<std::uint32_t> vars(26);
        std::iota(vars.begin(), vars.end(), 0u);
        std::shuffle(vars.begin(), vars.end(), rng);
        bdd c = m.one();
        for (std::size_t k = 0; k < 8; ++k) {
            c &= m.literal(vars[k], (rng() & 1) != 0);
        }
        return c;
    };
    std::vector<bdd> keep;
    for (std::uint32_t s = 0; s < 3000; ++s) {
        keep.push_back(build_cube(s));
        if (s % 512 == 511) { m.check_consistency(); }
    }
    m.check_consistency();
    for (std::uint32_t s = 0; s < 3000; s += 7) {
        ASSERT_EQ(build_cube(s), keep[s]) << "cube " << s
            << " re-derived to a different handle: canonicity broken";
    }
    m.collect_garbage();
    m.check_consistency();
}

TEST(oracle_canonicity, shared_phases_across_operations) {
    bdd_manager m(8);
    const bdd f = (m.var(0) & m.var(1)) | (m.var(2) ^ m.var(3));
    const bdd g = (m.var(4) | m.var(5)) & (m.var(6) ^ !m.var(7));
    // the same function reached through complementary routes
    EXPECT_EQ(m.ite(f, g, m.zero()).index(), (f & g).index());
    EXPECT_EQ(m.ite(f, m.one(), g).index(), (f | g).index());
    EXPECT_EQ(m.ite(f, !g, g).index(), (f ^ g).index());
    EXPECT_EQ(m.ite(!f, g, !g).index(), (f ^ g).index());
    EXPECT_EQ(f.implies(g).index(), (!(f & !g)).index());
    m.check_consistency();
}

// ---------------------------------------------------------------------------
// the cached rename: permute memoizes in the computed cache under a
// per-manager permutation token
// ---------------------------------------------------------------------------

/// Variables laid out like the solver's order: interleaved u/v pairs on
/// top, then interleaved cs/ns pairs (cs_k directly above ns_k).
struct rename_layout {
    static constexpr std::uint32_t nvars = 10;
    std::vector<std::uint32_t> uv{0, 1, 2, 3};
    std::vector<std::uint32_t> cs{4, 6, 8};
    std::vector<std::uint32_t> ns{5, 7, 9};

    [[nodiscard]] std::vector<std::uint32_t> identity() const {
        std::vector<std::uint32_t> perm(nvars);
        std::iota(perm.begin(), perm.end(), 0u);
        return perm;
    }
    /// The solver's cs<->ns swap: keeps the order on functions over ns.
    [[nodiscard]] std::vector<std::uint32_t> ns_cs_swap() const {
        std::vector<std::uint32_t> perm = identity();
        for (std::size_t k = 0; k < cs.size(); ++k) {
            perm[cs[k]] = ns[k];
            perm[ns[k]] = cs[k];
        }
        return perm;
    }
    /// The u<->v swap (u_m and v_m are adjacent, u_m on top).
    [[nodiscard]] std::vector<std::uint32_t> uv_swap() const {
        std::vector<std::uint32_t> perm = identity();
        for (std::size_t m = 0; m + 1 < uv.size(); m += 2) {
            std::swap(perm[uv[m]], perm[uv[m + 1]]);
        }
        return perm;
    }
};

/// A random function over `vars` together with its oracle table.
std::pair<bdd, words> random_function(bdd_manager& mgr, std::mt19937& rng,
                                      const std::vector<std::uint32_t>& vars,
                                      std::uint32_t nvars) {
    const auto literal = [&]() -> std::pair<bdd, words> {
        const std::uint32_t v = vars[rng() % vars.size()];
        if ((rng() & 1) != 0) { return {mgr.var(v), tt_var(nvars, v)}; }
        return {mgr.nvar(v), tt_not(tt_var(nvars, v), nvars)};
    };
    auto [f, t] = literal();
    for (int k = 0; k < 10; ++k) {
        const auto [g, u] = literal();
        const int op = static_cast<int>(rng() % 3);
        f = op == 0 ? (f & g) : op == 1 ? (f | g) : (f ^ g);
        t = tt_bin(t, u, op);
    }
    return {f, t};
}

std::size_t op_index(const char* name) {
    for (std::size_t k = 0; k < leq::bdd_num_ops; ++k) {
        if (std::string(leq::bdd_op_name(k)) == name) { return k; }
    }
    ADD_FAILURE() << "no cached op named " << name;
    return 0;
}

/// Lookups and hits of one cached op (or of the ITE family that the
/// rename's fallback rebuilds through) between two snapshots.
struct op_traffic {
    std::size_t lookups = 0;
    std::size_t hits = 0;
};

op_traffic traffic_since(const leq::bdd_stats& before,
                         const leq::bdd_stats& after,
                         std::initializer_list<const char*> ops) {
    op_traffic t;
    for (const char* name : ops) {
        const std::size_t k = op_index(name);
        t.lookups += after.op_lookups[k] - before.op_lookups[k];
        t.hits += after.op_hits[k] - before.op_hits[k];
    }
    return t;
}

TEST(cached_rename, ns_cs_and_uv_swaps_interleaved_never_alias) {
    const rename_layout layout;
    const std::uint32_t n = rename_layout::nvars;
    const auto ns_cs = layout.ns_cs_swap();
    const auto uv = layout.uv_swap();
    std::vector<std::uint32_t> all(n);
    std::iota(all.begin(), all.end(), 0u);
    for (unsigned round = 0; round < 8; ++round) {
        const unsigned seed = leq::test_seed(round);
        SCOPED_TRACE("seed " + std::to_string(seed));
        std::mt19937 rng(seed);
        bdd_manager mgr(n);
        // both renamings of every function, alternating which goes first:
        // an entry keyed without the permutation would hand one swap's
        // result to the other
        for (int k = 0; k < 6; ++k) {
            const auto [f, t] = random_function(mgr, rng, all, n);
            const bool ns_first = (k % 2) == 0;
            for (int pass = 0; pass < 2; ++pass) {
                const auto& perm = (pass == 0) == ns_first ? ns_cs : uv;
                const bdd r = mgr.permute(f, perm);
                ASSERT_NO_FATAL_FAILURE(expect_matches(
                    mgr, r, tt_permute(t, perm, n), n, "rename"));
            }
            // a composed rename goes through both tokens again
            const bdd both = mgr.permute(mgr.permute(f, uv), ns_cs);
            ASSERT_NO_FATAL_FAILURE(expect_matches(
                mgr, both, tt_permute(tt_permute(t, uv, n), ns_cs, n), n,
                "uv then ns->cs"));
            // the swaps are involutions: renaming back restores the handle
            EXPECT_EQ(mgr.permute(mgr.permute(f, ns_cs), ns_cs), f);
            EXPECT_EQ(mgr.permute(mgr.permute(f, uv), uv), f);
        }
        mgr.check_consistency();
    }
}

TEST(cached_rename, order_keeping_rename_builds_with_mk_alone) {
    // a successor leaf lives over ns only; renaming it to cs keeps the
    // order, so the rename must never fall back to ITE
    const rename_layout layout;
    const std::uint32_t n = rename_layout::nvars;
    std::mt19937 rng(leq::test_seed(11));
    bdd_manager mgr(n);
    for (int k = 0; k < 8; ++k) {
        const auto [leaf, t] = random_function(mgr, rng, layout.ns, n);
        const leq::bdd_stats before = mgr.stats();
        const bdd r = mgr.permute(leaf, layout.ns_cs_swap());
        const op_traffic ite = traffic_since(before, mgr.stats(),
                                             {"ite", "and", "xor"});
        EXPECT_EQ(ite.lookups, 0u) << "leaf " << k;
        ASSERT_NO_FATAL_FAILURE(expect_matches(
            mgr, r, tt_permute(t, layout.ns_cs_swap(), n), n, "leaf rename"));
    }
}

TEST(cached_rename, order_breaking_rename_falls_back_to_ite) {
    // reversing the order moves every renamed variable below its children:
    // the mk fast path cannot apply and the ITE rebuild must run
    const std::uint32_t n = 8;
    std::vector<std::uint32_t> reverse(n);
    std::vector<std::uint32_t> all(n);
    for (std::uint32_t v = 0; v < n; ++v) {
        reverse[v] = n - 1 - v;
        all[v] = v;
    }
    std::mt19937 rng(leq::test_seed(12));
    bdd_manager mgr(n);
    std::size_t fallback_lookups = 0;
    for (int k = 0; k < 8; ++k) {
        const auto [f, t] = random_function(mgr, rng, all, n);
        const leq::bdd_stats before = mgr.stats();
        const bdd r = mgr.permute(f, reverse);
        fallback_lookups +=
            traffic_since(before, mgr.stats(), {"ite", "and", "xor"}).lookups;
        ASSERT_NO_FATAL_FAILURE(expect_matches(
            mgr, r, tt_permute(t, reverse, n), n, "reversed rename"));
        EXPECT_EQ(mgr.permute(r, reverse), f);
    }
    EXPECT_GT(fallback_lookups, 0u);
    mgr.check_consistency();
}

TEST(cached_rename, f_and_not_f_share_one_entry) {
    const rename_layout layout;
    const std::uint32_t n = rename_layout::nvars;
    std::vector<std::uint32_t> all(n);
    std::iota(all.begin(), all.end(), 0u);
    std::mt19937 rng(leq::test_seed(13));
    bdd_manager mgr(n);
    const auto [f, t] = random_function(mgr, rng, all, n);
    const bdd r = mgr.permute(f, layout.uv_swap());
    const leq::bdd_stats before = mgr.stats();
    const bdd nr = mgr.permute(!f, layout.uv_swap());
    // one probe, at the root, and it hits the entry f stored
    const op_traffic p = traffic_since(before, mgr.stats(), {"permute"});
    EXPECT_EQ(p.lookups, 1u);
    EXPECT_EQ(p.hits, 1u);
    EXPECT_EQ(nr, !r);
    ASSERT_NO_FATAL_FAILURE(expect_matches(
        mgr, nr, tt_not(tt_permute(t, layout.uv_swap(), n), n), n,
        "complemented rename"));
}

TEST(cached_rename, repeated_across_gc_with_recycled_nodes) {
    const rename_layout layout;
    const std::uint32_t n = rename_layout::nvars;
    const auto ns_cs = layout.ns_cs_swap();
    const auto uv = layout.uv_swap();
    std::vector<std::uint32_t> all(n);
    std::iota(all.begin(), all.end(), 0u);
    std::mt19937 rng(leq::test_seed(14));
    bdd_manager mgr(n);
    // node 1 is the first node allocated; let it die so a purge that read
    // the token slot of the third permutation (token 2 -> node_of 1) as a
    // reference would drop live entries
    { const bdd first = mgr.var(n - 1); }
    const std::vector<std::uint32_t> third = [&layout] {
        std::vector<std::uint32_t> perm = layout.identity();
        std::swap(perm[0], perm[2]); // u0 <-> u1
        return perm;
    }();
    (void)mgr.permute(mgr.var(0), ns_cs);
    (void)mgr.permute(mgr.var(0), uv);
    std::vector<std::uint32_t> no_last(all.begin(), all.end() - 1);
    const auto [kept, kept_t] = random_function(mgr, rng, no_last, n);
    const bdd kept_r = mgr.permute(kept, third);

    // garbage: functions and renames that die before the collection, more
    // of them than the rounds below hold live at once
    for (int k = 0; k < 60; ++k) {
        const auto [g, gt] = random_function(mgr, rng, all, n);
        (void)mgr.permute(g, (k % 2) == 0 ? ns_cs : uv);
    }
    mgr.collect_garbage();
    const std::size_t arena = mgr.stats().allocated_nodes;

    // the held rename survived the purge: one root probe, one hit
    const leq::bdd_stats before = mgr.stats();
    EXPECT_EQ(mgr.permute(kept, third), kept_r);
    const op_traffic p = traffic_since(before, mgr.stats(), {"permute"});
    EXPECT_EQ(p.lookups, 1u);
    EXPECT_EQ(p.hits, 1u);

    // fresh functions reuse the swept indices; any stale entry keyed on
    // (or resolving to) a recycled node would break the oracle here
    for (int round = 0; round < 3; ++round) {
        std::vector<std::pair<bdd, words>> live;
        for (int k = 0; k < 12; ++k) {
            live.push_back(random_function(mgr, rng, all, n));
        }
        for (const auto& [g, gt] : live) {
            for (const auto* perm : {&ns_cs, &uv, &third}) {
                const bdd r = mgr.permute(g, *perm);
                ASSERT_NO_FATAL_FAILURE(expect_matches(
                    mgr, r, tt_permute(gt, *perm, n), n, "post-GC rename"));
            }
        }
        mgr.collect_garbage();
        mgr.check_consistency();
    }
    // the swept nodes were recycled rather than appended
    EXPECT_EQ(mgr.stats().allocated_nodes, arena);
    ASSERT_NO_FATAL_FAILURE(expect_matches(
        mgr, mgr.permute(kept, third), tt_permute(kept_t, third, n), n,
        "held rename"));
}

} // namespace
