/// \file test_bench.cpp
/// \brief The pinned benchmark trajectory stays trustworthy: workloads are
/// deterministic, the JSON schema round-trips, the compare gate fails on
/// genuine regressions (and only those), the checked-in corpus is
/// byte-identical to what the generators produce, the checked-in
/// BENCH_PR10.json baseline still parses with its before/after and Table 1
/// rows, and the Table 1 report fails its run when a check fails.
///
/// Compiled with LEQ_SOURCE_DIR pointing at the repo root so the suite can
/// read bench/corpus/ and BENCH_PR10.json.

#include "cli/bench.hpp"
#include "gen/scenario.hpp"
#include "net/blif.hpp"
#include "net/generator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>

namespace {

using namespace leq;

std::string repo_file(const std::string& relative) {
    const std::string path = std::string(LEQ_SOURCE_DIR) + "/" + relative;
    std::ifstream in(path, std::ios::binary);
    if (!in) { return {}; }
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/// A small synthetic report exercising one metric of every gated kind.
bench_report make_base_report() {
    bench_report report;
    bench_row row;
    row.workload = "solve/synthetic";
    row.seconds = 1.5;
    row.metrics = {{"cache_lookups", 100000.0},
                   {"cache_hit_rate", 0.5},
                   {"csf_states", 4.0},
                   {"cache_entries", 262144.0}};
    report.rows.push_back(row);
    return report;
}

// ---------------------------------------------------------------------------
// metric policies
// ---------------------------------------------------------------------------

TEST(bench_policy, directions_match_the_documented_gate) {
    EXPECT_EQ(bench_metric_policy("seconds").direction,
              metric_direction::info);
    EXPECT_EQ(bench_metric_policy("cache_entries").direction,
              metric_direction::info);
    EXPECT_EQ(bench_metric_policy("cache_lookups").direction,
              metric_direction::up_bad);
    EXPECT_EQ(bench_metric_policy("gc_runs").direction,
              metric_direction::up_bad);
    EXPECT_EQ(bench_metric_policy("allocated_nodes").direction,
              metric_direction::up_bad);
    EXPECT_EQ(bench_metric_policy("cache_hit_rate").direction,
              metric_direction::down_bad);
    EXPECT_EQ(bench_metric_policy("csf_states").direction,
              metric_direction::exact);
    EXPECT_EQ(bench_metric_policy("reach_states").direction,
              metric_direction::exact);
    EXPECT_EQ(bench_metric_policy("batch_solved").direction,
              metric_direction::exact);
    // unknown names are recorded but never gated
    EXPECT_EQ(bench_metric_policy("some_future_metric").direction,
              metric_direction::info);
}

TEST(bench_policy, cache_misses_are_derived_and_gated_on_absolute_work) {
    // a change that drops mostly-hitting lookups lowers the hit rate while
    // the work falls; misses (lookups x (1 - hit rate)) are the work that
    // stays, and the gate derives them from the two stored fields
    const metric_policy misses = bench_metric_policy("cache_misses");
    EXPECT_EQ(misses.direction, metric_direction::up_bad);
    EXPECT_DOUBLE_EQ(misses.rel_tol, 0.10);
    EXPECT_DOUBLE_EQ(misses.abs_slack, 1000.0);

    const auto report = [](double lookups, double hit_rate) {
        bench_report r;
        bench_row row;
        row.workload = "solve/synthetic";
        row.metrics = {{"cache_lookups", lookups},
                       {"cache_hit_rate", hit_rate}};
        r.rows.push_back(row);
        return r;
    };
    // 20000 misses in the baseline
    const bench_report base = report(100000.0, 0.8);
    // within 10% + 1000: 22900 misses
    EXPECT_TRUE(compare_bench_reports(base, report(100000.0, 0.771)).ok());
    // past it: 23100 misses on the same lookups
    const bench_compare_result result =
        compare_bench_reports(base, report(100000.0, 0.769));
    ASSERT_EQ(result.regressions.size(), 1u);
    EXPECT_EQ(result.regressions[0].metric, "cache_misses");
    EXPECT_NEAR(result.regressions[0].base, 20000.0, 1e-6);
    EXPECT_NEAR(result.regressions[0].limit, 23000.0, 1e-6);
    // fewer misses is never a regression, even when the hit rate falls by
    // more than its own budget: lookups fell from 100000 to 25000 and the
    // rate from 0.8 to 0.4, leaving 15000 misses
    const bench_compare_result fewer =
        compare_bench_reports(base, report(25000.0, 0.4));
    ASSERT_EQ(fewer.regressions.size(), 1u);
    EXPECT_EQ(fewer.regressions[0].metric, "cache_hit_rate");
}

// ---------------------------------------------------------------------------
// JSON round trip
// ---------------------------------------------------------------------------

TEST(bench_json, report_round_trips_through_json) {
    const bench_report before = make_base_report();
    const std::string json = bench_report_to_json(before);
    const bench_report after = parse_bench_report(json);
    EXPECT_EQ(after.schema, before.schema);
    ASSERT_EQ(after.rows.size(), before.rows.size());
    EXPECT_EQ(after.rows[0].workload, before.rows[0].workload);
    EXPECT_DOUBLE_EQ(after.rows[0].seconds, before.rows[0].seconds);
    ASSERT_EQ(after.rows[0].metrics.size(), before.rows[0].metrics.size());
    for (std::size_t k = 0; k < before.rows[0].metrics.size(); ++k) {
        EXPECT_EQ(after.rows[0].metrics[k].name,
                  before.rows[0].metrics[k].name);
        EXPECT_DOUBLE_EQ(after.rows[0].metrics[k].value,
                         before.rows[0].metrics[k].value);
    }
    // serialization is byte-deterministic
    EXPECT_EQ(bench_report_to_json(after), json);
}

TEST(bench_json, parser_rejects_garbage_and_wrong_schema) {
    EXPECT_THROW((void)parse_bench_report("not json"), std::runtime_error);
    EXPECT_THROW((void)parse_bench_report("{}"), std::runtime_error);
    EXPECT_THROW((void)parse_bench_report(
                     R"({"schema":"something-else","rows":[]})"),
                 std::runtime_error);
}

// ---------------------------------------------------------------------------
// the compare gate
// ---------------------------------------------------------------------------

TEST(bench_compare, identical_reports_pass) {
    const bench_report base = make_base_report();
    const bench_compare_result result = compare_bench_reports(base, base);
    EXPECT_TRUE(result.ok()) << to_string(result);
}

TEST(bench_compare, small_drift_within_budget_passes) {
    const bench_report base = make_base_report();
    bench_report current = base;
    current.rows[0].metrics[0].value = 105000.0; // +5% < 10% budget
    current.rows[0].metrics[1].value = 0.49;     // -0.01 within slack
    const bench_compare_result result = compare_bench_reports(base, current);
    EXPECT_TRUE(result.ok()) << to_string(result);
}

TEST(bench_compare, up_bad_metric_over_budget_fails) {
    const bench_report base = make_base_report();
    bench_report current = base;
    current.rows[0].metrics[0].value = 120000.0; // +20% cache lookups
    const bench_compare_result result = compare_bench_reports(base, current);
    // at an unchanged hit rate the derived misses grow by 20% too
    ASSERT_EQ(result.regressions.size(), 2u) << to_string(result);
    EXPECT_EQ(result.regressions[0].workload, "solve/synthetic");
    EXPECT_EQ(result.regressions[0].metric, "cache_lookups");
    EXPECT_EQ(result.regressions[1].metric, "cache_misses");
    EXPECT_NE(to_string(result).find("cache_lookups"), std::string::npos);
}

TEST(bench_compare, down_bad_metric_under_budget_fails) {
    const bench_report base = make_base_report();
    bench_report current = base;
    current.rows[0].metrics[1].value = 0.3; // hit rate collapse
    const bench_compare_result result = compare_bench_reports(base, current);
    // on unchanged lookups the collapse is also 40% more misses
    ASSERT_EQ(result.regressions.size(), 2u) << to_string(result);
    EXPECT_EQ(result.regressions[0].metric, "cache_hit_rate");
    EXPECT_EQ(result.regressions[1].metric, "cache_misses");
}

TEST(bench_compare, exact_metric_drift_fails) {
    const bench_report base = make_base_report();
    bench_report current = base;
    current.rows[0].metrics[2].value = 5.0; // csf_states is pinned
    const bench_compare_result result = compare_bench_reports(base, current);
    ASSERT_EQ(result.regressions.size(), 1u) << to_string(result);
    EXPECT_EQ(result.regressions[0].metric, "csf_states");
}

TEST(bench_compare, info_metric_drift_is_ignored) {
    const bench_report base = make_base_report();
    bench_report current = base;
    current.rows[0].seconds = 100.0;             // wall clock: never gated
    current.rows[0].metrics[3].value = 1048576.0; // cache geometry: info
    const bench_compare_result result = compare_bench_reports(base, current);
    EXPECT_TRUE(result.ok()) << to_string(result);
}

TEST(bench_compare, lost_workload_coverage_fails) {
    const bench_report base = make_base_report();
    const bench_report current; // empty run
    const bench_compare_result result = compare_bench_reports(base, current);
    EXPECT_FALSE(result.ok());
}

TEST(bench_compare, lost_gated_metric_fails) {
    const bench_report base = make_base_report();
    bench_report current = base;
    current.rows[0].metrics.erase(current.rows[0].metrics.begin()); // drop cache_lookups
    const bench_compare_result result = compare_bench_reports(base, current);
    EXPECT_FALSE(result.ok());
}

TEST(bench_compare, new_workload_is_a_note_not_a_failure) {
    const bench_report base = make_base_report();
    bench_report current = base;
    bench_row extra;
    extra.workload = "solve/new_coverage";
    current.rows.push_back(extra);
    const bench_compare_result result = compare_bench_reports(base, current);
    EXPECT_TRUE(result.ok()) << to_string(result);
    EXPECT_FALSE(result.notes.empty());
}

// ---------------------------------------------------------------------------
// workloads
// ---------------------------------------------------------------------------

TEST(bench_workloads, ids_are_stable_and_unknown_ids_throw) {
    const std::vector<std::string> names = bench_workload_names();
    ASSERT_FALSE(names.empty());
    for (const char* expected :
         {"solve/counter_x256", "reach/mix26", "batch/families",
          "reach/chain", "reach/chain/bfs", "reach/lfsr14",
          "reach/lfsr14/bfs",
          "reach/wide_frontier", "table1/s349", "table1/s444",
          "table1/s298/monolithic"}) {
        EXPECT_NE(std::find(names.begin(), names.end(), expected),
                  names.end())
            << expected;
    }
    EXPECT_THROW((void)run_bench_workload("no/such/workload"),
                 std::invalid_argument);
}

TEST(bench_workloads, reach_workload_is_deterministic_across_runs) {
    const bench_row first = run_bench_workload("reach/mix26");
    const bench_row second = run_bench_workload("reach/mix26");
    ASSERT_EQ(first.metrics.size(), second.metrics.size());
    for (std::size_t k = 0; k < first.metrics.size(); ++k) {
        EXPECT_EQ(first.metrics[k].name, second.metrics[k].name);
        EXPECT_DOUBLE_EQ(first.metrics[k].value, second.metrics[k].value)
            << first.metrics[k].name;
    }
}

// ---------------------------------------------------------------------------
// gen scale semantics the workloads rely on
// ---------------------------------------------------------------------------

TEST(bench_gen_scale, scale_one_is_byte_identical_to_legacy_output) {
    // fuzz reproducers and pinned baselines depend on scale=1 being the
    // exact historical generator output, for every family
    for (const scenario_family family : all_scenario_families) {
        const scenario legacy = make_scenario(family, 5);
        const scenario scaled = make_scenario(family, 5, 1);
        EXPECT_EQ(legacy.name, scaled.name);
        EXPECT_EQ(write_blif_string(legacy.fixed),
                  write_blif_string(scaled.fixed))
            << legacy.name;
        EXPECT_EQ(write_blif_string(legacy.spec),
                  write_blif_string(scaled.spec))
            << legacy.name;
    }
}

TEST(bench_gen_scale, scaling_grows_the_state_space) {
    for (const scenario_family family : all_scenario_families) {
        const scenario small = make_scenario(family, 5, 1);
        const scenario big = make_scenario(family, 5, 16); // +4 state bits
        EXPECT_GT(big.fixed.num_latches(), small.fixed.num_latches())
            << small.name;
        EXPECT_NE(big.name, small.name);
    }
}

// ---------------------------------------------------------------------------
// checked-in artifacts
// ---------------------------------------------------------------------------

TEST(bench_artifacts, corpus_files_match_the_generators_byte_for_byte) {
    const std::vector<bench_corpus_file> corpus = bench_corpus_files();
    ASSERT_FALSE(corpus.empty());
    for (const bench_corpus_file& file : corpus) {
        const std::string checked_in = repo_file("bench/corpus/" + file.name);
        ASSERT_FALSE(checked_in.empty())
            << "bench/corpus/" << file.name
            << " missing — regenerate with leq_bench_run --write-corpus";
        EXPECT_EQ(checked_in, file.text)
            << "bench/corpus/" << file.name
            << " drifted — regenerate with leq_bench_run --write-corpus";
    }
}

TEST(bench_artifacts, checked_in_baseline_parses_and_pins_the_wins) {
    const std::string json = repo_file("BENCH_PR10.json");
    ASSERT_FALSE(json.empty()) << "BENCH_PR10.json missing at the repo root";
    const bench_report baseline = parse_bench_report(json);
    EXPECT_EQ(baseline.schema, "leq-bench-v1");

    // every pinned workload is present, and nothing else is: a row that
    // lingers in a hand-edited baseline would otherwise only surface in
    // the CI-only compare step
    const std::vector<std::string> names = bench_workload_names();
    for (const std::string& name : names) {
        const auto at = std::find_if(
            baseline.rows.begin(), baseline.rows.end(),
            [&name](const bench_row& row) { return row.workload == name; });
        EXPECT_TRUE(at != baseline.rows.end())
            << name << " is a bench workload but not in the baseline";
    }
    for (const bench_row& r : baseline.rows) {
        EXPECT_TRUE(std::find(names.begin(), names.end(), r.workload) !=
                    names.end())
            << r.workload << " is in the baseline but not a bench workload";
    }

    const auto row = [&baseline](const std::string& name) -> const bench_row* {
        const auto at = std::find_if(
            baseline.rows.begin(), baseline.rows.end(),
            [&name](const bench_row& r) { return r.workload == name; });
        return at == baseline.rows.end() ? nullptr : &*at;
    };

    // The frontier fixpoint shows its win over the textbook bfs one.  On
    // both deep-sequential machines — one new state per step, so bfs
    // re-images the whole growing reached set thousands of times — the
    // fixpoint is identical (the reached-state count is pinned equal) and
    // imaging only the frontier must show strictly less cache traffic: a
    // margin on the chain counter (whose compact {0..k} reached sets let
    // the computed cache absorb most of the re-imaging) and a wide one on
    // the LFSR (whose irregular reached set defeats that memoization).
    const auto metric = [&row](const std::string& name,
                               const std::string& which) {
        const bench_row* r = row(name);
        EXPECT_NE(r, nullptr) << name;
        const bench_metric* m = r == nullptr ? nullptr : r->find(which);
        EXPECT_NE(m, nullptr) << name << " " << which;
        return m == nullptr ? 0.0 : m->value;
    };
    for (const std::string pair : {"reach/chain", "reach/lfsr14"}) {
        EXPECT_DOUBLE_EQ(metric(pair, "reach_states"),
                         metric(pair + "/bfs", "reach_states"))
            << pair << ": frontier reached a different fixpoint than bfs";
        EXPECT_LT(metric(pair, "cache_lookups"),
                  metric(pair + "/bfs", "cache_lookups"))
            << pair
            << ": the baseline no longer demonstrates the frontier win";
    }
    // the LFSR pair is the wide-margin case, pinned in cache misses (the
    // work the cache could not absorb, derived as lookups x (1 - hit
    // rate) like the compare gate does): bfs must miss more than 1.5x as
    // often as frontier, or the fixpoint stopped imaging only the frontier
    const auto misses = [&metric](const std::string& name) {
        return metric(name, "cache_lookups") *
               (1.0 - metric(name, "cache_hit_rate"));
    };
    EXPECT_LT(misses("reach/lfsr14") * 1.5, misses("reach/lfsr14/bfs"))
        << "the baseline no longer demonstrates the LFSR frontier win";

    // the paper's Table 1 rows carry the CSF sizes `--table1` prints, and
    // the monolithic baseline agrees with the partitioned flow on s298
    EXPECT_DOUBLE_EQ(metric("table1/s349", "csf_states"), 4069.0);
    EXPECT_DOUBLE_EQ(metric("table1/s444", "csf_states"), 29377.0);
    EXPECT_DOUBLE_EQ(metric("table1/s298/monolithic", "csf_states"), 640.0);
}

// ---------------------------------------------------------------------------
// the Table 1 report
// ---------------------------------------------------------------------------

TEST(bench_table1, report_checks_hold_and_a_failed_check_fails_the_run) {
    // s510 alone: the largest rows cost minutes under the monolithic flow
    std::vector<table1_row> rows;
    for (const table1_instance& inst : make_table1_suite()) {
        if (inst.name == "s510") { rows.push_back(run_table1_row(inst, 60)); }
    }
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].partitioned, solve_status::ok);
    EXPECT_EQ(rows[0].monolithic, solve_status::ok);
    EXPECT_EQ(rows[0].csf_states, 52u);

    std::ostringstream out;
    EXPECT_EQ(write_table1_report(out, rows, 60), 0) << out.str();
    EXPECT_NE(out.str().find("Xp<=X ok, FX<=S ok"), std::string::npos)
        << out.str();
    EXPECT_NE(out.str().find("s510     19/7/6     3/3"), std::string::npos)
        << out.str();

    for (const bool particular : {false, true}) {
        std::vector<table1_row> failed = rows;
        (particular ? failed[0].particular_contained
                    : failed[0].composition_contained) = false;
        std::ostringstream failed_out;
        EXPECT_EQ(write_table1_report(failed_out, failed, 60), 1);
        EXPECT_NE(failed_out.str().find(particular ? "Xp<=X FAIL"
                                                   : "FX<=S FAIL"),
                  std::string::npos)
            << failed_out.str();
    }

    // a flow that gave up reads CNC and runs no check: not a failure
    std::vector<table1_row> gave_up = rows;
    gave_up[0].partitioned = solve_status::timeout;
    gave_up[0].particular_contained = false;
    std::ostringstream gave_up_out;
    EXPECT_EQ(write_table1_report(gave_up_out, gave_up, 60), 0);
    EXPECT_NE(gave_up_out.str().find("CNC"), std::string::npos)
        << gave_up_out.str();
}

// ---------------------------------------------------------------------------
// the delta table
// ---------------------------------------------------------------------------

TEST(bench_delta, table_reports_gated_movement_and_coverage_changes) {
    const bench_report base = make_base_report();
    bench_report current = base;
    current.rows[0].metrics[0].value = 90000.0; // -10% cache_lookups
    bench_row extra;
    extra.workload = "solve/new_coverage";
    current.rows.push_back(extra);
    const std::string table = bench_delta_table(base, current);
    // header + the moved metric with a signed percentage
    EXPECT_NE(table.find("| workload | metric | base | current | delta |"),
              std::string::npos)
        << table;
    EXPECT_NE(table.find("| solve/synthetic | cache_lookups | 100000 | "
                         "90000 | -10% |"),
              std::string::npos)
        << table;
    // unchanged gated metrics render "=", info metrics don't render at all
    EXPECT_NE(table.find("| solve/synthetic | cache_hit_rate | 0.5 | 0.5 "
                         "| = |"),
              std::string::npos)
        << table;
    EXPECT_EQ(table.find("cache_entries"), std::string::npos) << table;
    // coverage changes are visible
    EXPECT_NE(table.find("| solve/new_coverage | _new workload_ |"),
              std::string::npos)
        << table;
}

} // namespace
