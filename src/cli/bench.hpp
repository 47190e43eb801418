/// \file bench.hpp
/// \brief The pinned benchmark trajectory: fixed workloads, a stable JSON
/// schema, and a regression gate.
///
/// The perf story of this codebase is only as good as its ability to notice
/// when a "harmless" change doubles the GC count or halves the cache hit
/// rate.  This module pins a small corpus of large-but-tractable workloads
/// (scaled gen/ scenarios, a structured-mix reachability sweep, a KISS
/// pair with hundreds of explicit states, a mixed batch campaign) and runs
/// them under `tools/leq_bench_run`, emitting one schema-stable JSON report
/// (`leq-bench-v1`).  A checked-in baseline (BENCH_PR10.json at the repo
/// root) plus `leq_bench_run --compare BASE NEW` turn the report into a CI
/// gate: any gated metric that moves the wrong way by more than 10% (plus a
/// small absolute slack) fails the build.
///
/// What makes this workable across machines and compilers is that every
/// *gated* metric is a deterministic work counter read off the BDD manager
/// (cache lookups, hit rate and the misses the gate derives from them, GC
/// runs, allocated nodes) or the solver (subset states, CSF states,
/// reachability depth) — identical on every host.  Wall-clock seconds are
/// recorded for humans but never gated.
///
/// The `reach/*/bfs` rows are the one comparison the trajectory still
/// carries: the deep-sequential reachability workloads under the textbook
/// bfs fixpoint, beside their `reach/*` rows under the shipped frontier
/// fixpoint.  Every other row runs the configuration the solver ships.  The `table1/*` rows are the
/// paper's own experiment; the full Table 1 comparison, monolithic flow
/// and containment checks included, is the `leq_bench_run --table1`
/// report below.
#pragma once

#include "bdd/bdd.hpp"
#include "eq/solver.hpp"
#include "net/generator.hpp"

#include <iosfwd>
#include <string>
#include <vector>

namespace leq {

/// One measured value.  The schema keys metrics by name; `metric_policy`
/// decides which names the compare gate looks at.
struct bench_metric {
    std::string name;
    double value = 0.0;
};

/// One workload's measurements.
struct bench_row {
    std::string workload; ///< stable id, e.g. "solve/counter_x256"
    double seconds = 0.0; ///< wall clock; informational, never gated
    std::vector<bench_metric> metrics;

    /// nullptr when the row does not carry the metric.
    [[nodiscard]] const bench_metric* find(const std::string& name) const;
};

/// A full run: the JSON document `bench_report_to_json` emits and
/// `parse_bench_report` reads back.
struct bench_report {
    std::string schema = "leq-bench-v1";
    std::vector<bench_row> rows;
};

/// How the compare gate treats a metric.
enum class metric_direction : std::uint8_t {
    info,    ///< recorded, never gated (wall clock, cache geometry)
    up_bad,  ///< regression = grew past base * (1+tol) + slack
    down_bad,///< regression = shrank past base * (1-tol) - slack
    exact,   ///< deterministic pin: any drift beyond slack fails
};

struct metric_policy {
    metric_direction direction = metric_direction::info;
    double rel_tol = 0.10; ///< the 10% budget (unused for exact)
    double abs_slack = 0.0;
};

/// Policy for a metric name; unknown names are informational.
[[nodiscard]] metric_policy bench_metric_policy(const std::string& name);

/// The pinned workload ids, in run order.
[[nodiscard]] std::vector<std::string> bench_workload_names();

/// Run one workload by id; throws std::invalid_argument for unknown ids.
/// The row's `seconds` is left at 0: the caller times the call.
[[nodiscard]] bench_row run_bench_workload(const std::string& workload);

/// Serialize; byte-deterministic for equal reports.
[[nodiscard]] std::string bench_report_to_json(const bench_report& report);

/// Parse a report emitted by `bench_report_to_json` (tolerates added
/// fields).  Throws std::runtime_error on malformed input or a schema
/// mismatch.
[[nodiscard]] bench_report parse_bench_report(const std::string& json);

/// One gated metric that moved the wrong way.
struct bench_regression {
    std::string workload;
    std::string metric;
    double base = 0.0;
    double current = 0.0;
    double limit = 0.0; ///< the value the gate would still have accepted
};

struct bench_compare_result {
    std::vector<bench_regression> regressions;
    /// Non-fatal observations: rows only in one report, improved metrics.
    std::vector<std::string> notes;
    [[nodiscard]] bool ok() const { return regressions.empty(); }
};

/// Gate `current` against `base`.  A workload present in the baseline but
/// missing from the current run is itself a regression (the trajectory
/// must not silently lose coverage).  Rows that carry `cache_lookups` and
/// `cache_hit_rate` are also gated on the misses derived from them.
[[nodiscard]] bench_compare_result
compare_bench_reports(const bench_report& base, const bench_report& current);

/// Render a human-readable summary (one line per regression/note).
[[nodiscard]] std::string to_string(const bench_compare_result& result);

/// Render a per-workload delta table of every gated metric (Markdown, so CI
/// can drop it straight into a job summary): base value, current value, and
/// the relative move.  Workloads missing from either side get a note row.
/// Purely presentational — the gate itself is `compare_bench_reports`.
[[nodiscard]] std::string bench_delta_table(const bench_report& base,
                                            const bench_report& current);

/// One line of the paper's Table 1: the partitioned and the monolithic
/// flow on one latch-split circuit, and the two containment checks on the
/// partitioned CSF (run only when that flow completed).
struct table1_row {
    std::string name;    ///< paper's benchmark name (s510, ...)
    std::string dims;    ///< i/o/cs of the whole circuit
    std::string latches; ///< Fcs/Xcs: latches kept in F / split into X
    solve_status partitioned = solve_status::ok;
    double partitioned_seconds = 0.0;
    solve_status monolithic = solve_status::ok;
    double monolithic_seconds = 0.0;
    std::size_t csf_states = 0;
    bool particular_contained = false;  ///< X_P <= X
    bool composition_contained = false; ///< F.X <= S

    /// False when a containment check ran and failed.
    [[nodiscard]] bool checks_ok() const;
};

/// Solve `instance` with both flows under `time_limit_seconds` each
/// (0 = unlimited) and check the partitioned CSF.
[[nodiscard]] table1_row run_table1_row(const table1_instance& instance,
                                        double time_limit_seconds);

/// Print the report: header, one line per row in the paper's columns (a
/// flow that gave up reads CNC at the time limit, SLIM at the state
/// limit), and the paper's reference numbers.  Returns the exit status of
/// `leq_bench_run --table1`: 0 when every check held, 1 otherwise.
[[nodiscard]] int write_table1_report(std::ostream& out,
                                      const std::vector<table1_row>& rows,
                                      double time_limit_seconds);

/// A corpus file the benchmark derives its inputs from, regenerated
/// deterministically.  The checked-in copies under bench/corpus/ are
/// byte-identical to this output (pinned by tests/test_bench.cpp); the
/// runner's --write-corpus mode (re)writes them.
struct bench_corpus_file {
    std::string name; ///< filename under bench/corpus/
    std::string text;
};
[[nodiscard]] std::vector<bench_corpus_file> bench_corpus_files();

} // namespace leq
