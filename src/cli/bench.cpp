/// \file bench.cpp
/// \brief Pinned benchmark workloads, report (de)serialization, the
/// regression gate and the Table 1 report.

#include "cli/bench.hpp"

#include "automata/kiss.hpp"
#include "automata/stg.hpp"
#include "cli/batch.hpp"
#include "cli/json.hpp"
#include "eq/kiss_flow.hpp"
#include "eq/problem.hpp"
#include "eq/solver.hpp"
#include "eq/verify.hpp"
#include "gen/scenario.hpp"
#include "img/image.hpp"
#include "net/blif.hpp"
#include "net/generator.hpp"
#include "net/latch_split.hpp"
#include "net/netbdd.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <map>
#include <ostream>
#include <stdexcept>
#include <utility>

namespace leq {

namespace {

// ---------------------------------------------------------------------------
// measurement helpers
// ---------------------------------------------------------------------------

void add(bench_row& row, const std::string& name, double value) {
    row.metrics.push_back({name, value});
}

/// The manager counters every workload reports.  `live_node_count()`
/// forces a final mark-and-sweep so the node counters reflect the end
/// state even when the workload never hit the GC trigger (the extra
/// deterministic gc_run is part of the pinned numbers).
void add_manager_metrics(bench_row& row, bdd_manager& mgr) {
    (void)mgr.live_node_count();
    const bdd_stats& stats = mgr.stats();
    add(row, "cache_lookups", static_cast<double>(stats.cache_lookups));
    const double lookups = static_cast<double>(stats.cache_lookups);
    add(row, "cache_hit_rate",
        lookups > 0 ? static_cast<double>(stats.cache_hits) / lookups : 0.0);
    add(row, "gc_runs", static_cast<double>(stats.gc_runs));
    add(row, "allocated_nodes", static_cast<double>(stats.allocated_nodes));
    add(row, "live_nodes", static_cast<double>(stats.live_nodes));
    add(row, "cache_entries", static_cast<double>(stats.cache_entries));
    add(row, "cache_resizes", static_cast<double>(stats.cache_resizes));
}

// ---------------------------------------------------------------------------
// workloads
// ---------------------------------------------------------------------------

/// The `saturation/*` rows vary only the reach strategy: "before" is the
/// textbook bfs fixpoint (R := R | Img(R)), "after" the saturation
/// worklist, on the same deep-sequential workloads and default memory
/// discipline — the gated win is the work-counter drop from never
/// re-imaging the full reached set.
image_options strategy_options(reach_strategy strategy) {
    image_options img;
    img.strategy = strategy;
    return img;
}

/// The metric set every solve row reports: the solver's state and image
/// counts, then the manager counters.  A solve that gave up has no row.
bench_row solve_row(const std::string& id, const equation_problem& problem,
                    const solve_result& result) {
    if (result.status != solve_status::ok) {
        throw std::runtime_error("bench workload " + id + " gave up");
    }
    bench_row row;
    row.workload = id;
    add(row, "subset_states",
        static_cast<double>(result.subset_states_explored));
    add(row, "csf_states", static_cast<double>(result.csf_states));
    add(row, "images", static_cast<double>(result.stats.images));
    add_manager_metrics(row, problem.mgr());
    return row;
}

/// Solve one scaled gen/ scenario with the partitioned flow.
bench_row run_solve_scenario(const std::string& id, scenario_family family,
                             std::uint32_t seed, std::uint32_t scale) {
    const scenario s = make_scenario(family, seed, scale);
    const equation_problem problem(s.fixed, s.spec, s.num_choice_inputs);
    return solve_row(id, problem, solve_partitioned(problem));
}

/// Solve the corpus KISS pair through the FSM-level flow.
bench_row run_solve_kiss(const std::string& id, const std::string& f_kiss,
                         const std::string& s_kiss) {
    const kiss_instance inst = build_kiss_instance(f_kiss, s_kiss);
    return solve_row(id, *inst.problem, solve_partitioned(*inst.problem));
}

/// The paper's Table 1 row `name` from make_table1_suite().
table1_instance table1_circuit(const std::string& name) {
    for (table1_instance& inst : make_table1_suite()) {
        if (inst.name == name) { return std::move(inst); }
    }
    throw std::invalid_argument("no Table 1 row '" + name + "'");
}

/// The paper's Table 1 equation: F is the circuit with its last
/// `x_latches` latches split off (they form the particular solution X_P),
/// S is the whole circuit.
struct table1_equation {
    split_result split;
    equation_problem problem;

    explicit table1_equation(const table1_instance& inst)
        : split(split_last_latches(inst.circuit, inst.x_latches)),
          problem(split.fixed, inst.circuit) {}
};

/// Solve one Table 1 row with default options, in either flow.
bench_row run_table1(const std::string& id, const std::string& name,
                     bool monolithic) {
    const table1_equation eq(table1_circuit(name));
    return solve_row(id, eq.problem,
                     monolithic ? solve_monolithic(eq.problem)
                                : solve_partitioned(eq.problem));
}

network reach_circuit() {
    structured_spec spec;
    spec.num_inputs = 4;
    spec.num_outputs = 6;
    spec.num_latches = 26;
    spec.seed = 29;
    spec.full_observation = true;
    spec.chained_enables = false;
    return make_structured_mix(spec);
}

/// Wide-frontier mix: this seed's frontier wave peaks around 17k nodes
/// over a few consecutive BFS layers, about four times the reach_circuit
/// peak, so the row pins the fixpoint on much larger image operands.
network wide_frontier_circuit() {
    structured_spec spec;
    spec.num_inputs = 4;
    spec.num_outputs = 5;
    spec.num_latches = 26;
    spec.seed = 3;
    spec.full_observation = true;
    spec.chained_enables = false;
    return make_structured_mix(spec);
}

/// Deep-sequential reach workload: a 12-cell gated ripple counter (the
/// chaincounter generator's machine at a fixed size).  All 4096 counter
/// values are reachable one per step, so the bfs fixpoint re-images an
/// ever-growing reached set ~4096 times while saturation only ever
/// images the one-state frontier chunks.
network chain_circuit() { return make_chain_counter(12, 4); }

/// The second deep-sequential reach workload: a 14-bit LFSR whose cycle
/// visits 8188 states one per step.  Unlike the chain counter — whose
/// reached-set prefix {0..k} keeps an O(bits) BDD, so the computed cache
/// absorbs most of bfs's re-imaging — the LFSR's reached set is an
/// irregular, growing BDD that changes shape every step, and the textbook
/// fixpoint pays for all of it on every image.  This is where saturation's
/// never-image-more-than-the-frontier discipline wins most: the baseline
/// test requires bfs to miss the cache more than 1.5x as often.
network lfsr_circuit() { return make_lfsr(14, {2, 0}); }

/// Layered reachability sweep over the given circuit under the given reach
/// strategy.  The relation is built explicitly (the same construction the
/// vector entry point performs) so the row can harvest the relation-layer
/// work counters; under saturation `reach_depth` reports fires, not BFS
/// depth (see reach_info).
bench_row run_reach(const std::string& id, const network& net,
                    const image_options& img = {}) {
    bench_row row;
    row.workload = id;
    bdd_manager mgr;
    std::vector<std::uint32_t> in, cs, ns;
    for (std::size_t k = 0; k < net.num_inputs(); ++k) {
        in.push_back(mgr.new_var());
    }
    for (std::size_t k = 0; k < net.num_latches(); ++k) {
        cs.push_back(mgr.new_var());
        ns.push_back(mgr.new_var());
    }
    const net_bdds fns = build_net_bdds(mgr, net, in, cs);
    const bdd init = state_cube(mgr, cs, net.initial_state());
    transition_relation relation = transition_relation::next_state(
        mgr, fns.next_state, cs, ns, in, img);
    relation.rename_image_to_current();
    const reach_info info = reachable_states_layered(
        relation, init, static_cast<std::uint32_t>(cs.size()));
    add(row, "reach_depth", static_cast<double>(info.depth));
    add(row, "reach_states", info.total_states);
    add(row, "images", static_cast<double>(relation.stats().images));
    if (img.strategy == reach_strategy::saturation) {
        add(row, "saturation_fires",
            static_cast<double>(relation.stats().saturation_fires));
    }
    add_manager_metrics(row, mgr);
    return row;
}

/// The mixed batch campaign: every family, three seeds, two workers (the
/// shared-nothing pool makes the summed per-job counters deterministic
/// regardless of worker count).  Per-job cache traffic — every worker has
/// its own manager — is summed from the per-record solve stats.
bench_row run_batch_workload(const std::string& id) {
    bench_row row;
    row.workload = id;
    std::vector<batch_job> jobs;
    for (const scenario_family family : all_scenario_families) {
        for (std::uint32_t seed = 1; seed <= 3; ++seed) {
            const std::string spec = "gen:" + std::string(to_string(family)) +
                                     ":" + std::to_string(seed);
            generated_pair pair = make_gen_pair(spec);
            batch_job job;
            job.name = spec.substr(4);
            job.fixed = std::move(pair.fixed);
            job.spec = std::move(pair.spec);
            job.has_choice_inputs = true;
            job.choice_inputs = pair.num_choice_inputs;
            jobs.push_back(std::move(job));
        }
    }
    batch_options options;
    options.jobs = 2;
    options.config.timing = false;
    const batch_report report = run_batch(jobs, options);
    if (report.errors != 0 || report.gave_up != 0) {
        throw std::runtime_error("bench workload " + id + " had failures");
    }
    double subset_states = 0.0;
    double csf_states = 0.0;
    double cache_lookups = 0.0;
    double cache_hits = 0.0;
    for (const solve_record& record : report.records) {
        subset_states +=
            static_cast<double>(record.result.subset_states_explored);
        csf_states += static_cast<double>(record.result.csf_states);
        cache_lookups += static_cast<double>(record.result.stats.cache_lookups);
        cache_hits += static_cast<double>(record.result.stats.cache_hits);
    }
    add(row, "batch_solved", static_cast<double>(report.solved));
    add(row, "batch_empty", static_cast<double>(report.empty));
    add(row, "subset_states", subset_states);
    add(row, "csf_states", csf_states);
    add(row, "cache_lookups", cache_lookups);
    add(row, "cache_hit_rate",
        cache_lookups > 0 ? cache_hits / cache_lookups : 0.0);
    return row;
}

/// The corpus KISS pair: an explicit-state counter equation.  The split
/// keeps the counter's low bit in the unknown component, so F has one v
/// input / one u output on top of S's interface.
std::pair<std::string, std::string> make_counter_kiss(std::size_t bits) {
    const network original = make_counter(bits);
    const split_result split = split_last_latches(original, 1);
    bdd_manager mgr;
    const auto label_vars = [&mgr](const network& net) {
        std::pair<std::vector<std::uint32_t>, std::vector<std::uint32_t>> v;
        for (std::size_t k = 0; k < net.num_inputs(); ++k) {
            v.first.push_back(mgr.new_var());
        }
        for (std::size_t k = 0; k < net.num_outputs(); ++k) {
            v.second.push_back(mgr.new_var());
        }
        return v;
    };
    const auto [f_in, f_out] = label_vars(split.fixed);
    const automaton fa =
        network_to_automaton(mgr, split.fixed, f_in, f_out);
    const auto [s_in, s_out] = label_vars(original);
    const automaton sa = network_to_automaton(mgr, original, s_in, s_out);
    return {write_kiss_string(fa, f_in, f_out),
            write_kiss_string(sa, s_in, s_out)};
}

} // namespace

const bench_metric* bench_row::find(const std::string& name) const {
    for (const bench_metric& m : metrics) {
        if (m.name == name) { return &m; }
    }
    return nullptr;
}

metric_policy bench_metric_policy(const std::string& name) {
    // deterministic solver outputs: any drift is a behaviour change
    if (name == "subset_states" || name == "csf_states" ||
        name == "reach_depth" || name == "reach_states" ||
        name == "batch_solved" || name == "batch_empty") {
        return {metric_direction::exact, 0.0, 0.0};
    }
    // deterministic work counters: 10% + slack budget.  cache_misses is
    // derived by the gate, not stored (see compare_bench_reports)
    if (name == "cache_lookups" || name == "cache_misses") {
        return {metric_direction::up_bad, 0.10, 1000.0};
    }
    if (name == "images") { return {metric_direction::up_bad, 0.10, 2.0}; }
    // deterministic saturation trace length: drift means the worklist
    // discipline changed
    if (name == "saturation_fires") {
        return {metric_direction::exact, 0.0, 0.0};
    }
    if (name == "gc_runs") { return {metric_direction::up_bad, 0.10, 2.0}; }
    if (name == "allocated_nodes") {
        return {metric_direction::up_bad, 0.10, 4096.0};
    }
    if (name == "live_nodes") {
        return {metric_direction::up_bad, 0.10, 1024.0};
    }
    if (name == "cache_hit_rate") {
        return {metric_direction::down_bad, 0.10, 0.02};
    }
    // seconds, cache_entries, cache_resizes, anything future
    return {metric_direction::info, 0.0, 0.0};
}

std::vector<std::string> bench_workload_names() {
    return {
        "solve/counter_x256",
        "solve/arbiter_x16",
        "solve/kiss_counter9",
        "reach/mix26",
        "batch/families",
        "saturation/reach_mix26/before",
        "saturation/reach_mix26/after",
        "saturation/reach_chain/before",
        "saturation/reach_chain/after",
        "saturation/reach_lfsr14/before",
        "saturation/reach_lfsr14/after",
        "reach/wide_frontier",
        "table1/s349",
        "table1/s444",
        "table1/s298/monolithic",
    };
}

bench_row run_bench_workload(const std::string& workload) {
    if (workload == "solve/counter_x256") {
        return run_solve_scenario(workload, scenario_family::counter, 3, 256);
    }
    if (workload == "solve/arbiter_x16") {
        return run_solve_scenario(workload, scenario_family::arbiter, 2, 16);
    }
    if (workload == "solve/kiss_counter9") {
        const auto [f_kiss, s_kiss] = make_counter_kiss(9);
        return run_solve_kiss(workload, f_kiss, s_kiss);
    }
    if (workload == "reach/mix26") {
        return run_reach(workload, reach_circuit());
    }
    if (workload == "batch/families") {
        return run_batch_workload(workload);
    }
    // strategy story: same workload, textbook bfs fixpoint versus the
    // saturation worklist
    if (workload == "saturation/reach_mix26/before") {
        return run_reach(workload, reach_circuit(),
                         strategy_options(reach_strategy::bfs));
    }
    if (workload == "saturation/reach_mix26/after") {
        return run_reach(workload, reach_circuit(),
                         strategy_options(reach_strategy::saturation));
    }
    if (workload == "saturation/reach_chain/before") {
        return run_reach(workload, chain_circuit(),
                         strategy_options(reach_strategy::bfs));
    }
    if (workload == "saturation/reach_chain/after") {
        return run_reach(workload, chain_circuit(),
                         strategy_options(reach_strategy::saturation));
    }
    if (workload == "saturation/reach_lfsr14/before") {
        return run_reach(workload, lfsr_circuit(),
                         strategy_options(reach_strategy::bfs));
    }
    if (workload == "saturation/reach_lfsr14/after") {
        return run_reach(workload, lfsr_circuit(),
                         strategy_options(reach_strategy::saturation));
    }
    if (workload == "reach/wide_frontier") {
        return run_reach(workload, wide_frontier_circuit());
    }
    // the paper's own experiment: the two largest Table 1 rows that run in
    // seconds, and the monolithic baseline on the row where it still does
    if (workload == "table1/s349") {
        return run_table1(workload, "s349", false);
    }
    if (workload == "table1/s444") {
        return run_table1(workload, "s444", false);
    }
    if (workload == "table1/s298/monolithic") {
        return run_table1(workload, "s298", true);
    }
    throw std::invalid_argument("unknown bench workload '" + workload + "'");
}

// ---------------------------------------------------------------------------
// serialization
// ---------------------------------------------------------------------------

std::string bench_report_to_json(const bench_report& report) {
    std::string rows = "[";
    for (std::size_t k = 0; k < report.rows.size(); ++k) {
        const bench_row& row = report.rows[k];
        json_object metrics;
        for (const bench_metric& m : row.metrics) {
            metrics.field(m.name, m.value);
        }
        json_object obj;
        obj.field("workload", row.workload);
        obj.field("seconds", row.seconds);
        obj.field_raw("metrics", metrics.str());
        if (k > 0) { rows += ","; }
        rows += obj.str();
    }
    rows += "]";
    json_object doc;
    doc.field("schema", report.schema);
    doc.field_raw("rows", rows);
    return doc.str() + "\n";
}

namespace {

/// Minimal JSON reader for the report schema: objects, arrays, strings,
/// numbers.  The CLI at large stays writer-only (see json.hpp); parsing
/// lives here because the compare gate is the one consumer.
class json_reader {
public:
    explicit json_reader(const std::string& text) : text_(text) {}

    void skip_ws() {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    [[nodiscard]] char peek() {
        skip_ws();
        if (pos_ >= text_.size()) { fail("unexpected end of input"); }
        return text_[pos_];
    }

    void expect(char c) {
        if (peek() != c) {
            fail(std::string("expected '") + c + "'");
        }
        ++pos_;
    }

    [[nodiscard]] bool consume(char c) {
        if (pos_ < text_.size() && peek() == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    [[nodiscard]] std::string parse_string() {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size()) { fail("unterminated string"); }
            const char c = text_[pos_++];
            if (c == '"') { break; }
            if (c == '\\') {
                if (pos_ >= text_.size()) { fail("unterminated escape"); }
                const char e = text_[pos_++];
                switch (e) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'n': out += '\n'; break;
                case 't': out += '\t'; break;
                case 'r': out += '\r'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'u':
                    // the report never emits non-ASCII; keep the escape
                    if (pos_ + 4 > text_.size()) { fail("bad \\u escape"); }
                    out += "\\u" + text_.substr(pos_, 4);
                    pos_ += 4;
                    break;
                default: fail("bad escape");
                }
            } else {
                out += c;
            }
        }
        return out;
    }

    [[nodiscard]] double parse_number() {
        skip_ws();
        const std::size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
                text_[pos_] == '-' || text_[pos_] == '+' ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E')) {
            ++pos_;
        }
        if (pos_ == start) { fail("expected a number"); }
        try {
            return std::stod(text_.substr(start, pos_ - start));
        } catch (const std::exception&) {
            fail("bad number");
        }
        return 0.0; // unreachable
    }

    /// Skip any value (for fields the schema does not know).
    void skip_value() {
        const char c = peek();
        if (c == '"') {
            (void)parse_string();
        } else if (c == '{') {
            ++pos_;
            if (!consume('}')) {
                do {
                    (void)parse_string();
                    expect(':');
                    skip_value();
                } while (consume(','));
                expect('}');
            }
        } else if (c == '[') {
            ++pos_;
            if (!consume(']')) {
                do { skip_value(); } while (consume(','));
                expect(']');
            }
        } else if (c == 't' || c == 'f' || c == 'n') {
            while (pos_ < text_.size() &&
                   std::isalpha(static_cast<unsigned char>(text_[pos_])) !=
                       0) {
                ++pos_;
            }
        } else {
            (void)parse_number();
        }
    }

    [[noreturn]] void fail(const std::string& why) {
        throw std::runtime_error("bench report parse error at byte " +
                                 std::to_string(pos_) + ": " + why);
    }

private:
    const std::string& text_;
    std::size_t pos_ = 0;
};

bench_row parse_row(json_reader& in) {
    bench_row row;
    in.expect('{');
    if (!in.consume('}')) {
        do {
            const std::string key = in.parse_string();
            in.expect(':');
            if (key == "workload") {
                row.workload = in.parse_string();
            } else if (key == "seconds") {
                row.seconds = in.parse_number();
            } else if (key == "metrics") {
                in.expect('{');
                if (!in.consume('}')) {
                    do {
                        bench_metric m;
                        m.name = in.parse_string();
                        in.expect(':');
                        m.value = in.parse_number();
                        row.metrics.push_back(std::move(m));
                    } while (in.consume(','));
                    in.expect('}');
                }
            } else {
                in.skip_value();
            }
        } while (in.consume(','));
        in.expect('}');
    }
    return row;
}

} // namespace

bench_report parse_bench_report(const std::string& json) {
    json_reader in(json);
    bench_report report;
    report.schema.clear();
    in.expect('{');
    if (!in.consume('}')) {
        do {
            const std::string key = in.parse_string();
            in.expect(':');
            if (key == "schema") {
                report.schema = in.parse_string();
            } else if (key == "rows") {
                in.expect('[');
                if (!in.consume(']')) {
                    do {
                        report.rows.push_back(parse_row(in));
                    } while (in.consume(','));
                    in.expect(']');
                }
            } else {
                in.skip_value();
            }
        } while (in.consume(','));
        in.expect('}');
    }
    if (report.schema != "leq-bench-v1") {
        throw std::runtime_error("bench report schema mismatch: '" +
                                 report.schema + "'");
    }
    return report;
}

// ---------------------------------------------------------------------------
// the gate
// ---------------------------------------------------------------------------

namespace {

/// The gate's view of a row: it adds cache misses, lookups x (1 - hit rate).
/// Misses are the work the cache could not absorb; unlike the hit rate they
/// do not regress when a change removes lookups that mostly hit.
bench_row with_derived_misses(bench_row row) {
    const bench_metric* lookups = row.find("cache_lookups");
    const bench_metric* rate = row.find("cache_hit_rate");
    if (lookups != nullptr && rate != nullptr) {
        const double misses = lookups->value * (1.0 - rate->value);
        row.metrics.push_back({"cache_misses", misses});
    }
    return row;
}

} // namespace

bench_compare_result compare_bench_reports(const bench_report& base,
                                           const bench_report& current) {
    bench_compare_result result;
    std::vector<bench_row> current_view;
    current_view.reserve(current.rows.size());
    for (const bench_row& row : current.rows) {
        current_view.push_back(with_derived_misses(row));
    }
    std::map<std::string, const bench_row*> current_rows;
    for (const bench_row& row : current_view) {
        current_rows[row.workload] = &row;
    }
    for (const bench_row& stored_row : base.rows) {
        const bench_row base_row = with_derived_misses(stored_row);
        const auto it = current_rows.find(base_row.workload);
        if (it == current_rows.end()) {
            // lost coverage is a regression, not a note: the trajectory
            // must not silently shrink
            result.regressions.push_back(
                {base_row.workload, "<row missing>", 0.0, 0.0, 0.0});
            continue;
        }
        const bench_row& now = *it->second;
        current_rows.erase(it);
        for (const bench_metric& bm : base_row.metrics) {
            const metric_policy policy = bench_metric_policy(bm.name);
            if (policy.direction == metric_direction::info) { continue; }
            const bench_metric* cm = now.find(bm.name);
            if (cm == nullptr) {
                result.regressions.push_back(
                    {base_row.workload, bm.name + " <missing>", bm.value,
                     0.0, 0.0});
                continue;
            }
            double limit = 0.0;
            bool regressed = false;
            switch (policy.direction) {
            case metric_direction::up_bad:
                limit = bm.value * (1.0 + policy.rel_tol) + policy.abs_slack;
                regressed = cm->value > limit;
                break;
            case metric_direction::down_bad:
                limit = bm.value * (1.0 - policy.rel_tol) - policy.abs_slack;
                regressed = cm->value < limit;
                break;
            case metric_direction::exact:
                limit = bm.value;
                regressed =
                    std::abs(cm->value - bm.value) > policy.abs_slack;
                break;
            case metric_direction::info: break;
            }
            if (regressed) {
                result.regressions.push_back({base_row.workload, bm.name,
                                              bm.value, cm->value, limit});
            }
        }
    }
    for (const auto& [workload, row] : current_rows) {
        (void)row;
        result.notes.push_back("new workload not in baseline: " + workload +
                               " (refresh the baseline to start gating it)");
    }
    return result;
}

std::string to_string(const bench_compare_result& result) {
    std::string out;
    for (const bench_regression& r : result.regressions) {
        out += "REGRESSION " + r.workload + " " + r.metric + ": base " +
               json_number(r.base) + " -> " + json_number(r.current) +
               " (limit " + json_number(r.limit) + ")\n";
    }
    for (const std::string& note : result.notes) {
        out += "note: " + note + "\n";
    }
    if (result.ok()) { out += "bench compare: OK\n"; }
    return out;
}

std::string bench_delta_table(const bench_report& base,
                              const bench_report& current) {
    std::string out;
    out += "| workload | metric | base | current | delta |\n";
    out += "|---|---|---:|---:|---:|\n";
    std::map<std::string, const bench_row*> current_rows;
    for (const bench_row& row : current.rows) {
        current_rows[row.workload] = &row;
    }
    const auto cell = [](double v) {
        // integers print bare; rates keep their fraction
        return json_number(v);
    };
    for (const bench_row& base_row : base.rows) {
        const auto it = current_rows.find(base_row.workload);
        if (it == current_rows.end()) {
            out += "| " + base_row.workload + " | _row missing_ | | | |\n";
            continue;
        }
        const bench_row& now = *it->second;
        current_rows.erase(it);
        for (const bench_metric& bm : base_row.metrics) {
            if (bench_metric_policy(bm.name).direction ==
                metric_direction::info) {
                continue;
            }
            const bench_metric* cm = now.find(bm.name);
            if (cm == nullptr) {
                out += "| " + base_row.workload + " | " + bm.name +
                       " | " + cell(bm.value) + " | _missing_ | |\n";
                continue;
            }
            std::string delta;
            if (bm.value == cm->value) {
                delta = "=";
            } else if (bm.value == 0.0) {
                delta = "new";
            } else {
                const double pct =
                    (cm->value - bm.value) / bm.value * 100.0;
                // two decimals is plenty for a 10%-budget gate
                const double rounded = std::round(pct * 100.0) / 100.0;
                delta = (rounded > 0 ? "+" : "") + json_number(rounded) + "%";
            }
            out += "| " + base_row.workload + " | " + bm.name + " | " +
                   cell(bm.value) + " | " + cell(cm->value) + " | " + delta +
                   " |\n";
        }
    }
    for (const auto& [workload, row] : current_rows) {
        (void)row;
        out += "| " + workload + " | _new workload_ | | | |\n";
    }
    return out;
}

// ---------------------------------------------------------------------------
// the Table 1 report
// ---------------------------------------------------------------------------

bool table1_row::checks_ok() const {
    return partitioned != solve_status::ok ||
           (particular_contained && composition_contained);
}

table1_row run_table1_row(const table1_instance& instance,
                          double time_limit_seconds) {
    const network& circuit = instance.circuit;
    table1_row row;
    row.name = instance.name;
    row.dims = std::to_string(circuit.num_inputs()) + "/" +
               std::to_string(circuit.num_outputs()) + "/" +
               std::to_string(circuit.num_latches());
    row.latches = std::to_string(instance.f_latches) + "/" +
                  std::to_string(instance.x_latches);
    const table1_equation eq(instance);
    solve_options options;
    options.time_limit_seconds = time_limit_seconds;
    const solve_result part = solve_partitioned(eq.problem, options);
    const solve_result mono = solve_monolithic(eq.problem, options);
    row.partitioned = part.status;
    row.partitioned_seconds = part.seconds;
    row.monolithic = mono.status;
    row.monolithic_seconds = mono.seconds;
    if (part.status == solve_status::ok) {
        row.csf_states = part.csf_states;
        row.particular_contained = verify_particular_contained(
            eq.problem, *part.csf, eq.split.part.initial_state());
        row.composition_contained =
            verify_composition_contained(eq.problem, *part.csf);
    }
    return row;
}

namespace {

std::string format_seconds(solve_status status, double seconds) {
    if (status == solve_status::timeout) { return "CNC"; }
    if (status == solve_status::state_limit) { return "SLIM"; }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.2f", seconds);
    return buf;
}

std::string table1_line(const std::string& name, const std::string& dims,
                        const std::string& latches, const std::string& states,
                        const std::string& part, const std::string& mono,
                        const std::string& ratio, const std::string& checks) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%-8s %-10s %-8s %12s %10s %10s %8s  %s\n",
                  name.c_str(), dims.c_str(), latches.c_str(), states.c_str(),
                  part.c_str(), mono.c_str(), ratio.c_str(), checks.c_str());
    return buf;
}

} // namespace

int write_table1_report(std::ostream& out,
                        const std::vector<table1_row>& rows,
                        double time_limit_seconds) {
    out << "Table 1: partitioned vs monolithic CSF computation (time limit "
        << (time_limit_seconds > 0 ? json_number(time_limit_seconds) + "s"
                                   : std::string("none"))
        << " per flow)\n\n"
        << table1_line("Name", "i/o/cs", "Fcs/Xcs", "States(X)", "Part,s",
                       "Mono,s", "Ratio", "Checks")
        << std::string(88, '-') << "\n";
    bool ok = true;
    for (const table1_row& row : rows) {
        const bool solved = row.partitioned == solve_status::ok;
        std::string checks = "-";
        if (solved) {
            checks = std::string(row.particular_contained ? "Xp<=X ok"
                                                          : "Xp<=X FAIL") +
                     (row.composition_contained ? ", FX<=S ok"
                                                : ", FX<=S FAIL");
        }
        std::string ratio = "-";
        if (solved && row.monolithic == solve_status::ok &&
            row.partitioned_seconds > 0) {
            char buf[32];
            std::snprintf(buf, sizeof buf, "%.1f",
                          row.monolithic_seconds / row.partitioned_seconds);
            ratio = buf;
        }
        out << table1_line(
            row.name, row.dims, row.latches,
            solved ? std::to_string(row.csf_states) : "-",
            format_seconds(row.partitioned, row.partitioned_seconds),
            format_seconds(row.monolithic, row.monolithic_seconds), ratio,
            checks);
        ok = ok && row.checks_ok();
    }
    out << "\nPaper's reference (1.6GHz, MCNC originals): s510 54st "
           "0.3/0.2s; s208 497st 0.4/0.8s; s298 553st 0.9/2.7s;\n"
           "s349 2626st 37.7/810.3s (21.5x); s444 17730st 25.9s/CNC; "
           "s526 141829st 276.7s/CNC\n";
    return ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// corpus
// ---------------------------------------------------------------------------

std::vector<bench_corpus_file> bench_corpus_files() {
    std::vector<bench_corpus_file> files;
    {
        const scenario s = make_scenario(scenario_family::counter, 3, 256);
        files.push_back({"counter_x256_f.blif", write_blif_string(s.fixed)});
        files.push_back({"counter_x256_s.blif", write_blif_string(s.spec)});
    }
    {
        const scenario s = make_scenario(scenario_family::arbiter, 2, 16);
        files.push_back({"arbiter_x16_f.blif", write_blif_string(s.fixed)});
        files.push_back({"arbiter_x16_s.blif", write_blif_string(s.spec)});
    }
    files.push_back({"mix26.blif", write_blif_string(reach_circuit())});
    {
        const auto [f_kiss, s_kiss] = make_counter_kiss(9);
        files.push_back({"counter9_f.kiss", f_kiss});
        files.push_back({"counter9_s.kiss", s_kiss});
    }
    return files;
}

} // namespace leq
