/// \file test_cli.cpp
/// \brief The `leq` CLI end to end, in-process: every subcommand on the
/// checked-in examples/eqn/ pairs, the error paths, JSON validity, and the
/// batch mode's thread-count determinism; plus the leq_fuzz binary's
/// --time-limit parsing, run as a child process.

#include "cli/cli.hpp"

#include "cli/batch.hpp"
#include "cli/count.hpp"
#include "cli/json.hpp"

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

using namespace leq;

std::string example(const std::string& file) {
    return std::string(LEQ_SOURCE_DIR) + "/examples/eqn/" + file;
}

struct cli_run {
    int exit_code = 0;
    std::string out;
    std::string err;
};

cli_run run(const std::vector<std::string>& args) {
    std::ostringstream out, err;
    cli_run r;
    r.exit_code = run_leq_cli(args, out, err);
    r.out = out.str();
    r.err = err.str();
    return r;
}

/// Exit code of the leq_fuzz binary run through the shell with `args`
/// (shell-quoted by the caller); -1 when it did not exit normally.
int run_fuzz_tool(const std::string& args) {
    const std::string command =
        std::string("'") + LEQ_FUZZ_BIN + "' " + args + " >/dev/null 2>&1";
    const int status = std::system(command.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// ---------------------------------------------------------------------------
// a minimal JSON syntax checker: enough to prove the stats lines are valid
// JSON (objects, arrays, strings with escapes, numbers, true/false/null)
// ---------------------------------------------------------------------------

struct json_checker {
    const std::string& text;
    std::size_t pos = 0;

    void ws() {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t')) {
            ++pos;
        }
    }
    bool eat(char c) {
        ws();
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }
    bool string() {
        if (!eat('"')) { return false; }
        while (pos < text.size() && text[pos] != '"') {
            if (text[pos] == '\\') {
                ++pos;
                if (pos >= text.size()) { return false; }
            }
            ++pos;
        }
        return eat('"');
    }
    bool number() {
        ws();
        const std::size_t start = pos;
        while (pos < text.size() &&
               (std::isdigit(static_cast<unsigned char>(text[pos])) != 0 ||
                text[pos] == '-' || text[pos] == '+' || text[pos] == '.' ||
                text[pos] == 'e' || text[pos] == 'E')) {
            ++pos;
        }
        return pos > start;
    }
    bool literal(const char* word) {
        ws();
        const std::size_t len = std::string(word).size();
        if (text.compare(pos, len, word) == 0) {
            pos += len;
            return true;
        }
        return false;
    }
    bool value() {
        ws();
        if (pos >= text.size()) { return false; }
        if (text[pos] == '"') { return string(); }
        if (text[pos] == '{') { return object(); }
        if (text[pos] == '[') { return array(); }
        if (literal("true") || literal("false") || literal("null")) {
            return true;
        }
        return number();
    }
    bool object() {
        if (!eat('{')) { return false; }
        if (eat('}')) { return true; }
        do {
            if (!string() || !eat(':') || !value()) { return false; }
        } while (eat(','));
        return eat('}');
    }
    bool array() {
        if (!eat('[')) { return false; }
        if (eat(']')) { return true; }
        do {
            if (!value()) { return false; }
        } while (eat(','));
        return eat(']');
    }
};

/// Whole line is exactly one valid JSON object.
bool valid_json_object(const std::string& line) {
    json_checker checker{line};
    if (!checker.object()) { return false; }
    checker.ws();
    return checker.pos == line.size();
}

/// `"key":<raw value>` lookup on a flat rendering (no nested-name clashes
/// in the CLI's field set).
std::string raw_field(const std::string& json, const std::string& key) {
    const std::string needle = "\"" + key + "\":";
    const std::size_t at = json.find(needle);
    if (at == std::string::npos) { return {}; }
    std::size_t from = at + needle.size();
    std::size_t to = from;
    int depth = 0;
    while (to < json.size()) {
        const char c = json[to];
        if (depth == 0 && (c == ',' || c == '}')) { break; }
        if (c == '{' || c == '[') { ++depth; }
        if (c == '}' || c == ']') { --depth; }
        ++to;
    }
    return json.substr(from, to - from);
}

std::string first_line(const std::string& text) {
    return text.substr(0, text.find('\n'));
}

std::string temp_path(const char* name) {
    return testing::TempDir() + name;
}

// ---------------------------------------------------------------------------
// solve
// ---------------------------------------------------------------------------

TEST(cli_solve, solvable_kiss_pair_emits_valid_json) {
    const cli_run r = run({"solve", example("passthrough_f.kiss"),
                           example("passthrough_s.kiss")});
    EXPECT_EQ(r.exit_code, 0) << r.err;
    const std::string line = first_line(r.out);
    EXPECT_TRUE(valid_json_object(line)) << line;
    EXPECT_EQ(raw_field(line, "status"), "\"ok\"");
    EXPECT_EQ(raw_field(line, "solution"), "\"ok\"");
    EXPECT_EQ(raw_field(line, "csf_states"), "2");
    // the stats block surfaces the relation layer
    EXPECT_NE(raw_field(line, "stats"), "");
    EXPECT_NE(raw_field(line, "images"), "0");
    EXPECT_NE(raw_field(line, "seconds"), "");
}

TEST(cli_solve, unsolvable_kiss_pair_reports_empty) {
    const cli_run r = run({"solve", example("inverter_f.kiss"),
                           example("inverter_s.kiss")});
    EXPECT_EQ(r.exit_code, 0) << r.err;
    const std::string line = first_line(r.out);
    EXPECT_TRUE(valid_json_object(line)) << line;
    EXPECT_EQ(raw_field(line, "status"), "\"ok\"");
    EXPECT_EQ(raw_field(line, "solution"), "\"empty\"");
}

TEST(cli_solve, blif_pair_and_every_flow) {
    for (const char* flow : {"partitioned", "monolithic", "explicit"}) {
        const cli_run r = run({"solve", example("delay_f.blif"),
                               example("delay_s.blif"), "--flow", flow});
        EXPECT_EQ(r.exit_code, 0) << flow << ": " << r.err;
        const std::string line = first_line(r.out);
        EXPECT_TRUE(valid_json_object(line)) << line;
        EXPECT_EQ(raw_field(line, "solution"), "\"ok\"") << flow;
        EXPECT_EQ(raw_field(line, "flow"),
                  "\"" + std::string(flow) + "\"");
    }
}

TEST(cli_solve, knob_flags_reach_the_relation_layer) {
    const cli_run r =
        run({"solve", example("passthrough_f.kiss"),
             example("passthrough_s.kiss"), "--policy", "affinity",
             "--cluster-limit", "100", "--collect-stats", "--no-timing"});
    EXPECT_EQ(r.exit_code, 0) << r.err;
    const std::string line = first_line(r.out);
    EXPECT_TRUE(valid_json_object(line)) << line;
    EXPECT_EQ(raw_field(line, "policy"), "\"affinity\"");
    EXPECT_EQ(raw_field(line, "cluster_limit"), "100");
    EXPECT_NE(raw_field(line, "peak_intermediate"), "");
    EXPECT_EQ(raw_field(line, "seconds"), ""); // --no-timing
}

TEST(cli_solve, gen_spec_generates_and_solves) {
    const cli_run r = run({"solve", "gen:counter:7"});
    EXPECT_EQ(r.exit_code, 0) << r.err;
    const std::string line = first_line(r.out);
    EXPECT_TRUE(valid_json_object(line)) << line;
    EXPECT_EQ(raw_field(line, "name"), "\"counter:7\"");
    EXPECT_EQ(raw_field(line, "status"), "\"ok\"");
}

TEST(cli_solve, gen_spec_scale_suffix_grows_the_instance) {
    const cli_run r = run({"solve", "gen:counter:7:8"});
    EXPECT_EQ(r.exit_code, 0) << r.err;
    const std::string line = first_line(r.out);
    EXPECT_TRUE(valid_json_object(line)) << line;
    EXPECT_EQ(raw_field(line, "name"), "\"counter:7:8\"");
    EXPECT_EQ(raw_field(line, "status"), "\"ok\"");
    // scale 8 adds three counter bits over the scale-1 instance, so the
    // candidate space is strictly larger
    const cli_run base = run({"solve", "gen:counter:7"});
    EXPECT_EQ(base.exit_code, 0) << base.err;
    EXPECT_NE(raw_field(first_line(base.out), "subset_states"),
              raw_field(line, "subset_states"));
}

TEST(cli_solve, memory_flags_reach_the_bdd_manager) {
    const cli_run r =
        run({"solve", example("passthrough_f.kiss"),
             example("passthrough_s.kiss"), "--cache-bits", "12",
             "--max-cache-bits", "14", "--gc-threshold", "20000",
             "--no-timing"});
    EXPECT_EQ(r.exit_code, 0) << r.err;
    const std::string line = first_line(r.out);
    EXPECT_TRUE(valid_json_object(line)) << line;
    EXPECT_EQ(raw_field(line, "cache_bits"), "12");
    EXPECT_EQ(raw_field(line, "max_cache_bits"), "14");
    EXPECT_EQ(raw_field(line, "gc_threshold"), "20000");
}

TEST(cli_solve, cache_bits_flag_raises_the_cap_when_needed) {
    // --cache-bits above the default cap must lift max_cache_bits with it
    const cli_run r = run({"solve", example("passthrough_f.kiss"),
                           example("passthrough_s.kiss"), "--cache-bits",
                           "26", "--no-timing"});
    EXPECT_EQ(r.exit_code, 0) << r.err;
    const std::string line = first_line(r.out);
    EXPECT_EQ(raw_field(line, "cache_bits"), "26");
    EXPECT_EQ(raw_field(line, "max_cache_bits"), "26");
}

TEST(cli_solve, cache_bits_pair_does_not_depend_on_flag_order) {
    // a ceiling below the floor is lifted to it, as the manager does, in
    // either order, so the record echoes the cache that actually runs
    const cli_run floor_first =
        run({"solve", "gen:counter:1", "--cache-bits", "20",
             "--max-cache-bits", "8", "--no-timing"});
    const cli_run ceiling_first =
        run({"solve", "gen:counter:1", "--max-cache-bits", "8",
             "--cache-bits", "20", "--no-timing"});
    EXPECT_EQ(floor_first.exit_code, 0) << floor_first.err;
    EXPECT_EQ(ceiling_first.exit_code, floor_first.exit_code);
    EXPECT_EQ(ceiling_first.out, floor_first.out);
    EXPECT_EQ(raw_field(first_line(floor_first.out), "cache_bits"), "20");
    EXPECT_EQ(raw_field(first_line(floor_first.out), "max_cache_bits"),
              "20");
}

TEST(cli_solve, cache_size_flags_are_echoed_and_solver_output_is_unchanged) {
    // the cache only decides what gets memoized, never what gets computed:
    // every solver-visible field must be byte-identical across cache sizes.
    // The input is big enough that a 2^8-slot cache evicts: it recomputes
    // far more than a 2^26-slot one
    std::string reference_solution;
    std::string reference_subset;
    std::string reference_csf;
    std::string reference_live;
    std::string smallest_cache_lookups;
    for (const char* bits : {"8", "12", "18", "26"}) {
        const cli_run r =
            run({"solve", "gen:arbiter:2:4", "--cache-bits", bits,
                 "--max-cache-bits", bits, "--collect-stats", "--no-timing"});
        EXPECT_EQ(r.exit_code, 0) << r.err;
        const std::string line = first_line(r.out);
        EXPECT_TRUE(valid_json_object(line)) << line;
        EXPECT_EQ(raw_field(line, "cache_bits"), bits);
        EXPECT_EQ(raw_field(line, "max_cache_bits"), bits);
        const std::string solution = raw_field(line, "status");
        const std::string subset = raw_field(line, "subset_states");
        const std::string csf = raw_field(line, "csf_states");
        const std::string live = raw_field(line, "live_nodes");
        if (std::string(bits) == "8") {
            reference_solution = solution;
            reference_subset = subset;
            reference_csf = csf;
            reference_live = live;
            smallest_cache_lookups = raw_field(line, "cache_lookups");
        } else {
            EXPECT_EQ(solution, reference_solution) << "bits=" << bits;
            EXPECT_EQ(subset, reference_subset) << "bits=" << bits;
            EXPECT_EQ(csf, reference_csf) << "bits=" << bits;
            EXPECT_EQ(live, reference_live) << "bits=" << bits;
        }
        if (std::string(bits) == "26") {
            EXPECT_GT(std::stoull(smallest_cache_lookups),
                      std::stoull(raw_field(line, "cache_lookups")))
                << "input too small for the cache size to matter";
        }
    }
}

TEST(cli_solve, stats_line_carries_the_per_op_cache_breakdown) {
    const cli_run r =
        run({"solve", example("passthrough_f.kiss"),
             example("passthrough_s.kiss"), "--collect-stats",
             "--no-timing"});
    EXPECT_EQ(r.exit_code, 0) << r.err;
    const std::string line = first_line(r.out);
    EXPECT_TRUE(valid_json_object(line)) << line;
    EXPECT_NE(raw_field(line, "cache_lookups"), "");
    EXPECT_NE(raw_field(line, "cache_hits"), "");
    // the breakdown object names only ops that were actually looked up
    EXPECT_NE(line.find("\"op_cache\""), std::string::npos) << line;
    EXPECT_NE(line.find("\"lookups\""), std::string::npos) << line;
    // successor renaming has its own entry, not charged to the ITE family
    EXPECT_NE(line.find("\"permute\":{\"lookups\""), std::string::npos)
        << line;
}

TEST(cli_errors, memory_flags_reject_bad_values) {
    EXPECT_EQ(run({"solve", "--cache-bits", "31"}).exit_code, 2);
    EXPECT_EQ(run({"solve", "--cache-bits", "7"}).exit_code, 2);
    EXPECT_EQ(run({"solve", "--cache-bits", "abc"}).exit_code, 2);
    EXPECT_EQ(run({"solve", "--max-cache-bits", "31"}).exit_code, 2);
    EXPECT_EQ(run({"solve", "--gc-threshold", "2k"}).exit_code, 2);
    EXPECT_EQ(run({"solve", "--cache-bits"}).exit_code, 2);
}

TEST(cli_errors, gen_spec_rejects_bad_scale_and_choice_inputs) {
    EXPECT_NE(run({"solve", "gen:counter:2:x"}).exit_code, 0);
    EXPECT_NE(run({"solve", "gen:counter:2:0"}).exit_code, 0);
    EXPECT_NE(run({"solve", "gen:counter:2:8:9"}).exit_code, 0);
    // the scenario sets its own choice-input count; an explicit one used
    // to be replaced without a word
    for (const char* command : {"solve", "verify", "diagnose", "reduce"}) {
        const cli_run r =
            run({command, "gen:nondet:1", "--choice-inputs", "0"});
        EXPECT_EQ(r.exit_code, 2) << command;
        EXPECT_NE(r.err.find("--choice-inputs"), std::string::npos) << r.err;
    }
}

// ---------------------------------------------------------------------------
// verify / diagnose / reduce
// ---------------------------------------------------------------------------

TEST(cli_verify, composition_check_passes_on_examples) {
    const cli_run r = run({"verify", example("delay_f.blif"),
                           example("delay_s.blif")});
    EXPECT_EQ(r.exit_code, 0) << r.err;
    EXPECT_EQ(raw_field(first_line(r.out), "composition_ok"), "true");
}

TEST(cli_diagnose, csf_diagnosis_is_clean) {
    const cli_run r = run({"diagnose", example("passthrough_f.kiss"),
                           example("passthrough_s.kiss")});
    EXPECT_EQ(r.exit_code, 0) << r.err;
    EXPECT_EQ(raw_field(first_line(r.out), "ok"), "true");
}

TEST(cli_diagnose, bad_candidate_yields_counterexample_trace) {
    // a candidate for the inverter pair, whose CSF is empty: any machine
    // is wrong, and the diagnosis must carry a concrete trace
    const std::string impl = temp_path("bad_impl.kiss");
    {
        std::ofstream out(impl);
        out << ".i 1\n.o 1\n.s 1\n.p 2\n.r s0\n"
               "0 s0 s0 0\n1 s0 s0 1\n.e\n";
    }
    const cli_run r = run({"diagnose", example("inverter_f.kiss"),
                           example("inverter_s.kiss"), "--impl", impl});
    EXPECT_EQ(r.exit_code, 1);
    const std::string line = first_line(r.out);
    EXPECT_TRUE(valid_json_object(line)) << line;
    EXPECT_EQ(raw_field(line, "ok"), "false");
    EXPECT_NE(raw_field(line, "trace"), "");
    EXPECT_NE(r.err.find("step 0"), std::string::npos) << r.err;
    std::remove(impl.c_str());
}

TEST(cli_reduce, writes_a_small_kiss_machine) {
    const std::string out_path = temp_path("reduced.kiss");
    const cli_run r = run({"reduce", example("passthrough_f.kiss"),
                           example("passthrough_s.kiss"), "--out", out_path});
    EXPECT_EQ(r.exit_code, 0) << r.err;
    const std::string line = first_line(r.out);
    EXPECT_EQ(raw_field(line, "states"), "2"); // parity needs two states
    EXPECT_EQ(raw_field(line, "method"), "\"compatibility\"");
    std::ifstream in(out_path);
    ASSERT_TRUE(in.good());
    std::string head;
    in >> head;
    EXPECT_EQ(head, ".i");
    std::remove(out_path.c_str());
}

TEST(cli_reduce, empty_solution_is_an_error) {
    const cli_run r = run({"reduce", example("inverter_f.kiss"),
                           example("inverter_s.kiss")});
    EXPECT_EQ(r.exit_code, 1);
    EXPECT_EQ(raw_field(first_line(r.out), "status"), "\"error\"");
}

// ---------------------------------------------------------------------------
// error paths
// ---------------------------------------------------------------------------

TEST(cli_errors, unknown_option_is_usage_error) {
    const cli_run r = run({"solve", "--bogus"});
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_NE(r.err.find("unknown option"), std::string::npos);
    const cli_run jobs =
        run({"solve", "gen:chaincounter:2", "--solve-jobs", "2"});
    EXPECT_EQ(jobs.exit_code, 2);
    EXPECT_NE(jobs.err.find("unknown option"), std::string::npos) << jobs.err;
    EXPECT_EQ(run({"solve", "gen:chaincounter:2", "--cache-ways", "4"})
                  .exit_code,
              2);
}

TEST(cli_errors, unknown_command_is_usage_error) {
    EXPECT_EQ(run({"frobnicate"}).exit_code, 2);
    EXPECT_EQ(run({}).exit_code, 2);
}

TEST(cli_errors, missing_input_file) {
    const cli_run r = run({"solve", "no_such_f.kiss", "no_such_s.kiss"});
    EXPECT_EQ(r.exit_code, 3);
    EXPECT_NE(r.err.find("cannot open"), std::string::npos);
}

TEST(cli_errors, missing_flag_value) {
    EXPECT_EQ(run({"solve", "--policy"}).exit_code, 2);
    EXPECT_EQ(run({"solve", "--cluster-limit", "lots"}).exit_code, 2);
}

TEST(cli_errors, numeric_flags_reject_trailing_garbage) {
    EXPECT_EQ(run({"solve", "--max-states", "1e6"}).exit_code, 2);
    EXPECT_EQ(run({"solve", "--jobs", "4x"}).exit_code, 2);
    EXPECT_EQ(run({"solve", "--time-limit", "30s"}).exit_code, 2);
    EXPECT_EQ(run({"solve", "gen:counter:7abc"}).exit_code, 3);
    // stoul would silently wrap negatives to huge values
    EXPECT_EQ(run({"solve", "--cluster-limit", "-1"}).exit_code, 2);
    EXPECT_EQ(run({"solve", "--time-limit", "-5"}).exit_code, 2);
    EXPECT_EQ(run({"solve", "gen:counter:-1"}).exit_code, 3);
    // a seed is 32 bits: a cast would solve seed 1 under this label
    EXPECT_EQ(run({"solve", "gen:counter:4294967297"}).exit_code, 3);
}

TEST(cli_errors, time_limit_must_be_finite_unsigned_seconds) {
    // stod took all of these: inf and 1e10 then overflowed the deadline
    // into an instant timeout, and nan was echoed as "time_limit":null
    for (const char* bad : {"inf", "nan", "-5", " 5"}) {
        const cli_run r =
            run({"solve", "gen:counter:1", "--time-limit", bad});
        EXPECT_EQ(r.exit_code, 2) << "'" << bad << "'";
        EXPECT_NE(r.err.find("--time-limit"), std::string::npos) << r.err;
        EXPECT_EQ(run_fuzz_tool(std::string("--seeds 1 --family counter "
                                            "--no-shrink --time-limit '") +
                                bad + "'"),
                  2)
            << "leq_fuzz '" << bad << "'";
    }
    EXPECT_EQ(run_fuzz_tool("--seeds 1 --family counter --no-shrink "
                            "--time-limit 5"),
              0);
}

TEST(cli_errors, fuzz_rejects_zero_seeds) {
    // a fuzz gate that runs no scenario must not pass
    EXPECT_EQ(run_fuzz_tool("--seeds 0"), 2);
    EXPECT_EQ(run_fuzz_tool("--seeds 0 --family counter"), 2);
}

TEST(cli_solve, time_limit_beyond_the_clock_range_is_unlimited) {
    const cli_run r = run({"solve", "gen:counter:1", "--time-limit", "1e10",
                           "--no-timing"});
    EXPECT_EQ(r.exit_code, 0) << r.err;
    EXPECT_EQ(raw_field(first_line(r.out), "status"), "\"ok\"");
}

TEST(cli_errors, removed_ablation_flags_are_rejected) {
    const cli_run strategy =
        run({"solve", "gen:counter:1", "--strategy", "frontier"});
    EXPECT_EQ(strategy.exit_code, 2);
    EXPECT_NE(strategy.err.find("--strategy"), std::string::npos)
        << strategy.err;
    for (const char* flag : {"--no-early-quant", "--no-trim"}) {
        const cli_run r = run({"solve", "gen:counter:1", flag});
        EXPECT_EQ(r.exit_code, 2) << flag;
        EXPECT_NE(r.err.find(flag), std::string::npos) << r.err;
    }
    const cli_run none =
        run({"solve", "gen:counter:1", "--policy", "none"});
    EXPECT_EQ(none.exit_code, 2);
    EXPECT_NE(none.err.find("--policy"), std::string::npos) << none.err;
}

TEST(cli_count, seconds_are_finite_and_unsigned) {
    EXPECT_EQ(parse_seconds("0"), 0.0);
    EXPECT_EQ(parse_seconds("2.5"), 2.5);
    EXPECT_EQ(parse_seconds("1e3"), 1000.0);
    EXPECT_EQ(parse_seconds(".5"), 0.5);
    for (const char* bad : {"", "-5", "+5", "-0", " 5", "5 ", "30s", "inf",
                            "nan", "infinity", "1e999", "0x10"}) {
        EXPECT_FALSE(parse_seconds(bad).has_value()) << "'" << bad << "'";
    }
}

TEST(cli_count, digits_only_and_range_checked) {
    EXPECT_EQ(parse_count("0"), 0u);
    EXPECT_EQ(parse_count("42"), 42u);
    EXPECT_EQ(parse_count("18446744073709551615"), UINT64_MAX);
    EXPECT_EQ(parse_count("4294967295", UINT32_MAX), UINT32_MAX);
    // what std::stoul would wrap, skip or truncate
    for (const char* bad : {"", "-1", "+1", " 1", "1 ", "0x10", "1e3", "7abc",
                            "18446744073709551616"}) {
        EXPECT_FALSE(parse_count(bad).has_value()) << "'" << bad << "'";
    }
    EXPECT_FALSE(parse_count("4294967296", UINT32_MAX).has_value());
}

TEST(cli_errors, help_is_not_an_error) {
    EXPECT_EQ(run({"--help"}).exit_code, 0);
    EXPECT_EQ(run({"help"}).exit_code, 0);
    EXPECT_EQ(run({"solve", "--help"}).exit_code, 0);
}

TEST(cli_errors, missing_impl_is_unreadable_input) {
    EXPECT_EQ(run({"diagnose", example("passthrough_f.kiss"),
                   example("passthrough_s.kiss"), "--impl",
                   "no_such_impl.kiss"})
                  .exit_code,
              3);
}

TEST(cli_errors, batch_rejects_shared_out_path) {
    EXPECT_EQ(run({"batch", example("campaign.txt"), "--command", "reduce",
                   "--out", "x.kiss"})
                  .exit_code,
              2);
}

TEST(cli_solve, single_run_and_batch_agree_on_default_names) {
    // "passthrough_f.kiss" → "passthrough", same as the manifest default
    const cli_run r = run({"solve", example("passthrough_f.kiss"),
                           example("passthrough_s.kiss")});
    EXPECT_EQ(raw_field(first_line(r.out), "name"), "\"passthrough\"");
}

TEST(cli_errors, malformed_input_is_a_job_error) {
    const std::string bad = temp_path("bad.kiss");
    // no transitions; a header width that no row has (checked before
    // anything is sized from it)
    for (const char* text :
         {".i 1\n.o 1\n", ".i 99999999999\n.o 1\n.r a\n0 a a 1\n"}) {
        {
            std::ofstream out(bad);
            out << text;
        }
        const cli_run r = run({"solve", bad, bad});
        EXPECT_EQ(r.exit_code, 1);
        const std::string line = first_line(r.out);
        EXPECT_TRUE(valid_json_object(line)) << line;
        EXPECT_EQ(raw_field(line, "status"), "\"error\"");
        EXPECT_EQ(raw_field(line, "error").rfind("\"kiss:", 0), 0u) << line;
    }
    std::remove(bad.c_str());
}

TEST(cli_errors, missing_manifest) {
    EXPECT_EQ(run({"batch", "no_such_manifest.txt"}).exit_code, 3);
}

TEST(cli_errors, malformed_manifest_line) {
    const std::string manifest = temp_path("bad_manifest.txt");
    {
        std::ofstream out(manifest);
        out << "only_one_token\n";
    }
    EXPECT_EQ(run({"batch", manifest}).exit_code, 3);
    std::remove(manifest.c_str());
}

// ---------------------------------------------------------------------------
// batch
// ---------------------------------------------------------------------------

TEST(cli_batch, four_threads_match_sequential_byte_for_byte) {
    const std::string manifest = example("campaign.txt");
    const cli_run seq = run({"batch", manifest, "--jobs", "1"});
    const cli_run par = run({"batch", manifest, "--jobs", "4"});
    EXPECT_EQ(seq.exit_code, 0) << seq.err;
    EXPECT_EQ(par.exit_code, 0) << par.err;
    EXPECT_EQ(seq.out, par.out); // ordered, untimed records: identical
    // every record is valid JSON and the campaign covers the whole manifest
    std::istringstream lines(seq.out);
    std::string line;
    std::size_t records = 0;
    while (std::getline(lines, line)) {
        EXPECT_TRUE(valid_json_object(line)) << line;
        ++records;
    }
    EXPECT_EQ(records, 6u);
    EXPECT_NE(seq.err.find("6 equation(s)"), std::string::npos) << seq.err;
}

TEST(cli_batch, per_job_failures_do_not_kill_the_campaign) {
    const std::string manifest = temp_path("mixed_manifest.txt");
    {
        std::ofstream out(manifest);
        out << example("passthrough_f.kiss") << " "
            << example("passthrough_s.kiss") << " good\n"
            << "gen:counter:3 generated\n";
    }
    // library-level: a job whose input is unreadable at run time errors
    // alone (sources are slurped up front, so simulate with a bad text)
    std::vector<batch_job> jobs = read_manifest_file(manifest);
    ASSERT_EQ(jobs.size(), 2u);
    jobs[0].fixed.text = "garbage";
    batch_options options;
    options.jobs = 2;
    const batch_report report = run_batch(jobs, options);
    EXPECT_EQ(report.errors, 1u);
    EXPECT_EQ(report.solved, 1u);
    EXPECT_FALSE(report.records[0].completed);
    EXPECT_TRUE(report.records[1].completed);
    std::remove(manifest.c_str());
}

TEST(cli_batch, failed_checks_fail_the_campaign_exit_code) {
    // a job that solves but fails its diagnose check must flip the
    // campaign to exit 1 (parity with `leq diagnose F S --impl ...`)
    const std::string impl = temp_path("campaign_bad_impl.kiss");
    {
        std::ofstream out(impl);
        out << ".i 1\n.o 1\n.s 1\n.p 2\n.r s0\n"
               "0 s0 s0 0\n1 s0 s0 1\n.e\n";
    }
    const std::string manifest = temp_path("check_fail_manifest.txt");
    {
        std::ofstream out(manifest);
        out << example("inverter_f.kiss") << " "
            << example("inverter_s.kiss") << "\n";
    }
    const cli_run r = run({"batch", manifest, "--command", "diagnose",
                           "--impl", impl});
    EXPECT_EQ(r.exit_code, 1);
    EXPECT_NE(r.err.find("1 failed check(s)"), std::string::npos) << r.err;
    std::remove(impl.c_str());
    std::remove(manifest.c_str());
}

TEST(cli_batch, verify_command_applies_to_every_job) {
    const std::string manifest = temp_path("verify_manifest.txt");
    {
        std::ofstream out(manifest);
        out << example("passthrough_f.kiss") << " "
            << example("passthrough_s.kiss") << "\n"
            << example("delay_f.blif") << " " << example("delay_s.blif")
            << "\n";
    }
    const cli_run r =
        run({"batch", manifest, "--jobs", "2", "--command", "verify"});
    EXPECT_EQ(r.exit_code, 0) << r.err;
    std::istringstream lines(r.out);
    std::string line;
    while (std::getline(lines, line)) {
        EXPECT_EQ(raw_field(line, "composition_ok"), "true") << line;
    }
    std::remove(manifest.c_str());
}

} // namespace
