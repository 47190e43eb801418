/// \file cli.cpp
/// \brief Flag parsing and subcommand dispatch for the `leq` tool.

#include "cli/cli.hpp"

#include "cli/batch.hpp"
#include "cli/count.hpp"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <ostream>
#include <stdexcept>

namespace leq {

namespace {

int usage(std::ostream& err) {
    err << "usage: leq <command> [arguments] [options]\n"
        << "\n"
        << "commands:\n"
        << "  solve F S        compute the CSF of F . X <= S; one JSON line\n"
        << "  verify F S       solve, then check F . X <= S symbolically\n"
        << "  diagnose F S     solve, then diagnose the CSF (or --impl X)\n"
        << "                   with a counterexample trace on failure\n"
        << "  reduce F S       solve, then reduce the CSF to a small FSM\n"
        << "  batch MANIFEST   run a manifest of equations on a thread pool\n"
        << "\n"
        << "F and S are BLIF or KISS2 files (detected by extension, then\n"
        << "content); `gen:FAMILY[:SEED[:SCALE]]` in place of the pair\n"
        << "generates a fuzz-scenario instance (seed defaults to\n"
        << "LEQ_TEST_SEED or 1; each doubling of SCALE adds a state bit).\n"
        << "\n"
        << "solver options (all commands):\n"
        << "  --flow F         partitioned (default) | monolithic | explicit\n"
        << "                   (explicit is the exponential Algorithm-1\n"
        << "                   oracle for small instances; it ignores\n"
        << "                   --time-limit/--max-states and solver knobs)\n"
        << "  --policy P       greedy (default) | affinity\n"
        << "  --cluster-limit N   merged-cluster node bound (default 2500;\n"
        << "                   0 keeps one cluster per relation part)\n"
        << "  --collect-stats     track peak intermediate product sizes\n"
        << "  --time-limit SEC    wall-clock deadline per solve (default 0)\n"
        << "  --max-states N      subset-state cap per solve (default 0)\n"
        << "  --cache-bits B      initial computed-cache size 2^B, 8..30\n"
        << "                   (default 18; the cache grows with the node\n"
        << "                   arena up to --max-cache-bits)\n"
        << "  --max-cache-bits B  computed-cache growth ceiling 2^B, 8..30\n"
        << "                   (default 24; B == --cache-bits pins a fixed\n"
        << "                   cache)\n"
        << "  --gc-threshold N    allocated-node GC trigger floor\n"
        << "                   (default 16384)\n"
        << "  --choice-inputs N   trailing F inputs are choice inputs w\n"
        << "                   (F S files only: gen: sets its own count)\n"
        << "  --name NAME         job label in the JSON record\n"
        << "  --timing | --no-timing   include wall-clock fields (default:\n"
        << "                   on, except in batch mode)\n"
        << "\n"
        << "command options:\n"
        << "  diagnose: --impl X.kiss   candidate implementation over (u,v)\n"
        << "  reduce:   --out X.kiss    write the reduced machine\n"
        << "  batch:    --jobs N        worker threads (default 1; 0 = all\n"
        << "                            cores), one BDD manager per worker\n"
        << "            --command C     per-job command (default solve)\n"
        << "\n"
        << "exit codes: 0 solved (JSON carries \"solution\":\"empty\" for\n"
        << "unsolvable equations), 1 gave up or check failed, 2 usage,\n"
        << "3 unreadable inputs\n";
    return 2;
}

/// Everything parsed off the command line.
struct parsed_args {
    std::vector<std::string> positional;
    cli_config config;
    std::string name;
    std::size_t jobs = 1;
    std::string batch_command = "solve";
    bool timing_set = false; ///< explicit --timing/--no-timing
    bool choice_inputs_set = false; ///< explicit --choice-inputs
};

/// Parse flags into `parsed`; returns an exit code to bail with, or -1.
int parse_flags(const std::vector<std::string>& args, parsed_args& parsed,
                std::ostream& err) {
    for (std::size_t k = 0; k < args.size(); ++k) {
        const std::string& arg = args[k];
        const auto value = [&]() -> const std::string* {
            if (k + 1 >= args.size()) { return nullptr; }
            return &args[++k];
        };
        const auto numeric = [&](const char* flag,
                                 std::size_t& dst) -> bool {
            const std::string* v = value();
            if (v == nullptr) {
                err << "leq: " << flag << " needs a value\n";
                return false;
            }
            const auto count = parse_count(*v, SIZE_MAX);
            if (!count.has_value()) {
                err << "leq: bad value for " << flag << ": '" << *v << "'\n";
                return false;
            }
            dst = static_cast<std::size_t>(*count);
            return true;
        };

        if (arg.empty() || arg[0] != '-') {
            parsed.positional.push_back(arg);
            continue;
        }
        if (arg == "--help" || arg == "-h") {
            usage(err); // asking for help is not a usage *error*
            return 0;
        }
        if (arg == "--flow") {
            const std::string* v = value();
            if (v == nullptr ||
                (*v != "partitioned" && *v != "monolithic" &&
                 *v != "explicit")) {
                err << "leq: --flow needs partitioned|monolithic|explicit\n";
                return 2;
            }
            parsed.config.flow = *v;
        } else if (arg == "--policy") {
            const std::string* v = value();
            image_options& img = parsed.config.solve.img;
            if (v == nullptr) {
                err << "leq: --policy needs greedy|affinity\n";
                return 2;
            } else if (*v == "greedy") {
                img.policy = cluster_policy::greedy;
            } else if (*v == "affinity") {
                img.policy = cluster_policy::affinity;
            } else {
                err << "leq: unknown cluster policy '" << *v
                    << "' for --policy (greedy|affinity)\n";
                return 2;
            }
        } else if (arg == "--cluster-limit") {
            if (!numeric("--cluster-limit",
                         parsed.config.solve.img.cluster_limit)) {
                return 2;
            }
        } else if (arg == "--collect-stats") {
            parsed.config.solve.img.collect_stats = true;
        } else if (arg == "--time-limit") {
            const std::string* v = value();
            if (v == nullptr) {
                err << "leq: --time-limit needs a value\n";
                return 2;
            }
            const auto seconds = parse_seconds(*v);
            if (!seconds.has_value()) {
                err << "leq: bad value for --time-limit: '" << *v << "'\n";
                return 2;
            }
            parsed.config.solve.time_limit_seconds = *seconds;
        } else if (arg == "--max-states") {
            if (!numeric("--max-states",
                         parsed.config.solve.max_subset_states)) {
                return 2;
            }
        } else if (arg == "--cache-bits" || arg == "--max-cache-bits") {
            std::size_t bits = 0;
            if (!numeric(arg.c_str(), bits)) { return 2; }
            if (bits < 8 || bits > 30) {
                err << "leq: " << arg << " must be in 8..30\n";
                return 2;
            }
            bdd_manager_options& mem = parsed.config.solve.mem;
            unsigned& dst = arg == "--cache-bits" ? mem.cache_bits
                                                  : mem.max_cache_bits;
            dst = static_cast<unsigned>(bits);
        } else if (arg == "--gc-threshold") {
            if (!numeric("--gc-threshold",
                         parsed.config.solve.mem.gc_threshold)) {
                return 2;
            }
        } else if (arg == "--choice-inputs") {
            if (!numeric("--choice-inputs", parsed.config.choice_inputs)) {
                return 2;
            }
            parsed.choice_inputs_set = true;
        } else if (arg == "--name") {
            const std::string* v = value();
            if (v == nullptr) {
                err << "leq: --name needs a value\n";
                return 2;
            }
            parsed.name = *v;
        } else if (arg == "--impl") {
            const std::string* v = value();
            if (v == nullptr) {
                err << "leq: --impl needs a path\n";
                return 2;
            }
            parsed.config.impl_path = *v;
        } else if (arg == "--out") {
            const std::string* v = value();
            if (v == nullptr) {
                err << "leq: --out needs a path\n";
                return 2;
            }
            parsed.config.out_path = *v;
        } else if (arg == "--jobs") {
            if (!numeric("--jobs", parsed.jobs)) { return 2; }
        } else if (arg == "--command") {
            const std::string* v = value();
            if (v == nullptr ||
                (*v != "solve" && *v != "verify" && *v != "diagnose" &&
                 *v != "reduce")) {
                err << "leq: --command needs "
                       "solve|verify|diagnose|reduce\n";
                return 2;
            }
            parsed.batch_command = *v;
        } else if (arg == "--timing") {
            parsed.config.timing = true;
            parsed.timing_set = true;
        } else if (arg == "--no-timing") {
            parsed.config.timing = false;
            parsed.timing_set = true;
        } else {
            err << "leq: unknown option '" << arg << "'\n";
            return usage(err);
        }
    }
    // the ceiling never undercuts the floor, whichever flag came first;
    // the manager applies the same rule, so the record echoes what runs
    bdd_manager_options& mem = parsed.config.solve.mem;
    mem.max_cache_bits = std::max(mem.max_cache_bits, mem.cache_bits);
    return -1;
}

/// Resolve the positional arguments of a pair command into sources.
/// Returns an exit code to bail with, or -1 to proceed.
int resolve_pair(parsed_args& parsed, equation_source& fixed,
                 equation_source& spec, std::ostream& err) {
    if (parsed.positional.size() == 1 && is_gen_spec(parsed.positional[0])) {
        if (parsed.choice_inputs_set) {
            // the scenario fixes its own count; a silently replaced value
            // would label the record with a count the user did not ask for
            err << "leq: --choice-inputs does not apply to a gen: spec (the "
                   "scenario sets its own count)\n";
            return 2;
        }
        generated_pair pair = make_gen_pair(parsed.positional[0]);
        fixed = std::move(pair.fixed);
        spec = std::move(pair.spec);
        parsed.config.choice_inputs = pair.num_choice_inputs;
        if (parsed.name.empty()) {
            parsed.name = parsed.positional[0].substr(4);
        }
        return -1;
    }
    if (parsed.positional.size() != 2) {
        err << "leq: expected F and S files (or one gen:FAMILY[:SEED])\n";
        return usage(err);
    }
    fixed = read_equation_source(parsed.positional[0]);
    spec = read_equation_source(parsed.positional[1]);
    if (parsed.name.empty()) {
        parsed.name = default_job_name(parsed.positional[0]);
    }
    return -1;
}

/// --impl is an input: check it is readable before any solve work starts
/// (unreadable inputs are exit 3, not a per-job failure).  Returns an exit
/// code to bail with, or -1.
int preflight_impl(const parsed_args& parsed, std::ostream& err) {
    if (parsed.config.impl_path.empty()) { return -1; }
    std::ifstream impl(parsed.config.impl_path);
    if (!impl) {
        err << "leq: cannot open '" << parsed.config.impl_path << "'\n";
        return 3;
    }
    return -1;
}

int cmd_pair(const std::string& command, parsed_args& parsed,
             std::ostream& out, std::ostream& err) {
    equation_source fixed, spec;
    try {
        const int bail = resolve_pair(parsed, fixed, spec, err);
        if (bail >= 0) { return bail; }
    } catch (const std::exception& e) {
        err << "leq: " << e.what() << "\n";
        return 3;
    }
    const int impl_bail = preflight_impl(parsed, err);
    if (impl_bail >= 0) { return impl_bail; }
    const solve_record record =
        run_command(command, parsed.name, fixed, spec, parsed.config);
    out << record_to_json(record, parsed.config) << "\n";
    if (!record.completed) { err << "leq: " << record.error << "\n"; }
    if (record.has_diagnose && !record.diagnose_ok) {
        err << record.diagnose_trace; // human-readable copy of the trace
    }
    return record.exit_code();
}

int cmd_batch(parsed_args& parsed, std::ostream& out, std::ostream& err) {
    if (parsed.positional.size() != 1) {
        err << "leq: batch expects one manifest file\n";
        return usage(err);
    }
    if (!parsed.config.out_path.empty()) {
        // every worker would clobber the same file; per-job outputs need
        // per-job paths, which manifests do not carry
        err << "leq: --out is not supported in batch mode\n";
        return 2;
    }
    const int impl_bail = preflight_impl(parsed, err);
    if (impl_bail >= 0) { return impl_bail; }
    batch_options options;
    options.jobs = parsed.jobs;
    options.config = parsed.config;
    options.command = parsed.batch_command;
    if (!parsed.timing_set) {
        // deterministic records by default: equal campaigns are
        // byte-identical whatever --jobs is
        options.config.timing = false;
    }

    std::vector<batch_job> jobs;
    try {
        jobs = read_manifest_file(parsed.positional[0]);
    } catch (const std::exception& e) {
        err << "leq: " << e.what() << "\n";
        return 3;
    }

    const batch_report report = run_batch(jobs, options);
    for (const solve_record& record : report.records) {
        out << record_to_json(record, options.config) << "\n";
    }
    err << "leq batch: " << report.records.size() << " equation(s), "
        << report.solved << " solved, " << report.empty << " empty, "
        << report.gave_up << " gave up, " << report.errors << " error(s), "
        << report.check_failures << " failed check(s) ["
        << options.command << ", jobs "
        << (options.jobs == 0 ? std::string("auto")
                              : std::to_string(options.jobs))
        << ", " << report.wall_seconds << "s]\n";
    return report.all_ok() ? 0 : 1;
}

} // namespace

int run_leq_cli(const std::vector<std::string>& args, std::ostream& out,
                std::ostream& err) {
    if (args.empty()) { return usage(err); }
    const std::string command = args[0];
    parsed_args parsed;
    try {
        const int bail = parse_flags(
            {args.begin() + 1, args.end()}, parsed, err);
        if (bail >= 0) { return bail; }
        if (parsed.config.flow == "explicit" &&
            (parsed.config.solve.time_limit_seconds > 0 ||
             parsed.config.solve.max_subset_states > 0)) {
            // the Algorithm-1 oracle enumerates explicitly and supports no
            // deadline; a silent no-op limit would be a hang trap
            err << "leq: warning: --flow explicit ignores "
                   "--time-limit/--max-states\n";
        }
        if (command == "solve" || command == "verify" ||
            command == "diagnose" || command == "reduce") {
            return cmd_pair(command, parsed, out, err);
        }
        if (command == "batch") { return cmd_batch(parsed, out, err); }
        if (command == "--help" || command == "-h" || command == "help") {
            usage(err);
            return 0;
        }
    } catch (const std::exception& e) {
        err << "leq: " << e.what() << "\n";
        return 3;
    }
    err << "leq: unknown command '" << command << "'\n";
    return usage(err);
}

} // namespace leq
