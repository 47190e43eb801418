/// \file leqtool.cpp
/// \brief Command-line driver for the library: solve, extract, resynth,
/// check, subsol, reach, stg, gen.  The tool a downstream user scripts
/// against.
///
/// Usage:
///   leqtool solve <circuit.blif> --xlatches N [--flow part|mono|both]
///                 [--limit SECONDS] [--dot FILE] [--no-verify]
///   leqtool extract <circuit.blif> --xlatches N --out IMPL.blif
///   leqtool resynth <circuit.blif> --xlatches N [--out FILE]
///                   [--no-minimize] [--limit SECONDS]
///   leqtool check <circuit.blif> --xlatches N --impl IMPL.blif
///   leqtool subsol <circuit.blif> --xlatches N [--out IMPL.blif]
///   leqtool reach <circuit.blif>
///   leqtool stg <circuit.blif> --dot FILE
///   leqtool gen <counter|lfsr|shiftxor|traffic|mix> [--bits N]
///               [--inputs N --outputs N --latches N --seed S] --out FILE
///
/// `solve` latch-splits the circuit (last N latches become the unknown),
/// computes the CSF, optionally cross-checks both flows and runs the
/// paper's verification.  `extract` additionally picks one implementation
/// FSM and writes it back as BLIF.  `resynth` runs the full rebuild
/// pipeline (Moore extraction, encoding, composition, verification).
/// `check` verifies a user-supplied implementation BLIF against the spec
/// and prints a counterexample trace when it fails.  `subsol` sweeps the
/// extraction policies and writes the smallest implementation found.

#include "automata/automaton_io.hpp"
#include "automata/encode.hpp"
#include "automata/kiss.hpp"
#include "automata/stg.hpp"
#include "eq/extract.hpp"
#include "eq/kiss_flow.hpp"
#include "eq/resynth.hpp"
#include "eq/solver.hpp"
#include "eq/subsolution.hpp"
#include "eq/verify.hpp"
#include "img/image.hpp"
#include "net/blif.hpp"
#include "net/generator.hpp"
#include "net/latch_split.hpp"
#include "net/netbdd.hpp"
#include "net/sweep.hpp"

#include <cstring>
#include <optional>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

using namespace leq;

struct args {
    std::vector<std::string> positional;
    std::map<std::string, std::string> options;
    bool flag(const std::string& name) const {
        return options.count(name) != 0;
    }
    std::string get(const std::string& name, const std::string& dflt) const {
        const auto it = options.find(name);
        return it == options.end() ? dflt : it->second;
    }
};

args parse(int argc, char** argv) {
    args a;
    for (int k = 2; k < argc; ++k) {
        const std::string tok = argv[k];
        if (tok.rfind("--", 0) == 0) {
            const std::string name = tok.substr(2);
            if (k + 1 < argc && argv[k + 1][0] != '-') {
                a.options[name] = argv[++k];
            } else {
                a.options[name] = "1";
            }
        } else {
            a.positional.push_back(tok);
        }
    }
    return a;
}

int usage() {
    std::cerr <<
        "usage:\n"
        "  leqtool solve <circuit.blif> --xlatches N [--flow part|mono|both]\n"
        "                [--limit SECONDS] [--dot FILE] [--no-verify]\n"
        "  leqtool extract <circuit.blif> --xlatches N --out IMPL.blif\n"
        "  leqtool resynth <circuit.blif> --xlatches N [--out FILE]\n"
        "                  [--no-minimize] [--limit SECONDS]\n"
        "  leqtool check <circuit.blif> --xlatches N --impl IMPL.blif\n"
        "  leqtool subsol <circuit.blif> --xlatches N [--out IMPL.blif]\n"
        "  leqtool sweep <circuit.blif> --out FILE\n"
        "  leqtool solvekiss <F.kiss> <S.kiss> [--limit SECONDS]\n"
        "                    [--out X.kiss]\n"
        "  leqtool reach <circuit.blif> [--layers]\n"
        "  leqtool stg <circuit.blif> --dot FILE\n"
        "  leqtool gen <counter|lfsr|shiftxor|traffic|mix> [--bits N]\n"
        "              [--inputs N --outputs N --latches N --seed S] --out FILE\n";
    return 2;
}

/// Shared front end for the split-based commands: read, range-check, split.
struct split_setup {
    network circuit;
    split_result split;
};

std::optional<split_setup> load_split(const args& a) {
    if (a.positional.empty() || !a.flag("xlatches")) { return std::nullopt; }
    network circuit = read_blif_file(a.positional[0]);
    const auto xl =
        static_cast<std::size_t>(std::stoul(a.get("xlatches", "1")));
    if (xl == 0 || xl > circuit.num_latches()) {
        std::cerr << "leqtool: --xlatches out of range (circuit has "
                  << circuit.num_latches() << " latches)\n";
        return std::nullopt;
    }
    split_result split = split_last_latches(circuit, xl);
    return split_setup{std::move(circuit), std::move(split)};
}

int cmd_resynth(const args& a) {
    const auto setup = load_split(a);
    if (!setup.has_value()) { return usage(); }
    resynth_options options;
    options.solve.time_limit_seconds = std::stod(a.get("limit", "300"));
    options.minimize_states = !a.flag("no-minimize");
    std::vector<std::size_t> cut;
    for (std::size_t k = setup->split.part.num_latches(); k > 0; --k) {
        cut.push_back(setup->circuit.num_latches() - k);
    }
    const resynth_result r = resynthesize(setup->circuit, cut, options);
    if (!r.solved) {
        std::cout << "did not complete within limits\n";
        return 1;
    }
    std::cout << "CSF: " << r.csf_states << " states\n";
    if (!r.rebuilt) {
        std::cout << "no greedy Moore sub-solution; circuit not rebuilt\n";
        return 1;
    }
    std::cout << "replacement: " << r.x_states << " states, "
              << r.x_latches_after << " latches (cut had "
              << r.x_latches_before << ")\n"
              << "verification: " << (r.verified ? "ok" : "FAILED") << "\n";
    const std::string path = a.get("out", "resynth.blif");
    std::ofstream out(path);
    write_blif(r.optimized, out);
    std::cout << "wrote " << path << "\n";
    return r.verified ? 0 : 1;
}

int cmd_check(const args& a) {
    const auto setup = load_split(a);
    if (!setup.has_value() || !a.flag("impl")) { return usage(); }
    const network impl = read_blif_file(a.get("impl", ""));
    const equation_problem problem(setup->split.fixed, setup->circuit);
    if (impl.num_inputs() != problem.u_vars.size() ||
        impl.num_outputs() != problem.v_vars.size()) {
        std::cerr << "leqtool: implementation must have " <<
            problem.u_vars.size() << " inputs / " << problem.v_vars.size()
                  << " outputs\n";
        return 2;
    }
    const automaton x = network_to_automaton(problem.mgr(), impl,
                                             problem.u_vars, problem.v_vars);
    std::cout << "implementation: " << x.num_states() << " states\n";
    const verify_diagnosis d = diagnose_composition_contained(problem, x);
    std::cout << format_diagnosis(d);
    return d.ok ? 0 : 1;
}

int cmd_subsol(const args& a) {
    const auto setup = load_split(a);
    if (!setup.has_value()) { return usage(); }
    const equation_problem problem(setup->split.fixed, setup->circuit);
    solve_options options;
    options.time_limit_seconds = std::stod(a.get("limit", "300"));
    const solve_result result = solve_partitioned(problem, options);
    if (result.status != solve_status::ok) {
        std::cout << "did not complete within limits\n";
        return 1;
    }
    if (result.empty_solution) {
        std::cout << "the equation has no solution\n";
        return 1;
    }
    std::cout << "CSF: " << result.csf_states << " states\n";
    const subsolution_result sel = select_small_subsolution(
        *result.csf, problem.u_vars, problem.v_vars);
    for (const subsolution_candidate& c : sel.candidates) {
        std::cout << "  " << to_string(c.policy) << ": " << c.raw_states
                  << " -> " << c.minimized_states << " states\n";
    }
    std::cout << "winner: " << to_string(sel.policy) << " ("
              << sel.fsm.num_states() << " states)\n";
    // quantitative flexibility: how many behaviours the commitment kept
    for (const std::size_t len : {2, 4, 6}) {
        std::cout << "  words@" << len << ": CSF "
                  << count_words(*result.csf, len) << ", winner "
                  << count_words(sel.fsm, len) << "\n";
    }
    if (a.flag("out")) {
        std::vector<std::string> ins, outs;
        for (std::size_t k = 0; k < problem.u_vars.size(); ++k) {
            ins.push_back("u" + std::to_string(k));
        }
        for (std::size_t k = 0; k < problem.v_vars.size(); ++k) {
            outs.push_back("v" + std::to_string(k));
        }
        const network impl = automaton_to_network(
            sel.fsm, problem.u_vars, problem.v_vars, ins, outs,
            setup->circuit.name() + "_xsmall");
        const std::string path = a.get("out", "impl.blif");
        std::ofstream out(path);
        write_blif(impl, out);
        std::cout << "wrote " << path << "\n";
    }
    return 0;
}

int cmd_solve(const args& a, bool do_extract) {
    if (a.positional.empty() || !a.flag("xlatches")) { return usage(); }
    const network circuit = read_blif_file(a.positional[0]);
    const auto xl = static_cast<std::size_t>(std::stoul(a.get("xlatches", "1")));
    if (xl == 0 || xl > circuit.num_latches()) {
        std::cerr << "leqtool: --xlatches out of range (circuit has "
                  << circuit.num_latches() << " latches)\n";
        return 2;
    }
    const split_result split = split_last_latches(circuit, xl);
    const equation_problem problem(split.fixed, circuit);
    solve_options options;
    options.time_limit_seconds = std::stod(a.get("limit", "300"));

    const std::string flow = a.get("flow", "part");
    solve_result result = flow == "mono" ? solve_monolithic(problem, options)
                                         : solve_partitioned(problem, options);
    if (result.status != solve_status::ok) {
        std::cout << "did not complete within limits\n";
        return 1;
    }
    std::cout << "CSF: " << result.csf_states << " states, "
              << result.csf->num_transitions() << " transitions, "
              << result.seconds << "s ("
              << result.subset_states_explored << " subsets)\n";
    if (result.empty_solution) {
        std::cout << "the equation has no prefix-closed progressive solution\n";
        return 0;
    }
    if (flow == "both") {
        const solve_result mono = solve_monolithic(problem, options);
        if (mono.status == solve_status::ok) {
            std::cout << "monolithic: " << mono.seconds << "s; languages "
                      << (language_equivalent(*result.csf, *mono.csf)
                              ? "agree"
                              : "DISAGREE")
                      << "\n";
        } else {
            std::cout << "monolithic: did not complete (CNC)\n";
        }
    }
    if (!a.flag("no-verify")) {
        const bool c1 = verify_particular_contained(
            problem, *result.csf, split.part.initial_state());
        const bool c2 = verify_composition_contained(problem, *result.csf);
        std::cout << "verify: Xp<=X " << (c1 ? "ok" : "FAIL") << ", F.X<=S "
                  << (c2 ? "ok" : "FAIL") << "\n";
        if (!c1 || !c2) { return 1; }
    }
    var_names names(problem.mgr().num_vars());
    names.label(problem.u_vars, "u");
    names.label(problem.v_vars, "v");
    if (a.flag("dot")) {
        std::ofstream out(a.get("dot", "csf.dot"));
        write_dot(out, *result.csf, names.get(), "csf");
        std::cout << "wrote " << a.get("dot", "csf.dot") << "\n";
    }
    if (do_extract) {
        const automaton fsm =
            extract_fsm(*result.csf, problem.u_vars, problem.v_vars);
        std::vector<std::string> ins, outs;
        for (std::size_t k = 0; k < problem.u_vars.size(); ++k) {
            ins.push_back("u" + std::to_string(k));
        }
        for (std::size_t k = 0; k < problem.v_vars.size(); ++k) {
            outs.push_back("v" + std::to_string(k));
        }
        const network impl = automaton_to_network(
            fsm, problem.u_vars, problem.v_vars, ins, outs,
            circuit.name() + "_ximpl");
        const std::string path = a.get("out", "impl.blif");
        std::ofstream out(path);
        write_blif(impl, out);
        std::cout << "extracted " << fsm.num_states()
                  << "-state implementation -> " << path << "\n";
    }
    return 0;
}

int cmd_solvekiss(const args& a) {
    if (a.positional.size() < 2) { return usage(); }
    const auto slurp = [](const std::string& path) {
        std::ifstream in(path);
        if (!in) {
            throw std::runtime_error("cannot open " + path);
        }
        std::ostringstream text;
        text << in.rdbuf();
        return text.str();
    };
    solve_options options;
    options.time_limit_seconds = std::stod(a.get("limit", "300"));
    const kiss_solution sol = solve_kiss(slurp(a.positional[0]),
                                         slurp(a.positional[1]), options);
    if (sol.result.status != solve_status::ok) {
        std::cout << "did not complete within limits\n";
        return 1;
    }
    std::cout << "CSF: " << sol.result.csf_states << " states ("
              << sol.result.seconds << "s)\n";
    if (sol.result.empty_solution) {
        std::cout << "the equation has no solution\n";
        return 1;
    }
    const equation_problem& problem = *sol.instance.problem;
    if (a.flag("out")) {
        const subsolution_result sel = select_small_subsolution(
            *sol.result.csf, problem.u_vars, problem.v_vars);
        const std::string path = a.get("out", "x.kiss");
        std::ofstream out(path);
        write_kiss(out, sel.fsm, problem.u_vars, problem.v_vars);
        std::cout << "wrote " << sel.fsm.num_states() << "-state solution -> "
                  << path << "\n";
    }
    return 0;
}

int cmd_sweep(const args& a) {
    if (a.positional.empty()) { return usage(); }
    const network net = read_blif_file(a.positional[0]);
    sweep_stats stats;
    const network swept = sweep_network(net, &stats);
    std::cout << net.name() << ": nodes " << stats.nodes_before << " -> "
              << stats.nodes_after << ", latches " << stats.latches_before
              << " -> " << stats.latches_after << " (constants "
              << stats.constants_propagated << ", wires "
              << stats.wires_collapsed << ")\n";
    const std::string path = a.get("out", "swept.blif");
    std::ofstream out(path);
    write_blif(swept, out);
    std::cout << "wrote " << path << "\n";
    return 0;
}

int cmd_reach(const args& a) {
    if (a.positional.empty()) { return usage(); }
    const network net = read_blif_file(a.positional[0]);
    bdd_manager mgr(0, bdd_manager_options{/*cache_bits=*/20});
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
    const reach_info info =
        reachable_states_layered(mgr, fns.next_state, cs, ns, in, init);
    std::cout << net.name() << ": " << info.total_states
              << " reachable states out of " << (1ull << cs.size()) << " ("
              << mgr.dag_size(info.reached) << " BDD nodes), sequential depth "
              << info.depth << "\n";
    if (a.flag("layers")) {
        for (std::size_t d = 0; d < info.layer_states.size(); ++d) {
            std::cout << "  layer " << d << ": " << info.layer_states[d]
                      << " new state(s)\n";
        }
    }
    return 0;
}

int cmd_stg(const args& a) {
    if (a.positional.empty()) { return usage(); }
    const network net = read_blif_file(a.positional[0]);
    bdd_manager mgr;
    std::vector<std::uint32_t> in, out;
    for (std::size_t k = 0; k < net.num_inputs(); ++k) {
        in.push_back(mgr.new_var());
    }
    for (std::size_t k = 0; k < net.num_outputs(); ++k) {
        out.push_back(mgr.new_var());
    }
    const automaton aut = network_to_automaton(mgr, net, in, out);
    std::cout << net.name() << ": " << aut.num_states() << " states, "
              << aut.num_transitions() << " transitions\n";
    var_names names(mgr.num_vars());
    names.label(in, "i");
    names.label(out, "o");
    if (a.flag("dot")) {
        std::ofstream dot(a.get("dot", "stg.dot"));
        write_dot(dot, aut, names.get(), "stg");
        std::cout << "wrote " << a.get("dot", "stg.dot") << "\n";
    }
    return 0;
}

int cmd_gen(const args& a) {
    if (a.positional.empty()) { return usage(); }
    const std::string family = a.positional[0];
    const auto bits = static_cast<std::size_t>(std::stoul(a.get("bits", "8")));
    network net;
    if (family == "counter") {
        net = make_counter(bits);
    } else if (family == "lfsr") {
        net = make_lfsr(bits, {1, bits / 2});
    } else if (family == "shiftxor") {
        net = make_shift_xor(bits);
    } else if (family == "traffic") {
        net = make_traffic_controller();
    } else if (family == "mix") {
        structured_spec spec;
        spec.num_inputs =
            static_cast<std::size_t>(std::stoul(a.get("inputs", "3")));
        spec.num_outputs =
            static_cast<std::size_t>(std::stoul(a.get("outputs", "6")));
        spec.num_latches =
            static_cast<std::size_t>(std::stoul(a.get("latches", "12")));
        spec.seed = static_cast<std::uint32_t>(std::stoul(a.get("seed", "1")));
        net = make_structured_mix(spec);
    } else {
        return usage();
    }
    const std::string path = a.get("out", family + ".blif");
    std::ofstream out(path);
    write_blif(net, out);
    std::cout << "wrote " << path << " (" << net.num_inputs() << "/"
              << net.num_outputs() << "/" << net.num_latches() << ")\n";
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    if (argc < 2) { return usage(); }
    const std::string cmd = argv[1];
    const args a = parse(argc, argv);
    try {
        if (cmd == "solve") { return cmd_solve(a, false); }
        if (cmd == "extract") { return cmd_solve(a, true); }
        if (cmd == "resynth") { return cmd_resynth(a); }
        if (cmd == "check") { return cmd_check(a); }
        if (cmd == "subsol") { return cmd_subsol(a); }
        if (cmd == "sweep") { return cmd_sweep(a); }
        if (cmd == "solvekiss") { return cmd_solvekiss(a); }
        if (cmd == "reach") { return cmd_reach(a); }
        if (cmd == "stg") { return cmd_stg(a); }
        if (cmd == "gen") { return cmd_gen(a); }
    } catch (const std::exception& e) {
        std::cerr << "leqtool: " << e.what() << "\n";
        return 1;
    }
    return usage();
}
