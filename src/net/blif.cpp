/// \file blif.cpp
/// \brief BLIF parsing and serialization.

#include "net/blif.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace leq {

namespace {

std::vector<std::string> tokenize(const std::string& line) {
    std::vector<std::string> tokens;
    std::istringstream ss(line);
    std::string token;
    while (ss >> token) { tokens.push_back(token); }
    return tokens;
}

} // namespace

network read_blif(std::istream& in) {
    network net;
    std::string raw;
    std::size_t line_no = 0;

    // pending .names state: fanins+output, then cube rows until next keyword
    std::vector<std::string> names_args;
    std::vector<std::string> on_cubes, off_cubes;
    bool in_names = false;

    const auto flush_names = [&]() {
        if (!in_names) { return; }
        const std::string output = names_args.back();
        std::vector<std::string> fanins(names_args.begin(),
                                        names_args.end() - 1);
        if (!on_cubes.empty() && !off_cubes.empty()) {
            throw std::runtime_error("blif: node '" + output +
                                     "' mixes on-set and off-set rows");
        }
        const bool complemented = !off_cubes.empty();
        net.add_node(output, fanins, complemented ? off_cubes : on_cubes,
                     complemented);
        names_args.clear();
        on_cubes.clear();
        off_cubes.clear();
        in_names = false;
    };

    const auto fail = [&](const std::string& message) {
        throw std::runtime_error("blif:" + std::to_string(line_no) + ": " +
                                 message);
    };

    bool saw_directive = false;
    std::string pending; // accumulates '\' continuations
    while (std::getline(in, raw)) {
        ++line_no;
        const std::size_t hash = raw.find('#');
        if (hash != std::string::npos) { raw.erase(hash); }
        // line continuation
        std::string line = pending + raw;
        pending.clear();
        if (!line.empty() && line.back() == '\\') {
            pending = line.substr(0, line.size() - 1) + " ";
            continue;
        }
        const std::vector<std::string> tokens = tokenize(line);
        if (tokens.empty()) { continue; }
        const std::string& head = tokens[0];
        if (head[0] == '.') {
            saw_directive = true;
            if (head == ".names") {
                flush_names();
                if (tokens.size() < 2) { fail(".names needs an output"); }
                names_args.assign(tokens.begin() + 1, tokens.end());
                in_names = true;
            } else if (head == ".model") {
                flush_names();
                if (tokens.size() >= 2) { net.set_name(tokens[1]); }
            } else if (head == ".inputs") {
                flush_names();
                for (std::size_t k = 1; k < tokens.size(); ++k) {
                    net.add_input(tokens[k]);
                }
            } else if (head == ".outputs") {
                flush_names();
                for (std::size_t k = 1; k < tokens.size(); ++k) {
                    net.add_output(tokens[k]);
                }
            } else if (head == ".latch") {
                flush_names();
                if (tokens.size() < 3) { fail(".latch needs input and output"); }
                // forms: .latch in out [init] | .latch in out type clock [init]
                if (tokens.size() > 6) { fail(".latch has too many fields"); }
                bool init = false;
                if (tokens.size() == 4 || tokens.size() == 6) {
                    const std::string& value = tokens.back();
                    if (value != "0" && value != "1" && value != "2" &&
                        value != "3") {
                        fail("bad .latch init value '" + value +
                             "' (expected 0, 1, 2 or 3)");
                    }
                    init = value == "1"; // 2/3 (don't care/unknown): choose 0
                }
                net.add_latch(tokens[1], tokens[2], init);
            } else if (head == ".end") {
                flush_names();
                break;
            } else if (head == ".exdc" || head == ".wire_load_slope" ||
                       head == ".default_input_arrival") {
                flush_names(); // ignored extensions
            } else {
                fail("unsupported construct '" + head + "'");
            }
        } else {
            if (!in_names) { fail("cube row outside .names"); }
            if (tokens.size() == 1 && names_args.size() == 1) {
                // constant node: single output column
                if (tokens[0] == "1") {
                    on_cubes.push_back("");
                } else if (tokens[0] == "0") {
                    off_cubes.push_back("");
                } else {
                    fail("bad constant row");
                }
            } else {
                if (tokens.size() != 2) { fail("bad cube row"); }
                if (tokens[0].size() != names_args.size() - 1) {
                    fail("cube width mismatch");
                }
                for (const char ch : tokens[0]) {
                    if (ch != '0' && ch != '1' && ch != '-') {
                        fail("bad cube character");
                    }
                }
                if (tokens[1] == "1") {
                    on_cubes.push_back(tokens[0]);
                } else if (tokens[1] == "0") {
                    off_cubes.push_back(tokens[0]);
                } else {
                    fail("bad cube output value");
                }
            }
        }
    }
    flush_names();
    if (!saw_directive) {
        throw std::runtime_error("blif: no directives found (empty input?)");
    }
    net.validate();
    return net;
}

network read_blif_string(const std::string& text) {
    std::istringstream in(text);
    return read_blif(in);
}

network read_blif_file(const std::string& path) {
    std::ifstream in(path);
    if (!in) { throw std::runtime_error("blif: cannot open '" + path + "'"); }
    return read_blif(in);
}

void write_blif(const network& net, std::ostream& out) {
    out << ".model " << net.name() << "\n.inputs";
    for (const std::uint32_t s : net.inputs()) {
        out << " " << net.signal_name(s);
    }
    out << "\n.outputs";
    for (const std::uint32_t s : net.outputs()) {
        out << " " << net.signal_name(s);
    }
    out << "\n";
    for (const latch& l : net.latches()) {
        out << ".latch " << net.signal_name(l.input) << " "
            << net.signal_name(l.output) << " " << (l.init ? 1 : 0) << "\n";
    }
    for (const logic_node& node : net.nodes()) {
        out << ".names";
        for (const std::uint32_t f : node.fanins) {
            out << " " << net.signal_name(f);
        }
        out << " " << net.signal_name(node.output) << "\n";
        const char value = node.complemented ? '0' : '1';
        for (const sop_cube& cube : node.cubes) {
            for (const std::uint8_t lit : cube.literals) {
                out << (lit == 2 ? '-' : static_cast<char>('0' + lit));
            }
            out << (cube.literals.empty() ? "" : " ") << value << "\n";
        }
        if (node.cubes.empty()) {
            // constant: non-complemented empty cover is 0 -> no row needed in
            // BLIF (a .names with no rows is constant 0); complemented is 1
            if (node.complemented) { out << "1\n"; }
        }
    }
    out << ".end\n";
}

std::string write_blif_string(const network& net) {
    std::ostringstream out;
    write_blif(net, out);
    return out.str();
}

} // namespace leq
