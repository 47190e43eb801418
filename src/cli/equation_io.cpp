/// \file equation_io.cpp
/// \brief File loading and KISS/BLIF dispatch for the CLI.

#include "cli/equation_io.hpp"

#include "automata/kiss.hpp"
#include "cli/count.hpp"
#include "eq/kiss_flow.hpp"
#include "gen/scenario.hpp"
#include "net/blif.hpp"

#include <cstdint>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

namespace leq {

namespace {

/// One parsed side: a BLIF source yields the network directly; a KISS
/// source yields only its header widths here (the network needs the
/// partner's widths to pick port names, so it is encoded later).  Parses
/// each text exactly once either way.
struct parsed_side {
    std::size_t num_inputs = 0;
    std::size_t num_outputs = 0;
    std::optional<network> net; ///< set iff the source was BLIF
};

parsed_side parse_side(const equation_source& src) {
    parsed_side side;
    if (src.format == equation_format::kiss) {
        const kiss_header h = read_kiss_header(src.text);
        side.num_inputs = h.num_inputs;
        side.num_outputs = h.num_outputs;
    } else {
        side.net = read_blif_string(src.text);
        side.num_inputs = side.net->num_inputs();
        side.num_outputs = side.net->num_outputs();
    }
    return side;
}

} // namespace

equation_format detect_format(const std::string& path,
                              const std::string& text) {
    const auto ends_with = [&](const char* suffix) {
        const std::string s = suffix;
        return path.size() >= s.size() &&
               path.compare(path.size() - s.size(), s.size(), s) == 0;
    };
    if (ends_with(".blif")) { return equation_format::blif; }
    if (ends_with(".kiss") || ends_with(".kiss2")) {
        return equation_format::kiss;
    }
    return text.find(".model") != std::string::npos ? equation_format::blif
                                                    : equation_format::kiss;
}

std::string default_job_name(const std::string& f_path) {
    std::string name = f_path;
    const std::size_t slash = name.find_last_of('/');
    if (slash != std::string::npos) { name.erase(0, slash + 1); }
    const std::size_t dot = name.find_last_of('.');
    if (dot != std::string::npos) { name.erase(dot); }
    if (name.size() > 2 && name.compare(name.size() - 2, 2, "_f") == 0) {
        name.erase(name.size() - 2);
    }
    return name;
}

equation_source read_equation_source(const std::string& path) {
    std::ifstream in(path);
    if (!in) {
        throw std::runtime_error("cannot open '" + path + "'");
    }
    std::ostringstream text;
    text << in.rdbuf();
    equation_source src{path, text.str(), equation_format::kiss};
    src.format = detect_format(path, src.text);
    return src;
}

loaded_equation load_equation(const equation_source& fixed,
                              const equation_source& spec,
                              std::size_t num_choice_inputs) {
    parsed_side s_side = parse_side(spec);
    parsed_side f_side = parse_side(fixed);
    if (f_side.num_inputs < s_side.num_inputs + num_choice_inputs ||
        f_side.num_outputs < s_side.num_outputs) {
        throw std::invalid_argument(
            "'" + fixed.path + "' cannot embed '" + spec.path +
            "': F needs S's inputs/outputs plus the v/u/w ports");
    }
    const std::size_t num_v =
        f_side.num_inputs - s_side.num_inputs - num_choice_inputs;
    const std::size_t num_u = f_side.num_outputs - s_side.num_outputs;

    loaded_equation eq;
    eq.num_choice_inputs = num_choice_inputs;
    eq.spec = s_side.net
                  ? std::move(*s_side.net)
                  : encode_kiss_spec(spec.text, s_side.num_inputs,
                                     s_side.num_outputs, "eq_s");
    eq.fixed = f_side.net
                   ? std::move(*f_side.net)
                   : encode_kiss_fixed(fixed.text, s_side.num_inputs,
                                       s_side.num_outputs, num_v, num_u,
                                       num_choice_inputs, "eq_f");
    return eq;
}

bool is_gen_spec(const std::string& token) {
    return token.compare(0, 4, "gen:") == 0;
}

generated_pair make_gen_pair(const std::string& token) {
    if (!is_gen_spec(token)) {
        throw std::runtime_error("not a gen: spec: '" + token + "'");
    }
    std::string family_name = token.substr(4);
    const auto parse_u32 = [&token](const std::string& text,
                                    const char* what) -> std::uint32_t {
        const auto value = parse_count(text, UINT32_MAX);
        if (!value.has_value()) {
            throw std::runtime_error(std::string("bad ") + what + " in '" +
                                     token + "'");
        }
        return static_cast<std::uint32_t>(*value);
    };
    std::uint32_t seed = 0;
    std::uint32_t scale = 1;
    bool have_seed = false;
    const std::size_t colon = family_name.find(':');
    if (colon != std::string::npos) {
        std::string seed_text = family_name.substr(colon + 1);
        family_name.erase(colon);
        const std::size_t colon2 = seed_text.find(':');
        if (colon2 != std::string::npos) {
            scale = parse_u32(seed_text.substr(colon2 + 1), "scale");
            if (scale == 0) {
                throw std::runtime_error("bad scale in '" + token +
                                         "': must be >= 1");
            }
            seed_text.erase(colon2);
        }
        seed = parse_u32(seed_text, "seed");
        have_seed = true;
    }
    const auto family = scenario_family_from_string(family_name);
    if (!family.has_value()) {
        throw std::runtime_error("unknown scenario family '" + family_name +
                                 "' in '" + token + "'");
    }
    if (!have_seed) { seed = test_seed(1); }

    const scenario s = make_scenario(*family, seed, scale);
    generated_pair pair;
    pair.fixed = {token + "#f", write_blif_string(s.fixed),
                  equation_format::blif};
    pair.spec = {token + "#s", write_blif_string(s.spec),
                 equation_format::blif};
    pair.num_choice_inputs = s.num_choice_inputs;
    return pair;
}

} // namespace leq
