/// \file mutate.cpp
/// \brief Copy-with-edit implementations over the network builder API.

#include "gen/mutate.hpp"

#include <functional>
#include <stdexcept>

namespace leq {

namespace {

std::vector<std::string> cube_strings(const sop_cube& cube) {
    std::string row;
    row.reserve(cube.literals.size());
    for (const std::uint8_t lit : cube.literals) {
        row.push_back(lit == 2 ? '-' : static_cast<char>('0' + lit));
    }
    return {row};
}

std::vector<std::string> cover_strings(const logic_node& node) {
    std::vector<std::string> rows;
    rows.reserve(node.cubes.size());
    for (const sop_cube& cube : node.cubes) {
        rows.push_back(cube_strings(cube)[0]);
    }
    return rows;
}

std::vector<std::string> fanin_names(const network& net,
                                     const logic_node& node) {
    std::vector<std::string> names;
    names.reserve(node.fanins.size());
    for (const std::uint32_t f : node.fanins) {
        names.push_back(net.signal_name(f));
    }
    return names;
}

/// Rebuild `net` with per-element hooks.  `skip_input(k)` drops input k from
/// the port list, `skip_latch(k)` drops latch k, `skip_output(k)` drops
/// output k, and `emit_node(k)` may emit a replacement cover (returning true
/// when it handled the node).  `epilogue` runs before validation, for
/// injected constant drivers.
struct rebuild_hooks {
    std::function<bool(std::size_t)> skip_input;
    std::function<bool(std::size_t)> skip_output;
    std::function<bool(std::size_t)> skip_latch;
    std::function<bool(network&, std::size_t)> emit_node;
    std::function<void(network&)> epilogue;
};

network rebuild(const network& net, const rebuild_hooks& hooks) {
    network out(net.name());
    for (std::size_t k = 0; k < net.num_inputs(); ++k) {
        if (hooks.skip_input && hooks.skip_input(k)) { continue; }
        out.add_input(net.signal_name(net.inputs()[k]));
    }
    for (std::size_t k = 0; k < net.num_outputs(); ++k) {
        if (hooks.skip_output && hooks.skip_output(k)) { continue; }
        out.add_output(net.signal_name(net.outputs()[k]));
    }
    for (std::size_t k = 0; k < net.num_latches(); ++k) {
        if (hooks.skip_latch && hooks.skip_latch(k)) { continue; }
        const latch& l = net.latches()[k];
        out.add_latch(net.signal_name(l.input), net.signal_name(l.output),
                      l.init);
    }
    for (std::size_t k = 0; k < net.nodes().size(); ++k) {
        if (hooks.emit_node && hooks.emit_node(out, k)) { continue; }
        const logic_node& node = net.nodes()[k];
        out.add_node(net.signal_name(node.output), fanin_names(net, node),
                     cover_strings(node), node.complemented);
    }
    if (hooks.epilogue) { hooks.epilogue(out); }
    out.validate();
    return out;
}

/// Constant driver: an empty cover is constant 0, complemented constant 1.
void add_constant(network& net, const std::string& signal, bool value) {
    net.add_node(signal, {}, {}, value);
}

} // namespace

network tie_input(const network& net, std::size_t index, bool value) {
    if (index >= net.num_inputs()) {
        throw std::out_of_range("tie_input: index");
    }
    const std::string name = net.signal_name(net.inputs()[index]);
    rebuild_hooks hooks;
    hooks.skip_input = [index](std::size_t k) { return k == index; };
    hooks.epilogue = [&name, value](network& out) {
        add_constant(out, name, value);
    };
    return rebuild(net, hooks);
}

network tie_latch(const network& net, std::size_t index) {
    if (index >= net.num_latches()) {
        throw std::out_of_range("tie_latch: index");
    }
    const latch& l = net.latches()[index];
    const std::string name = net.signal_name(l.output);
    const bool value = l.init;
    rebuild_hooks hooks;
    hooks.skip_latch = [index](std::size_t k) { return k == index; };
    hooks.epilogue = [&name, value](network& out) {
        add_constant(out, name, value);
    };
    return rebuild(net, hooks);
}

network drop_output(const network& net, std::size_t index) {
    if (index >= net.num_outputs()) {
        throw std::out_of_range("drop_output: index");
    }
    rebuild_hooks hooks;
    hooks.skip_output = [index](std::size_t k) { return k == index; };
    return rebuild(net, hooks);
}

std::string describe(const mutation& m, const network& net) {
    switch (m.kind) {
    case mutation_kind::flip_literal:
        return "flip node '" + net.signal_name(net.nodes()[m.node].output) +
               "' cube " + std::to_string(m.cube) + " literal " +
               std::to_string(m.literal);
    case mutation_kind::drop_cube:
        return "drop node '" + net.signal_name(net.nodes()[m.node].output) +
               "' cube " + std::to_string(m.cube);
    case mutation_kind::complement:
        return "complement node '" +
               net.signal_name(net.nodes()[m.node].output) + "'";
    case mutation_kind::flip_init:
        return "flip latch " + std::to_string(m.node) + " init";
    }
    return "?";
}

std::vector<mutation> enumerate_mutations(const network& net) {
    std::vector<mutation> all;
    for (std::size_t n = 0; n < net.nodes().size(); ++n) {
        const logic_node& node = net.nodes()[n];
        for (std::size_t c = 0; c < node.cubes.size(); ++c) {
            for (std::size_t l = 0; l < node.cubes[c].literals.size(); ++l) {
                all.push_back({mutation_kind::flip_literal, n, c, l});
            }
            if (node.cubes.size() > 1) {
                all.push_back({mutation_kind::drop_cube, n, c, 0});
            }
        }
        if (!node.cubes.empty()) {
            all.push_back({mutation_kind::complement, n, 0, 0});
        }
    }
    for (std::size_t k = 0; k < net.num_latches(); ++k) {
        all.push_back({mutation_kind::flip_init, k, 0, 0});
    }
    return all;
}

network apply_mutation(const network& net, const mutation& m) {
    if (m.kind == mutation_kind::flip_init) {
        if (m.node >= net.num_latches()) {
            throw std::out_of_range("apply_mutation: latch index");
        }
        rebuild_hooks hooks;
        hooks.skip_latch = [&](std::size_t k) { return k == m.node; };
        hooks.epilogue = [&](network& out) {
            const latch& l = net.latches()[m.node];
            out.add_latch(net.signal_name(l.input),
                          net.signal_name(l.output), !l.init);
        };
        return rebuild(net, hooks);
    }
    if (m.node >= net.nodes().size()) {
        throw std::out_of_range("apply_mutation: node index");
    }
    rebuild_hooks hooks;
    hooks.emit_node = [&](network& out, std::size_t k) {
        if (k != m.node) { return false; }
        const logic_node& node = net.nodes()[k];
        std::vector<std::string> rows = cover_strings(node);
        bool complemented = node.complemented;
        switch (m.kind) {
        case mutation_kind::flip_literal: {
            if (m.cube >= rows.size() || m.literal >= rows[m.cube].size()) {
                throw std::out_of_range("apply_mutation: cube position");
            }
            char& lit = rows[m.cube][m.literal];
            lit = lit == '0' ? '1' : lit == '1' ? '0' : '1';
            break;
        }
        case mutation_kind::drop_cube:
            if (m.cube >= rows.size()) {
                throw std::out_of_range("apply_mutation: cube index");
            }
            rows.erase(rows.begin() + static_cast<std::ptrdiff_t>(m.cube));
            break;
        case mutation_kind::complement:
            complemented = !complemented;
            break;
        case mutation_kind::flip_init: break; // handled above
        }
        out.add_node(net.signal_name(node.output), fanin_names(net, node),
                     rows, complemented);
        return true;
    };
    return rebuild(net, hooks);
}

} // namespace leq
