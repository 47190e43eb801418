/// \file test_parser_errors.cpp
/// \brief Failure injection for the text front ends: malformed BLIF and
/// KISS2 must produce clean errors, never crashes or silent misparses; and
/// valid corner inputs must round-trip.

#include "automata/kiss.hpp"
#include "gen/scenario.hpp"
#include "gen/shrink.hpp"
#include "net/blif.hpp"
#include "net/generator.hpp"

#include <gtest/gtest.h>

#include <string>

namespace {

using namespace leq;

// ---------------------------------------------------------------------------
// BLIF
// ---------------------------------------------------------------------------

TEST(blif_errors, empty_input) {
    EXPECT_THROW((void)read_blif_string(""), std::runtime_error);
}

TEST(blif_errors, cube_width_mismatch) {
    const char* text = R"(
.model bad
.inputs a b
.outputs z
.names a b z
1 1
.end
)";
    EXPECT_THROW((void)read_blif_string(text), std::runtime_error);
}

TEST(blif_errors, undriven_output) {
    const char* text = R"(
.model bad
.inputs a
.outputs z
.end
)";
    EXPECT_THROW(read_blif_string(text).validate(), std::runtime_error);
}

TEST(blif_errors, combinational_cycle) {
    const char* text = R"(
.model loop
.inputs a
.outputs z
.names z2 z
1 1
.names z z2
1 1
.end
)";
    EXPECT_THROW(read_blif_string(text).validate(), std::runtime_error);
}

TEST(blif_errors, bad_latch_line) {
    const char* text = R"(
.model bad
.inputs a
.outputs z
.latch a
.names a z
1 1
.end
)";
    EXPECT_THROW((void)read_blif_string(text), std::runtime_error);
    const auto with_latch = [](const char* latch) {
        return std::string(".model bad\n.inputs xv0\n.outputs z\n") + latch +
               "\n.names q z\n1 1\n.end\n";
    };
    // an init value outside 0-3 is an error, not a silent reset-to-0, in
    // both forms that carry one
    for (const char* latch : {".latch xv0 q 7", ".latch xv0 q re clk 7",
                              ".latch xv0 q re clk 0 extra"}) {
        try {
            (void)read_blif_string(with_latch(latch));
            ADD_FAILURE() << latch << " was accepted";
        } catch (const std::runtime_error& e) {
            EXPECT_EQ(std::string(e.what()).rfind("blif:4: ", 0), 0u)
                << e.what();
        }
    }
    // the 5-token form has no init field: its clock name is not one
    EXPECT_FALSE(
        read_blif_string(with_latch(".latch xv0 q re 1")).initial_state()[0]);
}

TEST(blif_errors, garbage_cube_characters) {
    const char* text = R"(
.model bad
.inputs a
.outputs z
.names a z
x 1
.end
)";
    EXPECT_THROW((void)read_blif_string(text), std::runtime_error);
}

TEST(blif_roundtrip, families_survive_write_read) {
    for (int id = 0; id < 4; ++id) {
        const network net = id == 0   ? make_counter(4)
                            : id == 1 ? make_lfsr(5, {2})
                            : id == 2 ? make_traffic_controller()
                                      : make_paper_example();
        const network back = read_blif_string(write_blif_string(net));
        EXPECT_EQ(back.num_inputs(), net.num_inputs());
        EXPECT_EQ(back.num_outputs(), net.num_outputs());
        EXPECT_EQ(back.num_latches(), net.num_latches());
        // behaviour must survive exactly
        std::vector<bool> sa = net.initial_state();
        std::vector<bool> sb = back.initial_state();
        std::uint32_t lcg = 5u + static_cast<std::uint32_t>(id);
        for (int t = 0; t < 64; ++t) {
            std::vector<bool> in(net.num_inputs());
            for (auto&& bit : in) {
                lcg = lcg * 1664525u + 1013904223u;
                bit = (lcg >> 16) & 1u;
            }
            const auto ra = net.simulate(sa, in);
            const auto rb = back.simulate(sb, in);
            ASSERT_EQ(ra.outputs, rb.outputs) << net.name() << " t=" << t;
            sa = ra.next_state;
            sb = rb.next_state;
        }
    }
}

// ---------------------------------------------------------------------------
// KISS
// ---------------------------------------------------------------------------

bdd_manager& scratch_mgr() {
    static bdd_manager mgr(8);
    return mgr;
}

automaton parse(const std::string& text, std::size_t ni, std::size_t no) {
    std::vector<std::uint32_t> in, out;
    for (std::size_t k = 0; k < ni; ++k) {
        in.push_back(static_cast<std::uint32_t>(k));
    }
    for (std::size_t k = 0; k < no; ++k) {
        out.push_back(static_cast<std::uint32_t>(ni + k));
    }
    return read_kiss_string(text, scratch_mgr(), in, out);
}

TEST(kiss_errors, missing_header) {
    EXPECT_THROW((void)parse("0 a b 0\n", 1, 1), std::runtime_error);
}

TEST(kiss_errors, input_width_mismatch) {
    const char* text = ".i 2\n.o 1\n.r a\n0 a a 1\n";
    EXPECT_THROW((void)parse(text, 2, 1), std::runtime_error);
}

TEST(kiss_errors, output_width_mismatch) {
    const char* text = ".i 1\n.o 2\n.r a\n0 a a 1\n";
    EXPECT_THROW((void)parse(text, 1, 2), std::runtime_error);
}

TEST(kiss_errors, header_var_count_mismatch) {
    const char* text = ".i 3\n.o 1\n.r a\n000 a a 1\n";
    EXPECT_THROW((void)parse(text, 1, 1), std::runtime_error);
}

TEST(kiss_errors, truncated_transition_line) {
    const char* text = ".i 1\n.o 1\n.r a\n0 a a\n";
    EXPECT_THROW((void)parse(text, 1, 1), std::runtime_error);
}

TEST(kiss_errors, reset_state_without_transitions) {
    const char* text = ".i 1\n.o 1\n.r s9\n0 a a 1\n1 a a 0\n";
    try {
        (void)parse(text, 1, 1);
        ADD_FAILURE() << "unknown reset state was accepted";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "kiss: reset state 's9' has no transitions");
    }
}

TEST(kiss_roundtrip, mealy_machine_survives) {
    const char* text = ".i 1\n.o 1\n.s 2\n.p 4\n.r s0\n"
                       "0 s0 s0 0\n1 s0 s1 1\n0 s1 s0 1\n1 s1 s1 0\n.e\n";
    bdd_manager mgr(2);
    const automaton a = read_kiss_string(text, mgr, {0}, {1});
    const std::string emitted = write_kiss_string(a, {0}, {1});
    const automaton b = read_kiss_string(emitted, mgr, {0}, {1});
    EXPECT_TRUE(language_equivalent(a, b));
    EXPECT_EQ(a.num_states(), b.num_states());
}

TEST(kiss_header, tolerates_leading_comments) {
    const kiss_header h =
        read_kiss_header("# comment\n.i 3\n.o 2\n000 a a 00\n");
    EXPECT_EQ(h.num_inputs, 3u);
    EXPECT_EQ(h.num_outputs, 2u);
}

TEST(kiss_header, widths_must_match_the_first_row) {
    // callers size vectors from the header, so an oversized width must be
    // an error before anything is allocated from it
    for (const char* text : {".i 99999999999\n.o 1\n000 a a 1\n",
                             ".i 3\n.o 99999999999\n000 a a 1\n",
                             ".i 3\n.o 1\n",
                             ".i 3\n.o 1\n.e\n000 a a 1\n"}) {
        try {
            (void)read_kiss_header(text);
            ADD_FAILURE() << text << " was accepted";
        } catch (const std::runtime_error& e) {
            EXPECT_EQ(std::string(e.what()).rfind("kiss:", 0), 0u)
                << e.what();
        }
    }
}

// ---------------------------------------------------------------------------
// shrinker reproducer output: emitted artifacts re-parse, corrupted
// variants hit the same clean error paths as the hand-written cases above
// ---------------------------------------------------------------------------

TEST(reproducer_output, emitted_kiss_reparses_and_corruptions_throw) {
    const scenario sc = make_scenario(scenario_family::arbiter, 1);
    const std::string kiss = network_to_kiss(sc.spec);
    const kiss_header h = read_kiss_header(kiss);
    ASSERT_EQ(h.num_inputs, sc.spec.num_inputs());
    ASSERT_EQ(h.num_outputs, sc.spec.num_outputs());
    EXPECT_NO_THROW(
        (void)parse(kiss, sc.spec.num_inputs(), sc.spec.num_outputs()));

    // truncate the last transition line mid-token
    const std::string truncated = kiss.substr(0, kiss.rfind(' '));
    EXPECT_THROW(
        (void)parse(truncated, sc.spec.num_inputs(), sc.spec.num_outputs()),
        std::runtime_error);
    // lie about the input width
    std::string lying = kiss;
    lying.replace(lying.find(".i "), 4, ".i 9");
    EXPECT_THROW((void)parse(lying, 9, sc.spec.num_outputs()),
                 std::runtime_error);
    // strip the header entirely
    const std::string headerless = kiss.substr(kiss.find(".r"));
    EXPECT_THROW(
        (void)parse(headerless, sc.spec.num_inputs(), sc.spec.num_outputs()),
        std::runtime_error);
}

TEST(reproducer_output, emitted_blif_reparses_and_corruptions_throw) {
    const scenario sc = make_scenario(scenario_family::counter, 1);
    const std::string blif = write_blif_string(sc.fixed);
    EXPECT_NO_THROW((void)read_blif_string(blif));

    // corrupt one cube row into a width mismatch
    std::string bad = blif;
    const std::size_t row = bad.find("\n1");
    ASSERT_NE(row, std::string::npos);
    bad.insert(row + 1, "1");
    EXPECT_THROW((void)read_blif_string(bad), std::runtime_error);
    // break a latch declaration (single-token .latch line)
    std::string badlatch = blif;
    const std::size_t latch = badlatch.find(".latch ");
    ASSERT_NE(latch, std::string::npos);
    const std::size_t eol = badlatch.find('\n', latch);
    badlatch.replace(latch, eol - latch, ".latch x");
    EXPECT_THROW((void)read_blif_string(badlatch), std::runtime_error);
}

} // namespace
