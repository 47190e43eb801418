/// \file runner.cpp
/// \brief The repo benchmark's runner: times calls into the leq library's
/// layers on one workload and prints the result as one JSON line.
///
///   perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
///                    --corpus DIR --answers FILE --out DIR
///                    [--batch-workers K]
///   perfbench_runner --record --corpus DIR --answers FILE
///
/// Workloads: table1_corpus (the parts table1, kiss_counter9 and
/// reach_mix26 in every pass) and batch_gen; README.md says why each was
/// chosen.  Solver options stay at their defaults.
///
/// A run repeats passes of the workload until S seconds have gone by.
/// Every equation or fixpoint is checked against the known answers, every
/// pass's work counters must equal the first pass's, and the last pass's
/// results are verified (the paper's two containment checks) outside the
/// timed region.  Any mismatch counts as failed and makes the exit code 1.
///
/// --trace 0 prints the end-to-end metrics; --trace 1 alternates traced and
/// untraced passes, prints the per-layer metrics read off the spans plus
/// the tracing overhead, and writes the spans to DIR.
/// --record recomputes the known answers, cross-checks each against the
/// monolithic flow where it completes within a limit, and writes FILE.

#include "trace.hpp"

#include "automata/automaton.hpp"
#include "automata/kiss.hpp"
#include "cli/batch.hpp"
#include "cli/equation_io.hpp"
#include "cli/json.hpp"
#include "eq/kiss_flow.hpp"
#include "eq/solver.hpp"
#include "eq/verify.hpp"
#include "gen/scenario.hpp"
#include "img/image.hpp"
#include "net/blif.hpp"
#include "net/generator.hpp"
#include "net/latch_split.hpp"
#include "net/netbdd.hpp"
#include "rel/relation.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {
namespace {

using steady = std::chrono::steady_clock;

double since(steady::time_point t0) {
    return std::chrono::duration<double>(steady::now() - t0).count();
}

double median(std::vector<double> v) {
    if (v.empty()) { return 0.0; }
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in (0, 1]).
double percentile(std::vector<double> v, double q) {
    if (v.empty()) { return 0.0; }
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) { throw std::runtime_error("cannot open '" + path + "'"); }
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

// ---------------------------------------------------------------------------
// known answers
// ---------------------------------------------------------------------------

/// One line per pinned input: `WORKLOAD NAME key=value ...`; `#` comments.
class known_answers {
public:
    static known_answers load(const std::string& path) {
        known_answers ka;
        std::istringstream in(read_file(path));
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty() || line[0] == '#') { continue; }
            std::istringstream fields(line);
            std::string workload, name, kv;
            fields >> workload >> name;
            auto& entry = ka.entries_[workload + " " + name];
            while (fields >> kv) {
                const std::size_t eq = kv.find('=');
                if (eq == std::string::npos) {
                    throw std::runtime_error("known answers: bad field '" +
                                             kv + "'");
                }
                entry[kv.substr(0, eq)] = kv.substr(eq + 1);
            }
        }
        return ka;
    }

    /// The recorded value; throws when the input has no answer, so an
    /// input without one can never pass unchecked.
    [[nodiscard]] const std::string& get(const std::string& workload,
                                         const std::string& name,
                                         const std::string& key) const {
        const auto e = entries_.find(workload + " " + name);
        if (e == entries_.end() || e->second.count(key) == 0) {
            throw std::runtime_error("known answers: no " + key + " for " +
                                     workload + " " + name);
        }
        return e->second.at(key);
    }

    [[nodiscard]] double number(const std::string& workload,
                                const std::string& name,
                                const std::string& key) const {
        return std::stod(get(workload, name, key));
    }

private:
    std::map<std::string, std::map<std::string, std::string>> entries_;
};

// ---------------------------------------------------------------------------
// per-run bookkeeping
// ---------------------------------------------------------------------------

/// Failures of a run; each is printed to stderr as it happens.
struct failure_log {
    std::size_t count = 0;
    void fail(const std::string& what) {
        ++count;
        std::fprintf(stderr, "perfbench: FAIL %s\n", what.c_str());
    }
    void expect(bool ok, const std::string& what) {
        if (!ok) { fail(what); }
    }
};

/// What one pass measured.
struct pass_result {
    double setup_s = 0.0;   ///< text to ready problem/relation (0: none)
    double solve_s = 0.0;   ///< summed solve / fixpoint wall time
    double reach_s = 0.0;   ///< the part of solve_s that is a fixpoint
    /// Wall time the pass's work spans cover: solve_s, except for a batch
    /// campaign, whose solves overlap across workers (its wall time).
    double work_s = 0.0;
    double wall_s = 0.0;    ///< the whole pass (setup + work)
    std::size_t equations = 0;
    std::vector<double> latencies_s; ///< one per equation or fixpoint
    /// Deterministic work counters; must repeat exactly across passes.
    std::vector<std::size_t> fingerprint;
    // layer counters read off the results (not the spans)
    double subset_states = 0, csf_states = 0, images = 0, reach_depth = 0;
    double busy_ratio = 0.0; ///< batch only
};

class workload {
public:
    explicit workload(const known_answers& answers) : answers_(answers) {}
    virtual ~workload() = default;
    workload(const workload&) = delete;
    workload& operator=(const workload&) = delete;

    /// Build the inputs' problems (or relation) once and discard them;
    /// returns the set-up seconds.
    virtual double setup_only(tracer& tr) = 0;
    /// One timed pass.  Its problems and results stay held until
    /// `verify_held` / `drop_held`.
    virtual pass_result pass(tracer& tr, failure_log& log) = 0;
    /// Verify the held pass outside any timed region.
    virtual void verify_held(tracer& tr, failure_log& log) = 0;
    virtual void drop_held() = 0;
    /// Spans whose trees make up the timed work.
    [[nodiscard]] virtual std::vector<std::string> work_spans() const {
        return {"eq.solve"};
    }

protected:
    const known_answers& answers_;
};

/// Solve with the default options (partitioned flow, frontier strategy,
/// no image pool) inside an eq.solve span; returns the wall seconds.
double timed_solve(tracer& tr, const leq::equation_problem& problem,
                   leq::solve_result& out) {
    const auto t0 = steady::now();
    auto s = tr.span("eq.solve", &problem.mgr());
    out = leq::solve_partitioned(problem);
    s.close();
    return since(t0);
}

void add_solve_counters(pass_result& r, const leq::solve_result& res) {
    r.subset_states += static_cast<double>(res.subset_states_explored);
    r.csf_states += static_cast<double>(res.csf_states);
    r.images += static_cast<double>(res.stats.images);
    r.fingerprint.push_back(res.subset_states_explored);
    r.fingerprint.push_back(res.stats.images);
    r.fingerprint.push_back(res.stats.cache_lookups);
}

// ---------------------------------------------------------------------------
// table1: the paper's Table 1 rows, handed over as BLIF text
// ---------------------------------------------------------------------------

/// s444 (about 18 s) is left out for run length; s526 never completes.
bool is_table1_row(const std::string& name) {
    return name == "s510" || name == "s208" || name == "s298" ||
           name == "s349";
}

class table1_workload final : public workload {
public:
    explicit table1_workload(const known_answers& answers)
        : workload(answers) {
        for (leq::table1_instance& inst : leq::make_table1_suite()) {
            if (!is_table1_row(inst.name)) { continue; }
            rows_.push_back({inst.name, leq::write_blif_string(inst.circuit),
                             inst.x_latches});
        }
    }

    double setup_only(tracer& tr) override {
        double total = 0.0;
        for (const row& r : rows_) {
            instance inst;
            total += build(tr, r, inst);
        }
        return total;
    }

    pass_result pass(tracer& tr, failure_log& log) override {
        pass_result out;
        const auto t0 = steady::now();
        held_.reserve(rows_.size());
        for (const row& r : rows_) {
            instance& inst = held_.emplace_back();
            out.setup_s += build(tr, r, inst);
            out.solve_s += timed_solve(tr, *inst.problem, inst.result);
            ++out.equations;
            add_solve_counters(out, inst.result);
            check(r.name, inst.result, log);
        }
        out.wall_s = since(t0);
        out.work_s = out.solve_s;
        // the table is one request: the unit the paper's Table 1 reports
        out.latencies_s.push_back(out.solve_s);
        return out;
    }

    void verify_held(tracer& tr, failure_log& log) override {
        for (std::size_t k = 0; k < held_.size(); ++k) {
            instance& inst = held_[k];
            if (!inst.result.csf) { continue; } // already failed in check()
            auto s = tr.span("eq.verify", &inst.problem->mgr());
            const bool c1 = leq::verify_particular_contained(
                *inst.problem, *inst.result.csf,
                inst.split.part.initial_state());
            const bool c2 = leq::verify_composition_contained(
                *inst.problem, *inst.result.csf);
            s.close();
            log.expect(c1, "table1 " + rows_[k].name + ": X_P not in CSF");
            log.expect(c2, "table1 " + rows_[k].name + ": F.X not in S");
        }
    }

    void drop_held() override { held_.clear(); }

private:
    struct row {
        std::string name;
        std::string blif;
        std::size_t x_latches;
    };
    struct instance {
        leq::network circuit;
        leq::split_result split;
        std::unique_ptr<leq::equation_problem> problem;
        leq::solve_result result; // declared after problem: destroyed first
    };

    static double build(tracer& tr, const row& r, instance& inst) {
        const auto t0 = steady::now();
        {
            auto s = tr.span("net.parse");
            inst.circuit = leq::read_blif_string(r.blif);
        }
        {
            auto s = tr.span("net.split");
            inst.split = leq::split_last_latches(inst.circuit, r.x_latches);
        }
        auto s = tr.span("eq.problem");
        inst.problem = std::make_unique<leq::equation_problem>(
            inst.split.fixed, inst.circuit);
        s.count_new(inst.problem->mgr());
        s.close();
        return since(t0);
    }

    void check(const std::string& name, const leq::solve_result& res,
               failure_log& log) const {
        if (res.status != leq::solve_status::ok) {
            log.fail("table1 " + name + ": solve gave up");
            return;
        }
        log.expect(static_cast<double>(res.csf_states) ==
                       answers_.number("table1", name, "csf_states"),
                   "table1 " + name + ": csf_states " +
                       std::to_string(res.csf_states) + " != known answer");
    }

    std::vector<row> rows_;
    std::vector<instance> held_;
};

// ---------------------------------------------------------------------------
// kiss_counter9: the corpus KISS pair through the automata layer
// ---------------------------------------------------------------------------

class kiss_workload final : public workload {
public:
    kiss_workload(const known_answers& answers, const std::string& corpus)
        : workload(answers),
          f_text_(read_file(corpus + "/counter9_f.kiss")),
          s_text_(read_file(corpus + "/counter9_s.kiss")) {}

    double setup_only(tracer& tr) override {
        instance inst;
        return build(tr, inst);
    }

    pass_result pass(tracer& tr, failure_log& log) override {
        pass_result out;
        const auto t0 = steady::now();
        held_ = std::make_unique<instance>();
        out.setup_s = build(tr, *held_);
        const double t = timed_solve(tr, *held_->problem, held_->result);
        out.solve_s = out.work_s = t;
        out.latencies_s.push_back(t);
        out.equations = 1;
        add_solve_counters(out, held_->result);
        out.wall_s = since(t0);
        const leq::solve_result& res = held_->result;
        if (res.status != leq::solve_status::ok) {
            log.fail("kiss_counter9: solve gave up");
        } else {
            log.expect(static_cast<double>(res.csf_states) ==
                           answers_.number(name, "counter9", "csf_states"),
                       "kiss_counter9: csf_states != known answer");
            log.expect(static_cast<double>(res.subset_states_explored) ==
                           answers_.number(name, "counter9", "subset_states"),
                       "kiss_counter9: subset_states != known answer");
        }
        return out;
    }

    void verify_held(tracer& tr, failure_log& log) override {
        if (!held_ || !held_->result.csf) { return; }
        std::vector<bool> x_init;
        for (const char c : answers_.get(name, "counter9", "x_init")) {
            x_init.push_back(c == '1');
        }
        auto s = tr.span("eq.verify", &held_->problem->mgr());
        const bool c1 = leq::verify_particular_contained(
            *held_->problem, *held_->result.csf, x_init);
        const bool c2 = leq::verify_composition_contained(*held_->problem,
                                                          *held_->result.csf);
        s.close();
        log.expect(c1, "kiss_counter9: X_P not in CSF");
        log.expect(c2, "kiss_counter9: F.X not in S");
    }

    void drop_held() override { held_.reset(); }

private:
    static constexpr const char* name = "kiss_counter9";
    struct instance {
        leq::network fixed, spec;
        std::unique_ptr<leq::equation_problem> problem;
        leq::solve_result result;
    };

    /// build_kiss_instance, one layer call at a time.
    double build(tracer& tr, instance& inst) const {
        const auto t0 = steady::now();
        {
            auto s = tr.span("automata.encode");
            const leq::kiss_header fh = leq::read_kiss_header(f_text_);
            const leq::kiss_header sh = leq::read_kiss_header(s_text_);
            inst.fixed = leq::encode_kiss_fixed(
                f_text_, sh.num_inputs, sh.num_outputs,
                fh.num_inputs - sh.num_inputs,
                fh.num_outputs - sh.num_outputs);
            inst.spec =
                leq::encode_kiss_spec(s_text_, sh.num_inputs, sh.num_outputs);
        }
        auto s = tr.span("eq.problem");
        inst.problem =
            std::make_unique<leq::equation_problem>(inst.fixed, inst.spec);
        s.count_new(inst.problem->mgr());
        s.close();
        return since(t0);
    }

    std::string f_text_, s_text_;
    std::unique_ptr<instance> held_;
};

// ---------------------------------------------------------------------------
// reach_mix26: the reachability fixpoint over the corpus mix26 circuit
// ---------------------------------------------------------------------------

class reach_workload final : public workload {
public:
    reach_workload(const known_answers& answers, const std::string& corpus)
        : workload(answers), blif_(read_file(corpus + "/mix26.blif")) {}

    double setup_only(tracer& tr) override {
        instance inst;
        return build(tr, inst);
    }

    pass_result pass(tracer& tr, failure_log& log) override {
        pass_result out;
        const auto t0 = steady::now();
        held_ = std::make_unique<instance>();
        out.setup_s = build(tr, *held_);
        const auto t1 = steady::now();
        auto s = tr.span("img.reach", held_->mgr.get());
        held_->info = leq::reachable_states_layered(
            *held_->relation, held_->init,
            static_cast<std::uint32_t>(held_->cs.size()));
        s.close();
        const double t = since(t1);
        out.solve_s = out.work_s = out.reach_s = t;
        out.latencies_s.push_back(t);
        out.equations = 1;
        out.wall_s = since(t0);
        out.images = static_cast<double>(held_->relation->stats().images);
        out.reach_depth = static_cast<double>(held_->info.depth);
        out.fingerprint = {held_->info.depth, held_->relation->stats().images,
                           held_->mgr->stats().cache_lookups};
        log.expect(static_cast<double>(held_->info.depth) ==
                       answers_.number(name, "mix26", "depth"),
                   "reach_mix26: depth != known answer");
        log.expect(held_->info.total_states ==
                       answers_.number(name, "mix26", "states"),
                   "reach_mix26: states != known answer");
        return out;
    }

    /// The reached set is a fixpoint: it holds the initial state and is
    /// closed under the image.
    void verify_held(tracer& tr, failure_log& log) override {
        if (!held_) { return; }
        auto s = tr.span("img.verify", held_->mgr.get());
        const leq::bdd& r = held_->info.reached;
        const bool has_init = held_->init.leq(r);
        const bool closed = held_->relation->image(r).leq(r);
        s.close();
        log.expect(has_init && closed,
                   "reach_mix26: reached set is not a fixpoint");
    }

    void drop_held() override { held_.reset(); }

    [[nodiscard]] std::vector<std::string> work_spans() const override {
        return {"img.reach"};
    }

private:
    static constexpr const char* name = "reach_mix26";
    struct instance {
        std::unique_ptr<leq::bdd_manager> mgr; // outlives every bdd below
        leq::network net;
        std::vector<std::uint32_t> in, cs, ns;
        leq::bdd init;
        std::unique_ptr<leq::transition_relation> relation;
        leq::reach_info info;
    };

    double build(tracer& tr, instance& inst) const {
        const auto t0 = steady::now();
        {
            auto s = tr.span("net.parse");
            inst.net = leq::read_blif_string(blif_);
        }
        inst.mgr = std::make_unique<leq::bdd_manager>(
            0, leq::bdd_manager_options{});
        leq::bdd_manager& mgr = *inst.mgr;
        for (std::size_t k = 0; k < inst.net.num_inputs(); ++k) {
            inst.in.push_back(mgr.new_var());
        }
        for (std::size_t k = 0; k < inst.net.num_latches(); ++k) {
            inst.cs.push_back(mgr.new_var());
            inst.ns.push_back(mgr.new_var());
        }
        leq::net_bdds fns;
        {
            auto s = tr.span("net.bdds", &mgr);
            fns = leq::build_net_bdds(mgr, inst.net, inst.in, inst.cs);
            inst.init =
                leq::state_cube(mgr, inst.cs, inst.net.initial_state());
        }
        auto s = tr.span("rel.build", &mgr);
        inst.relation = std::make_unique<leq::transition_relation>(
            leq::transition_relation::next_state(mgr, fns.next_state, inst.cs,
                                                 inst.ns, inst.in));
        inst.relation->rename_image_to_current();
        s.close();
        return since(t0);
    }

    std::string blif_;
    std::unique_ptr<instance> held_;
};

// ---------------------------------------------------------------------------
// table1_corpus: table1, kiss_counter9 and reach_mix26 in every pass
// ---------------------------------------------------------------------------

/// The single-manager work in one process: each pass runs every part's
/// pass in turn.  One workload instead of three lets each run last three
/// times as long in the same total, which the shared machine's swings in
/// speed over minutes need; the spans keep the parts' layers apart.
class suite_workload final : public workload {
public:
    suite_workload(const known_answers& answers, const std::string& corpus)
        : workload(answers) {
        parts_.push_back(std::make_unique<table1_workload>(answers));
        parts_.push_back(std::make_unique<kiss_workload>(answers, corpus));
        parts_.push_back(std::make_unique<reach_workload>(answers, corpus));
    }

    double setup_only(tracer& tr) override {
        double total = 0.0;
        for (const auto& part : parts_) { total += part->setup_only(tr); }
        return total;
    }

    /// Sums the parts' times and counters; each part's request (the Table
    /// 1 rows together, the KISS solve, the fixpoint) is one latency.
    pass_result pass(tracer& tr, failure_log& log) override {
        pass_result out;
        for (const auto& part : parts_) {
            pass_result p = part->pass(tr, log);
            out.setup_s += p.setup_s;
            out.solve_s += p.solve_s;
            out.reach_s += p.reach_s;
            out.work_s += p.work_s;
            out.wall_s += p.wall_s;
            out.equations += p.equations;
            out.latencies_s.insert(out.latencies_s.end(),
                                   p.latencies_s.begin(), p.latencies_s.end());
            out.fingerprint.insert(out.fingerprint.end(),
                                   p.fingerprint.begin(), p.fingerprint.end());
            out.subset_states += p.subset_states;
            out.csf_states += p.csf_states;
            out.images += p.images;
            out.reach_depth += p.reach_depth;
        }
        return out;
    }

    void verify_held(tracer& tr, failure_log& log) override {
        for (const auto& part : parts_) { part->verify_held(tr, log); }
    }

    void drop_held() override {
        for (const auto& part : parts_) { part->drop_held(); }
    }

    [[nodiscard]] std::vector<std::string> work_spans() const override {
        return {"eq.solve", "img.reach"};
    }

private:
    std::vector<std::unique_ptr<workload>> parts_;
};

// ---------------------------------------------------------------------------
// batch_gen: a seeded campaign over every gen: family through run_batch
// ---------------------------------------------------------------------------

/// Every `gen:` family at seeds 1..batch_pool_seeds has a known answer.
/// Each campaign draws batch_per_family of them per family, among the small
/// ones: a CSF of at most batch_max_csf_states states.  (The pool holds one
/// large instance, mutant:82: 38,254 CSF states and about 6 s to solve,
/// where the median instance takes under a millisecond; it would decide the
/// time of any campaign that drew it.)  The draws of a run are a sequence
/// fixed by --seed; many campaigns per run make the run's medians a
/// property of the pool rather than of one draw.
constexpr std::uint32_t batch_pool_seeds = 100;
constexpr std::uint32_t batch_per_family = 40;
constexpr double batch_max_csf_states = 1000;

std::string gen_key(leq::scenario_family family, std::uint32_t seed) {
    return std::string(leq::to_string(family)) + ":" + std::to_string(seed);
}

class batch_workload final : public workload {
public:
    batch_workload(const known_answers& answers, std::uint64_t seed,
                   std::size_t workers)
        : workload(answers), workers_(workers), campaign_rng_(seed),
          setup_rng_(~seed) {
        for (const leq::scenario_family family :
             leq::all_scenario_families) {
            family_jobs_.emplace_back();
            for (std::uint32_t k = 1; k <= batch_pool_seeds; ++k) {
                const std::string key = gen_key(family, k);
                if (answers.number("batch_gen", key, "csf_states") >
                    batch_max_csf_states) {
                    continue;
                }
                leq::generated_pair pair = leq::make_gen_pair("gen:" + key);
                leq::batch_job job;
                job.name = key;
                job.fixed = std::move(pair.fixed);
                job.spec = std::move(pair.spec);
                job.has_choice_inputs = true;
                job.choice_inputs = pair.num_choice_inputs;
                family_jobs_.back().push_back(pool_.size());
                pool_.push_back(std::move(job));
                origin_.emplace_back(family, k);
            }
        }
        seen_.assign(pool_.size(), std::nullopt);
    }

    /// Set-up of one campaign's problems, built one after another.
    double setup_only(tracer& tr) override {
        double total = 0.0;
        for (const std::size_t k : draw(setup_rng_)) {
            const auto t0 = steady::now();
            const std::unique_ptr<leq::equation_problem> problem =
                build(tr, pool_[k]);
            total += since(t0);
        }
        return total;
    }

    pass_result pass(tracer& tr, failure_log& log) override {
        pass_result out;
        const std::vector<std::size_t> picked = draw(campaign_rng_);
        std::vector<leq::batch_job> jobs;
        for (const std::size_t k : picked) { jobs.push_back(pool_[k]); }
        leq::batch_options options;
        options.jobs = workers_;
        options.config.timing = false;
        const auto t0 = steady::now();
        leq::batch_report report;
        {
            auto s = tr.span("cli.batch");
            report = leq::run_batch(jobs, options);
        }
        out.wall_s = out.work_s = since(t0);
        out.equations = jobs.size();
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            const leq::solve_record& rec = report.records[j];
            const std::string& key = jobs[j].name;
            if (!rec.completed || rec.result.status != leq::solve_status::ok) {
                log.fail("batch_gen " + key + ": " +
                         (rec.completed ? "gave up" : rec.error));
                continue;
            }
            out.solve_s += rec.result.seconds;
            out.latencies_s.push_back(rec.result.seconds);
            out.subset_states +=
                static_cast<double>(rec.result.subset_states_explored);
            out.csf_states += static_cast<double>(rec.result.csf_states);
            out.images += static_cast<double>(rec.result.stats.images);
            const bool empty = answers_.get("batch_gen", key, "result") ==
                               "empty";
            log.expect(rec.result.empty_solution == empty,
                       "batch_gen " + key + ": solved/empty != known answer");
            log.expect(static_cast<double>(rec.result.csf_states) ==
                           answers_.number("batch_gen", key, "csf_states"),
                       "batch_gen " + key + ": csf_states != known answer");
            // a job drawn again must repeat its work counters exactly
            const counters c = counters_of(rec.result);
            std::optional<counters>& seen = seen_[picked[j]];
            log.expect(!seen || *seen == c,
                       "batch_gen " + key + ": counters differ between draws");
            seen = c;
        }
        out.busy_ratio = out.solve_s /
                         (out.wall_s * static_cast<double>(workers_));
        if (first_campaign_.empty()) { first_campaign_ = picked; }
        return out;
    }

    /// Re-solve every job the run drew on this thread with its own problem
    /// (one worker against the campaigns' `workers_`), demand the
    /// campaigns' counters, and run the paper's checks on each CSF.  The
    /// first campaign's jobs go first, in their own run id, so the traced
    /// counters read off them do not depend on how many campaigns ran.
    void verify_held(tracer& tr, failure_log& log) override {
        std::vector<std::size_t> order = first_campaign_;
        for (std::size_t k = 0; k < pool_.size(); ++k) {
            if (seen_[k] && std::find(first_campaign_.begin(),
                                      first_campaign_.end(),
                                      k) == first_campaign_.end()) {
                order.push_back(k);
            }
        }
        const bool tracing = tr.enabled();
        for (std::size_t j = 0; j < order.size(); ++j) {
            tr.set_enabled(tracing && j < first_campaign_.size());
            verify_job(tr, log, order[j]);
        }
        tr.set_enabled(tracing);
    }

    void drop_held() override {}

    [[nodiscard]] std::vector<std::string> work_spans() const override {
        return {"cli.batch"};
    }

private:
    struct counters {
        std::size_t subset_states, images, cache_lookups;
        bool operator==(const counters& o) const {
            return subset_states == o.subset_states && images == o.images &&
                   cache_lookups == o.cache_lookups;
        }
    };
    static counters counters_of(const leq::solve_result& r) {
        return {r.subset_states_explored, r.stats.images,
                r.stats.cache_lookups};
    }

    /// batch_per_family pool indices per family (a partial Fisher-Yates
    /// spelled out: std::shuffle's order is implementation-defined, the
    /// job list must not be).
    std::vector<std::size_t> draw(std::mt19937_64& rng) const {
        std::vector<std::size_t> picked;
        for (std::vector<std::size_t> family : family_jobs_) {
            for (std::size_t i = 0; i < batch_per_family; ++i) {
                std::swap(family[i],
                          family[i + rng() % (family.size() - i)]);
                picked.push_back(family[i]);
            }
        }
        return picked;
    }

    void verify_job(tracer& tr, failure_log& log, std::size_t k) const {
        const std::string& key = pool_[k].name;
        const std::unique_ptr<leq::equation_problem> problem =
            build(tr, pool_[k]);
        leq::solve_result res;
        timed_solve(tr, *problem, res);
        if (res.status != leq::solve_status::ok) {
            log.fail("batch_gen " + key + ": re-solve gave up");
            return;
        }
        log.expect(seen_[k] && *seen_[k] == counters_of(res),
                   "batch_gen " + key + ": counters differ between 1 and " +
                       std::to_string(workers_) + " workers");
        const leq::scenario sc =
            leq::make_scenario(origin_[k].first, origin_[k].second);
        auto s = tr.span("eq.verify", &problem->mgr());
        bool ok = true;
        if (!res.empty_solution) {
            ok = leq::verify_composition_contained(*problem, *res.csf);
        }
        if (sc.has_part && !sc.is_mutant) {
            // a latch split always admits X_P itself
            ok = ok && !res.empty_solution &&
                 leq::verify_particular_contained(*problem, *res.csf,
                                                  sc.part.initial_state());
        }
        s.close();
        log.expect(ok, "batch_gen " + key + ": containment check failed");
        res = leq::solve_result{}; // CSF handles go before the problem
    }

    static std::unique_ptr<leq::equation_problem>
    build(tracer& tr, const leq::batch_job& job) {
        leq::loaded_equation eq;
        {
            auto s = tr.span("net.parse");
            eq = leq::load_equation(job.fixed, job.spec, job.choice_inputs);
        }
        auto s = tr.span("eq.problem");
        auto problem = std::make_unique<leq::equation_problem>(
            eq.fixed, eq.spec, eq.num_choice_inputs);
        s.count_new(problem->mgr());
        return problem;
    }

    std::size_t workers_;
    std::mt19937_64 campaign_rng_, setup_rng_;
    std::vector<leq::batch_job> pool_;
    std::vector<std::pair<leq::scenario_family, std::uint32_t>> origin_;
    std::vector<std::vector<std::size_t>> family_jobs_; ///< pool indices
    std::vector<std::optional<counters>> seen_; ///< per pool index
    std::vector<std::size_t> first_campaign_;
};

// ---------------------------------------------------------------------------
// metrics
// ---------------------------------------------------------------------------

struct metric {
    std::string name;
    double value;
    const char* unit;
};

std::string render_result(bool correct, std::size_t attempted,
                          std::size_t failed,
                          const std::vector<metric>& metrics) {
    leq::json_object m;
    for (const metric& x : metrics) {
        leq::json_object v;
        v.field("value", x.value);
        v.field("unit", x.unit);
        m.field_raw(x.name, v.str());
    }
    leq::json_object top;
    top.field("correct", correct);
    top.field("attempted", attempted);
    top.field("failed", failed);
    top.field_raw("metrics", m.str());
    return top.str();
}

/// Every metric but peak_rss_mb is a median over the run's passes (over its
/// set-ups for setup_s), so one slow stretch of a shared machine moves it
/// little.  The latency percentiles are taken within each pass first: a
/// run holds too few equations for a pooled tail, except in batch_gen.
std::vector<metric> end_to_end(const std::vector<pass_result>& passes,
                               const std::vector<double>& setups) {
    std::vector<double> solve, eq_rate, p50, p99;
    for (const pass_result& p : passes) {
        solve.push_back(p.solve_s);
        eq_rate.push_back(static_cast<double>(p.equations) / p.wall_s);
        p50.push_back(percentile(p.latencies_s, 0.50));
        p99.push_back(percentile(p.latencies_s, 0.99));
    }
    return {
        {"setup_s", median(setups), "s"},
        {"solve_s", median(solve), "s"},
        {"eq_per_s", median(eq_rate), "1/s"},
        {"eq_p50_ms", 1e3 * median(p50), "ms"},
        {"eq_p99_ms", 1e3 * median(p99), "ms"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
}

/// Per-layer metrics of a traced run: self times by layer (median over the
/// runs that hold the layer's spans), BDD counters summed over the work
/// spans of the first run that has them, and the tracing overhead.
std::vector<metric> per_layer(const tracer& tr, const workload& w,
                              const std::vector<pass_result>& traced,
                              const std::vector<pass_result>& untraced) {
    const std::vector<span_record>& spans = tr.spans();
    std::vector<std::int64_t> covered(spans.size(), 0);
    for (const span_record& s : spans) {
        if (s.parent >= 0) {
            covered[static_cast<std::size_t>(s.parent)] +=
                s.end_ns - s.start_ns;
        }
    }
    const auto self_s = [&](std::size_t k) {
        return 1e-9 * static_cast<double>(spans[k].end_ns -
                                          spans[k].start_ns - covered[k]);
    };
    const std::vector<std::string> work = w.work_spans();
    const auto in_work_tree = [&](std::size_t k) {
        for (int p = static_cast<int>(k); p >= 0;
             p = spans[static_cast<std::size_t>(p)].parent) {
            const std::string& n = spans[static_cast<std::size_t>(p)].name;
            if (std::find(work.begin(), work.end(), n) != work.end()) {
                return true;
            }
        }
        return false;
    };

    // per layer name: run -> summed self seconds
    std::map<std::string, std::map<int, double>> by_layer;
    std::map<int, double> work_self;
    for (std::size_t k = 0; k < spans.size(); ++k) {
        by_layer[spans[k].name][spans[k].run] += self_s(k);
        if (in_work_tree(k)) { work_self[spans[k].run] += self_s(k); }
    }
    const auto layer_s = [&](const std::string& name) {
        std::vector<double> v;
        const auto it = by_layer.find(name);
        if (it != by_layer.end()) {
            for (const auto& [run, sec] : it->second) { v.push_back(sec); }
        }
        return median(v);
    };

    // counters: the work spans carrying a manager (eq.solve / img.reach;
    // for the batch campaign, its single-worker re-solve's eq.solve spans)
    bdd_counters c;
    int counted_run = -1;
    for (const span_record& s : spans) {
        if (!s.has_counters ||
            (s.name != "eq.solve" && s.name != "img.reach")) {
            continue;
        }
        if (counted_run == -1) { counted_run = s.run; }
        if (s.run != counted_run) { continue; }
        c.cache_lookups += s.counters.cache_lookups;
        c.cache_hits += s.counters.cache_hits;
        c.gc_runs += s.counters.gc_runs;
        c.allocated_nodes += s.counters.allocated_nodes;
        c.live_nodes += s.counters.live_nodes;
        for (std::size_t k = 0; k < leq::bdd_num_ops; ++k) {
            c.op_lookups[k] += s.counters.op_lookups[k];
            c.op_hits[k] += s.counters.op_hits[k];
        }
    }
    const auto ratio = [](double num, double den) {
        return den > 0 ? num / den : 0.0;
    };
    constexpr std::size_t ite = 2, and_exists = 4; // bdd_op_name order
    const auto d = [](std::size_t x) { return static_cast<double>(x); };

    std::vector<double> traced_work, untraced_work, self_work, busy;
    std::vector<double> untraced_subset; // solve time outside fixpoints
    for (const pass_result& p : traced) { traced_work.push_back(p.work_s); }
    for (const pass_result& p : untraced) {
        untraced_work.push_back(p.work_s);
        untraced_subset.push_back(p.solve_s - p.reach_s);
    }
    for (const auto& [run, sec] : work_self) { self_work.push_back(sec); }
    const pass_result& first = traced.front();
    for (const pass_result& p : traced) { busy.push_back(p.busy_ratio); }
    const double work_s = median(untraced_work);

    return {
        {"net.parse_s", layer_s("net.parse"), "s"},
        {"net.split_s", layer_s("net.split"), "s"},
        {"net.bdds_s", layer_s("net.bdds"), "s"},
        {"automata.encode_s", layer_s("automata.encode"), "s"},
        {"eq.problem_s", layer_s("eq.problem"), "s"},
        {"rel.build_s", layer_s("rel.build"), "s"},
        {"eq.solve_s", layer_s("eq.solve"), "s"},
        {"img.reach_s", layer_s("img.reach"), "s"},
        {"cli.batch_s", layer_s("cli.batch"), "s"},
        {"eq.verify_s", layer_s("eq.verify"), "s"},
        {"bdd.ite.lookups", d(c.op_lookups[ite]), "count"},
        {"bdd.and_exists.lookups", d(c.op_lookups[and_exists]), "count"},
        {"bdd.and_exists.hit_ratio",
         ratio(d(c.op_hits[and_exists]), d(c.op_lookups[and_exists])),
         "ratio"},
        {"bdd.cache_lookups", d(c.cache_lookups), "count"},
        {"bdd.cache_hit_ratio", ratio(d(c.cache_hits), d(c.cache_lookups)),
         "ratio"},
        {"bdd.gc_runs", d(c.gc_runs), "count"},
        {"bdd.allocated_nodes", d(c.allocated_nodes), "count"},
        {"bdd.live_nodes", d(c.live_nodes), "count"},
        {"rel.images", first.images, "count"},
        {"rel.lookups_per_image",
         ratio(d(c.op_lookups[and_exists]), first.images), "count"},
        {"eq.subset_states", first.subset_states, "count"},
        {"eq.csf_states", first.csf_states, "count"},
        {"eq.subset_states_per_s",
         ratio(first.subset_states, median(untraced_subset)), "1/s"},
        {"img.reach_depth", first.reach_depth, "count"},
        {"cli.batch_busy_ratio", median(busy), "ratio"},
        {"trace.work_self_s", median(self_work), "s"},
        {"trace.work_s", work_s, "s"},
        {"trace.overhead_ratio", ratio(median(traced_work), work_s) - 1.0,
         "ratio"},
    };
}

void write_spans(const tracer& tr, const std::string& path) {
    std::ofstream out(path);
    if (!out) { throw std::runtime_error("cannot write '" + path + "'"); }
    out << "[\n";
    const std::vector<span_record>& spans = tr.spans();
    for (std::size_t k = 0; k < spans.size(); ++k) {
        const span_record& s = spans[k];
        leq::json_object o;
        o.field("id", k);
        o.field("name", s.name);
        o.field("run", static_cast<double>(s.run));
        o.field("parent", static_cast<double>(s.parent));
        o.field("start_ns", static_cast<double>(s.start_ns));
        o.field("end_ns", static_cast<double>(s.end_ns));
        if (s.has_counters) {
            o.field("cache_lookups", s.counters.cache_lookups);
            o.field("cache_hits", s.counters.cache_hits);
            o.field("gc_runs", s.counters.gc_runs);
            o.field("allocated_nodes", s.counters.allocated_nodes);
            o.field("live_nodes", s.counters.live_nodes);
            for (std::size_t op = 0; op < leq::bdd_num_ops; ++op) {
                o.field(std::string("lookups.") + leq::bdd_op_name(op),
                        s.counters.op_lookups[op]);
            }
        }
        out << "  " << o.str() << (k + 1 < spans.size() ? ",\n" : "\n");
    }
    out << "]\n";
}

struct options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool record = false;
    std::size_t batch_workers = 2;
    std::string corpus = "bench/corpus";
    std::string answers = "perfbench/known_answers.txt";
    std::string out = ".";
};

// ---------------------------------------------------------------------------
// --record: the known answers, cross-checked against the monolithic flow
// ---------------------------------------------------------------------------

/// The monolithic flow's time limit in --record (s349 does not complete).
constexpr double monolithic_limit_s = 60.0;

/// Monolithic cross-check of a partitioned result: "agree", or the
/// monolithic flow's give-up status when it did not complete in `limit`.
/// Throws on disagreement: a wrong answer must never be recorded.
std::string cross_check(const leq::equation_problem& problem,
                        const leq::solve_result& part, double limit,
                        const std::string& what) {
    if (part.status != leq::solve_status::ok) {
        throw std::runtime_error(what + ": partitioned flow gave up");
    }
    leq::solve_options mono_options;
    mono_options.time_limit_seconds = limit;
    const leq::solve_result mono = leq::solve_monolithic(problem, mono_options);
    if (mono.status == leq::solve_status::timeout) { return "timeout"; }
    if (mono.status == leq::solve_status::state_limit) { return "state_limit"; }
    if (mono.empty_solution != part.empty_solution ||
        !leq::language_equivalent(*mono.csf, *part.csf)) {
        throw std::runtime_error(what + ": monolithic flow disagrees");
    }
    return "agree";
}

std::string bits(const std::vector<bool>& v) {
    std::string out;
    for (const bool b : v) { out += b ? '1' : '0'; }
    return out;
}

int record(const options& opt) {
    std::ostringstream out;
    out << "# Known answers for the perfbench inputs: WORKLOAD NAME "
           "key=value...\n"
           "# Written by `perfbench_runner --record`.  `monolithic` is the "
           "cross-check:\n"
           "# agree, or the monolithic flow's give-up status within its "
           "time limit.\n";
    for (leq::table1_instance& inst : leq::make_table1_suite()) {
        if (!is_table1_row(inst.name)) { continue; }
        const leq::network circuit =
            leq::read_blif_string(leq::write_blif_string(inst.circuit));
        const leq::split_result split =
            leq::split_last_latches(circuit, inst.x_latches);
        const leq::equation_problem problem(split.fixed, circuit);
        leq::solve_result part = leq::solve_partitioned(problem);
        const std::string mono =
            cross_check(problem, part, monolithic_limit_s, inst.name);
        out << "table1 " << inst.name << " csf_states=" << part.csf_states
            << " monolithic=" << mono << "\n";
        std::fprintf(stderr, "table1 %s: %zu states, monolithic %s\n",
                     inst.name.c_str(), part.csf_states, mono.c_str());
    }
    {
        // the corpus pair is make_counter(9) split at its last latch, so
        // X_P is that latch and starts from its initial value
        const leq::kiss_instance inst = leq::build_kiss_instance(
            read_file(opt.corpus + "/counter9_f.kiss"),
            read_file(opt.corpus + "/counter9_s.kiss"));
        const leq::solve_result part = leq::solve_partitioned(*inst.problem);
        const std::string mono =
            cross_check(*inst.problem, part, monolithic_limit_s, "counter9");
        const std::vector<bool> x_init =
            leq::split_last_latches(leq::make_counter(9), 1)
                .part.initial_state();
        out << "kiss_counter9 counter9 csf_states=" << part.csf_states
            << " subset_states=" << part.subset_states_explored
            << " x_init=" << bits(x_init) << " monolithic=" << mono << "\n";
        std::fprintf(stderr, "kiss_counter9: %zu states, monolithic %s\n",
                     part.csf_states, mono.c_str());
    }
    {
        // cross-checked against the textbook bfs fixpoint
        const leq::network net =
            leq::read_blif_string(read_file(opt.corpus + "/mix26.blif"));
        leq::bdd_manager mgr(0, leq::bdd_manager_options{});
        std::vector<std::uint32_t> in, cs, ns;
        for (std::size_t k = 0; k < net.num_inputs(); ++k) {
            in.push_back(mgr.new_var());
        }
        for (std::size_t k = 0; k < net.num_latches(); ++k) {
            cs.push_back(mgr.new_var());
            ns.push_back(mgr.new_var());
        }
        const leq::net_bdds fns = leq::build_net_bdds(mgr, net, in, cs);
        const leq::bdd init = leq::state_cube(mgr, cs, net.initial_state());
        const leq::reach_info frontier = leq::reachable_states_layered(
            mgr, fns.next_state, cs, ns, in, init);
        leq::image_options bfs;
        bfs.strategy = leq::reach_strategy::bfs;
        const leq::reach_info textbook = leq::reachable_states_layered(
            mgr, fns.next_state, cs, ns, in, init, bfs);
        if (textbook.reached != frontier.reached ||
            textbook.depth != frontier.depth) {
            throw std::runtime_error("mix26: bfs and frontier disagree");
        }
        out << "reach_mix26 mix26 depth=" << frontier.depth << " states="
            << leq::json_number(frontier.total_states) << " bfs=agree\n";
    }
    for (const leq::scenario_family family : leq::all_scenario_families) {
        for (std::uint32_t seed = 1; seed <= batch_pool_seeds; ++seed) {
            const std::string key = gen_key(family, seed);
            const leq::generated_pair pair = leq::make_gen_pair("gen:" + key);
            const leq::loaded_equation eq = leq::load_equation(
                pair.fixed, pair.spec, pair.num_choice_inputs);
            const leq::equation_problem problem(eq.fixed, eq.spec,
                                                eq.num_choice_inputs);
            leq::solve_result part = leq::solve_partitioned(problem);
            const std::string mono =
                cross_check(problem, part, monolithic_limit_s, key);
            out << "batch_gen " << key << " result="
                << (part.empty_solution ? "empty" : "solved")
                << " csf_states=" << part.csf_states << " monolithic=" << mono
                << "\n";
        }
    }
    std::ofstream file(opt.answers);
    if (!(file << out.str())) {
        throw std::runtime_error("cannot write '" + opt.answers + "'");
    }
    return 0;
}

// ---------------------------------------------------------------------------
// the run loop
// ---------------------------------------------------------------------------


/// Set-up-only rounds, spread between the passes so they sample the whole
/// run: at least min_setups, more while they have taken under setup_share
/// of the time so far (cheap set-ups get many samples), at most max_setups.
constexpr std::size_t min_setups = 5;
constexpr std::size_t max_setups = 400;
constexpr double setup_share = 0.05;

int run(const options& opt) {
    const known_answers answers = known_answers::load(opt.answers);
    std::unique_ptr<workload> w;
    if (opt.workload == "table1_corpus") {
        w = std::make_unique<suite_workload>(answers, opt.corpus);
    } else if (opt.workload == "batch_gen") {
        w = std::make_unique<batch_workload>(answers, opt.seed,
                                             opt.batch_workers);
    } else {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     opt.workload.c_str());
        return 2;
    }

    tracer tr(opt.trace);
    failure_log log;
    const auto start = steady::now();
    int run_id = 0;
    std::vector<double> setups;
    // untraced passes give the end-to-end metrics; a traced run alternates
    // traced and untraced passes so the gap between them is the overhead
    std::vector<pass_result> traced, untraced;
    std::vector<double> pass_walls;
    std::size_t setup_rounds = 0;
    double setup_only_s = 0.0;
    std::size_t attempted = 0;
    const std::size_t min_passes = opt.trace ? 2 : 1;
    try {
        for (std::size_t k = 0;; ++k) {
            while (setup_rounds < max_setups &&
                   (setup_rounds == 0 ||
                    setup_only_s < setup_share * since(start))) {
                tr.set_run(run_id++);
                const double t = w->setup_only(tr);
                setups.push_back(t);
                setup_only_s += t;
                ++setup_rounds;
            }
            const bool traced_pass = opt.trace && k % 2 == 0;
            tr.set_run(run_id++);
            tr.set_enabled(traced_pass);
            const auto t0 = steady::now();
            pass_result p = w->pass(tr, log);
            pass_walls.push_back(since(t0));
            tr.set_enabled(opt.trace);
            attempted += p.equations;
            const pass_result& ref =
                !untraced.empty() ? untraced.front()
                                  : (!traced.empty() ? traced.front() : p);
            log.expect(p.fingerprint == ref.fingerprint,
                       opt.workload + ": work counters drifted between passes");
            if (p.setup_s > 0) { setups.push_back(p.setup_s); }
            (traced_pass ? traced : untraced).push_back(std::move(p));
            // stop before a pass that would overrun the run's seconds
            if (k + 1 >= min_passes &&
                since(start) + median(pass_walls) > opt.seconds) {
                for (; setup_rounds < min_setups; ++setup_rounds) {
                    tr.set_run(run_id++);
                    setups.push_back(w->setup_only(tr));
                }
                tr.set_run(run_id++);
                w->verify_held(tr, log);
                w->drop_held();
                break;
            }
            w->drop_held();
        }
    } catch (const std::exception& e) {
        // a throwing layer call fails the run; it still reports what it had
        log.fail(opt.workload + ": " + e.what());
        attempted = std::max<std::size_t>(attempted, 1);
    }
    if (untraced.empty() || (opt.trace && traced.empty())) {
        std::fprintf(stderr, "perfbench: no complete pass\n");
        return 1;
    }

    const std::size_t failed = std::min(log.count, attempted);
    const std::vector<metric> metrics =
        opt.trace ? per_layer(tr, *w, traced, untraced)
                  : end_to_end(untraced, setups);
    if (opt.trace) {
        write_spans(tr, opt.out + "/trace-" + opt.workload + "-seed" +
                            std::to_string(opt.seed) + ".json");
    }
    for (const metric& m : metrics) {
        std::fprintf(stderr, "  %-26s %14.6g %s\n", m.name.c_str(), m.value,
                     m.unit);
    }
    std::fprintf(stderr, "  %-26s %14.6g (failed %zu of %zu attempted)\n",
                 "fail_ratio",
                 static_cast<double>(failed) / static_cast<double>(attempted),
                 failed, attempted);
    std::printf("%s\n",
                render_result(log.count == 0, attempted, failed, metrics)
                    .c_str());
    return log.count == 0 ? 0 : 1;
}

} // namespace
} // namespace perfbench

int main(int argc, char** argv) {
    perfbench::options opt;
    try {
        for (int k = 1; k < argc; ++k) {
            const std::string a = argv[k];
            const auto value = [&]() -> std::string {
                if (k + 1 >= argc) {
                    throw std::invalid_argument(a + " needs a value");
                }
                return argv[++k];
            };
            if (a == "--workload") { opt.workload = value(); }
            else if (a == "--seed") { opt.seed = std::stoull(value()); }
            else if (a == "--seconds") { opt.seconds = std::stod(value()); }
            else if (a == "--trace") { opt.trace = value() == "1"; }
            else if (a == "--batch-workers") {
                opt.batch_workers = std::stoul(value());
            }
            else if (a == "--corpus") { opt.corpus = value(); }
            else if (a == "--answers") { opt.answers = value(); }
            else if (a == "--out") { opt.out = value(); }
            else if (a == "--record") { opt.record = true; }
            else { throw std::invalid_argument("unknown argument " + a); }
        }
        return opt.record ? perfbench::record(opt) : perfbench::run(opt);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
