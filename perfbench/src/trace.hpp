/// \file trace.hpp
/// \brief In-memory spans for the benchmark's traced runs.
///
/// The runner opens a span around each call it makes into a library layer
/// (net, automata, eq, rel, img, bdd, cli).  A span records its name, start
/// and end (nanoseconds since the tracer was created), the span that was
/// open when it started (its parent), the pass it belongs to (the run id),
/// and, when given a manager, the BDD counter delta across it.  Spans stay in
/// memory and are written out once, at the end of the run.
///
/// A disabled tracer records nothing: `span()` returns an inert scope, so
/// the untraced runs that measure end-to-end metrics pay one branch per
/// layer call.
#pragma once

#include "bdd/bdd.hpp"

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The manager counters a span carries (a delta across the span, except
/// `allocated_nodes` and `live_nodes`, which are the manager's values when
/// the span closed).
struct bdd_counters {
    std::size_t cache_lookups = 0;
    std::size_t cache_hits = 0;
    std::size_t gc_runs = 0;
    std::size_t allocated_nodes = 0;
    std::size_t live_nodes = 0;
    std::array<std::size_t, leq::bdd_num_ops> op_lookups{};
    std::array<std::size_t, leq::bdd_num_ops> op_hits{};
};

/// `after - before` for the traffic counters; arena sizes from `after`.
inline bdd_counters counter_delta(const leq::bdd_stats& before,
                                  const leq::bdd_stats& after) {
    bdd_counters d;
    d.cache_lookups = after.cache_lookups - before.cache_lookups;
    d.cache_hits = after.cache_hits - before.cache_hits;
    d.gc_runs = after.gc_runs - before.gc_runs;
    d.allocated_nodes = after.allocated_nodes;
    d.live_nodes = after.live_nodes;
    for (std::size_t k = 0; k < leq::bdd_num_ops; ++k) {
        d.op_lookups[k] = after.op_lookups[k] - before.op_lookups[k];
        d.op_hits[k] = after.op_hits[k] - before.op_hits[k];
    }
    return d;
}

struct span_record {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1; ///< index into the span list; -1 for a root
    int run = 0;     ///< pass index; spans of one pass share it
    bool has_counters = false;
    bdd_counters counters;
};

class tracer {
public:
    explicit tracer(bool enabled)
        : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

    tracer(const tracer&) = delete;
    tracer& operator=(const tracer&) = delete;

    [[nodiscard]] bool enabled() const { return enabled_; }
    void set_enabled(bool on) { enabled_ = on; }
    void set_run(int run) { run_ = run; }

    /// RAII span.  Closed by its destructor or by `close()`.
    class scope {
    public:
        scope(const scope&) = delete;
        scope& operator=(const scope&) = delete;
        scope(scope&& other) noexcept
            : owner_(other.owner_), index_(other.index_), mgr_(other.mgr_),
              before_(other.before_), zero_base_(other.zero_base_) {
            other.owner_ = nullptr;
        }
        scope& operator=(scope&&) = delete;
        ~scope() { close(); }

        /// Carry the counters of a manager created inside this span: the
        /// delta is taken from zero (a fresh manager) at close.
        void count_new(const leq::bdd_manager& mgr) {
            if (owner_ == nullptr) { return; }
            mgr_ = &mgr;
            zero_base_ = true;
        }

        void close() {
            if (owner_ == nullptr) { return; }
            span_record& s = owner_->spans_[static_cast<std::size_t>(index_)];
            if (mgr_ != nullptr) {
                s.has_counters = true;
                s.counters = counter_delta(
                    zero_base_ ? leq::bdd_stats{} : before_, mgr_->stats());
            }
            s.end_ns = owner_->now_ns();
            owner_->open_.pop_back();
            owner_ = nullptr;
        }

    private:
        friend class tracer;
        scope() = default;
        tracer* owner_ = nullptr;
        int index_ = -1;
        const leq::bdd_manager* mgr_ = nullptr;
        leq::bdd_stats before_{};
        bool zero_base_ = false;
    };

    /// Open a span; `mgr`, when given, attaches its counter delta.
    [[nodiscard]] scope span(const char* name,
                             const leq::bdd_manager* mgr = nullptr) {
        scope s;
        if (!enabled_) { return s; }
        span_record rec;
        rec.name = name;
        rec.parent = open_.empty() ? -1 : open_.back();
        rec.run = run_;
        s.owner_ = this;
        s.index_ = static_cast<int>(spans_.size());
        if (mgr != nullptr) {
            s.mgr_ = mgr;
            s.before_ = mgr->stats();
        }
        spans_.push_back(std::move(rec));
        open_.push_back(s.index_);
        // the clock is read last so the span excludes its own bookkeeping
        spans_.back().start_ns = now_ns();
        return s;
    }

    [[nodiscard]] const std::vector<span_record>& spans() const {
        return spans_;
    }

private:
    [[nodiscard]] std::int64_t now_ns() const {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - origin_)
            .count();
    }

    bool enabled_;
    int run_ = 0;
    std::chrono::steady_clock::time_point origin_;
    std::vector<span_record> spans_;
    std::vector<int> open_;
};

} // namespace perfbench
