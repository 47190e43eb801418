/// \file relation.hpp
/// \brief The shared transition-relation subsystem.
///
/// The paper's central move is running every language-equation step over
/// *partitioned* relations with early quantification.  `transition_relation`
/// makes that representation a first-class object: it owns the partition
/// parts, their variable-support metadata, the merged clusters (greedy or
/// affinity policy, see rel/cluster.hpp) and a per-cluster quantification
/// schedule (rel/schedule.hpp), and serves `image(from)` / `preimage(to)`
/// with per-call statistics.  Every relation consumer — the reachability
/// fixpoints, both solver flows, verification and diagnosis — routes its
/// conjunction chains through this layer instead of hand-rolling
/// and_exists loops.
///
/// Ownership and thread-safety: a `transition_relation` borrows the
/// manager passed at construction and holds BDD handles into it — the
/// manager must outlive the relation.  Like the manager itself, a relation
/// is confined to one thread: `image()`/`preimage()` mutate the manager's
/// computed cache and the relation's own statistics (and `preimage()`
/// builds its schedule lazily), so concurrent use requires one manager and
/// one relation per thread, shared-nothing (see eq/solver.hpp and the
/// `leq batch` campaign runner).
#pragma once

#include "rel/cluster.hpp"
#include "rel/schedule.hpp"

#include <cstdint>
#include <optional>
#include <vector>

namespace leq {

/// Reachability fixpoint order (see `reachable_states`).
///
///  * bfs       each fixpoint step images the entire reached set
///              (the textbook R := R | Img(R) iteration; kept as the
///              reference the default is checked against)
///  * frontier  each step images only the states discovered in the previous
///              step (the default: the frontier is usually a much smaller
///              BDD than the reached set)
///
/// Both compute the same fixpoint with the same BFS layering; they differ
/// only in the size of the image operand.  Solves never run a fixpoint, so
/// the strategy does not affect them.
enum class reach_strategy : std::uint8_t { bfs, frontier };

/// Strategy name for diagnostics ("bfs" or "frontier").
[[nodiscard]] const char* to_string(reach_strategy strategy);

/// All strategies, in a fixed order (test sweeps).
inline constexpr reach_strategy all_reach_strategies[] = {
    reach_strategy::bfs, reach_strategy::frontier};

/// Options for the relation layer (`solve_options::img` plumbs this through
/// both solver flows).
struct image_options {
    /// Merged-cluster node bound (see rel/cluster.hpp); 0 disables merging.
    std::size_t cluster_limit = 2500;
    /// How parts merge into clusters: greedy adjacent (the historical
    /// behavior) or affinity pairing by shared support variables.
    cluster_policy policy = cluster_policy::greedy;
    /// Fixpoint order for the reachability entry points (img/image.hpp).
    reach_strategy strategy = reach_strategy::frontier;
    /// Optional absolute deadline.  Image/preimage chains, cluster merging
    /// at construction, and reachability fixpoints throw
    /// `relation_deadline_exceeded` once it passes; the solvers set it from
    /// `solve_options::time_limit_seconds` (translating the throw into
    /// `solve_status::timeout`) so a deep fixpoint can no longer blow past
    /// the solver timeout.  Inside a quantification schedule the check
    /// runs between chain steps and, through `op_deadline_guard`
    /// (rel/schedule.cpp), inside each and_exists too, so one long
    /// conjunction is interrupted from within.  Still checked only between
    /// operations: `permute` (the cs/ns renaming) and work outside
    /// schedules — cluster merging and the fixpoints' set unions and
    /// differences — each of which can overshoot by one operation.
    relation_deadline deadline;
    /// Also track `relation_stats::peak_intermediate` (costs one DAG
    /// traversal per chain step; off on the hot path by default).
    bool collect_stats = false;
    /// TEST-ONLY fault injection.  When set to a variable id, every
    /// image()/preimage() result is wrongly constrained to that variable
    /// being 0 (successors with the variable at 1 are silently dropped) —
    /// a controlled stand-in for an image-engine bug.  The differential
    /// fuzz harness's self-tests (src/gen/, tests/test_gen.cpp) use it to
    /// prove the cross-flow oracle catches such bugs and that the shrinker
    /// reduces them to minimal reproducers.  Never set on real workloads.
    static constexpr std::uint32_t no_fault = 0xffffffffu;
    std::uint32_t fault_suppress_var = no_fault;
};

/// A conjunctively partitioned relation with a quantification schedule.
///
/// The generic form represents  R(free) = exists Q . p_1 & ... & p_n  and
/// serves  image(from) = exists Q . p_1 & ... & p_n & from.  The structured
/// form (`next_state`) knows the cs/ns variable pairing of a next-state
/// relation and additionally serves  preimage(to) = exists inputs, ns .
/// p_1 & ... & p_n & to[cs -> ns],  returned over the cs variables.
class transition_relation {
public:
    /// Generic partitioned relation.
    /// \param parts relation conjuncts
    /// \param quantify variables to existentially quantify in image()
    transition_relation(bdd_manager& mgr, std::vector<bdd> parts,
                        std::vector<std::uint32_t> quantify,
                        const image_options& options = {});

    /// Structured next-state relation over per-latch functions: parts are
    /// `ns_k == next_fns_k(inputs, cs)`, image() quantifies inputs+cs (result
    /// over ns), preimage() quantifies inputs+ns (result over cs).
    [[nodiscard]] static transition_relation
    next_state(bdd_manager& mgr, const std::vector<bdd>& next_fns,
               const std::vector<std::uint32_t>& cs_vars,
               const std::vector<std::uint32_t>& ns_vars,
               const std::vector<std::uint32_t>& input_vars,
               const image_options& options = {});

    /// Image of `from` under the relation: exists Q . (AND parts) & from,
    /// renamed by `rename_result` when set.
    [[nodiscard]] bdd image(const bdd& from) const;

    /// Image of `from & constraint` with the constraint fused into the
    /// quantification chain (never materialized as a standalone product) —
    /// the form the verification walkers use for per-transition labels.
    [[nodiscard]] bdd image(const bdd& from, const bdd& constraint) const;

    /// Preimage of `to` (a set over the cs variables): the cs states with a
    /// successor in `to`.  Structured (next_state) relations only; the
    /// preimage schedule is built lazily on first use, so image-only callers
    /// (the reachability fixpoints) never pay for it.
    [[nodiscard]] bdd preimage(const bdd& to) const;
    [[nodiscard]] bool has_preimage() const { return structured_; }

    /// Install a variable renaming applied to every image() result (e.g. the
    /// ns->cs swap, so fixpoint loops need no separate permute step).
    void rename_result(std::vector<std::uint32_t> perm) {
        result_perm_ = std::move(perm);
    }
    /// Structured relations: rename image() results back to current-state
    /// variables using the stored cs/ns swap (what reachability fixpoints
    /// want).
    void rename_image_to_current() { result_perm_ = cs_ns_swap_; }
    /// Whether image() results are renamed (rename_result /
    /// rename_image_to_current was applied).
    [[nodiscard]] bool renames_result() const {
        return !result_perm_.empty();
    }

    [[nodiscard]] bdd_manager& manager() const { return *mgr_; }
    [[nodiscard]] std::size_t num_parts() const { return parts_.size(); }
    [[nodiscard]] std::size_t num_clusters() const {
        return image_schedule_.num_clusters();
    }
    /// The image-order schedule (clusters, retirement sets) for inspection.
    [[nodiscard]] const quant_schedule& schedule() const {
        return image_schedule_;
    }
    /// Accumulated per-call statistics (see relation_stats).
    [[nodiscard]] const relation_stats& stats() const { return stats_; }
    [[nodiscard]] const image_options& options() const { return options_; }

private:
    transition_relation(bdd_manager& mgr, std::vector<bdd> parts,
                        std::vector<std::uint32_t> quantify,
                        const image_options& options,
                        const std::vector<std::uint32_t>& cs_vars,
                        const std::vector<std::uint32_t>& ns_vars,
                        const std::vector<std::uint32_t>& input_vars);
    void build(const std::vector<std::uint32_t>& quantify);

    bdd_manager* mgr_;
    std::vector<bdd> parts_;
    std::vector<bdd> clusters_;
    image_options options_;
    quant_schedule image_schedule_;
    bool structured_ = false; ///< built via next_state (cs/ns pairing known)
    /// Built lazily by preimage() over the same clusters (structured only).
    mutable std::optional<quant_schedule> preimage_schedule_;
    std::vector<std::uint32_t> pre_quantify_; ///< inputs + ns (structured)
    std::vector<std::uint32_t> cs_ns_swap_;   ///< structured only
    std::vector<std::uint32_t> result_perm_;  ///< empty = identity
    mutable relation_stats stats_;
};

} // namespace leq
