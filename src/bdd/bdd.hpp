/// \file bdd.hpp
/// \brief A self-contained ROBDD package with complement edges (substitute
/// for CUDD in this build).
///
/// The package implements reduced ordered binary decision diagrams with
/// complement edges, a unique table, a set-associative computed cache that
/// grows geometrically with the unique table (see bdd_manager_options),
/// mark-and-sweep garbage collection driven by externally held handles,
/// quantification, relational-product (and-exists), variable permutation,
/// composition and in-place dynamic reordering.
///
/// Design notes:
///  * **Handles are tagged edges.**  A reference is a 32-bit word
///    `(node_index << 1) | complement`: the low bit is the complement
///    ("NOT") mark, the upper 31 bits address a node in the arena.  Node 0
///    is the single terminal and denotes FALSE as a regular (untagged)
///    reference, so reference 0 is the constant FALSE and reference 1
///    (terminal + complement bit) is TRUE — the same two handle values the
///    package exposed before complement edges.  `bdd::index()` returns the
///    tagged reference; it remains a canonical key: two handles denote the
///    same function iff their references are equal.
///  * **Canonical form: the then-edge is regular.**  `(var, lo, hi)` and
///    `(var, ~lo, ~hi)` denote complementary functions; to keep references
///    canonical exactly one of the pair may exist.  The unique table only
///    stores nodes whose then (hi) edge carries no complement bit; building
///    the other phase returns the stored node with the complement bit set
///    on the reference instead.  Consequently a function and its negation
///    always share every node, and negation (`bdd_not`) is a constant-time
///    bit flip — no cache lookup, no allocation.
///  * **ITE standard triples.**  `ite(f,g,h)` is normalized before the
///    computed-cache lookup: repeated/complementary operands are reduced,
///    constant-branch cases are delegated to AND/XOR (OR is `~(~f & ~g)`
///    and shares the AND cache line), the predicate is made regular via
///    `ite(f,g,h) = ite(~f,h,g)`, and a complement bit on the then-branch
///    is hoisted out via `ite(f,g,h) = ~ite(f,~g,~h)`.  Thus `f & g`,
///    `~(~f | ~g)`, `ite(g,f,0)` … all resolve to one cache entry.
///  * **GC.**  Handles (`leq::bdd`) are RAII wrappers maintaining an
///    external reference count per node (the complement bit does not matter
///    for liveness).  Mark-and-sweep runs between public operations only,
///    so raw references inside recursive cores never escape a GC.
///  * Variables are identified by a stable id; the manager maps ids to
///    levels so the order can differ from creation order.  The
///    language-equation solver pins the (u,v) block at the top of the order
///    and chooses it up front with set_var_order(); sifting-based dynamic
///    reordering (reorder_sift and friends) is offered for the substrate
///    benchmarks and standalone use.  Reordering rewrites node *contents*
///    in place, preserving the regular-then-edge invariant, so indices — and
///    therefore all outstanding handles — stay valid.
///  * **Checked builds (-DLEQ_CHECKED=ON).**  The manager is single-threaded
///    by design, and handles must never cross managers — a foreign reference
///    indexes the wrong arena and silently corrupts the unique table.  In a
///    checked build every public operation verifies both preconditions:
///    each manager records a process-wide serial number and the id of the
///    thread that constructed it, and each `bdd` handle already carries its
///    manager; a cross-manager handle or an off-thread call aborts with a
///    diagnostic naming the operation and both parties.  The guards compile
///    to nothing in normal builds.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#ifdef LEQ_CHECKED
#include <thread>
#endif

namespace leq {

class bdd_manager;

/// RAII handle to a BDD node.  Copying/destroying maintains the external
/// reference count that protects the node from garbage collection.
class bdd {
public:
    bdd() = default;
    bdd(const bdd& other);
    bdd(bdd&& other) noexcept;
    bdd& operator=(const bdd& other);
    bdd& operator=(bdd&& other) noexcept;
    ~bdd();

    /// True if the handle points into a manager (even the constant nodes).
    [[nodiscard]] bool valid() const { return mgr_ != nullptr; }
    [[nodiscard]] bool is_zero() const;
    [[nodiscard]] bool is_one() const;
    [[nodiscard]] bool is_const() const { return is_zero() || is_one(); }

    /// Structural equality: canonical BDDs are equal iff the references
    /// (node index + complement bit) match.
    friend bool operator==(const bdd& a, const bdd& b) {
        return a.mgr_ == b.mgr_ && a.idx_ == b.idx_;
    }
    friend bool operator!=(const bdd& a, const bdd& b) { return !(a == b); }

    bdd operator&(const bdd& other) const;
    bdd operator|(const bdd& other) const;
    bdd operator^(const bdd& other) const;
    /// Negation: O(1) complement-bit flip (no cache lookup, no allocation).
    bdd operator!() const;
    bdd& operator&=(const bdd& other);
    bdd& operator|=(const bdd& other);
    bdd& operator^=(const bdd& other);

    /// Boolean implication (f -> g), i.e. !f | g.
    [[nodiscard]] bdd implies(const bdd& other) const;
    /// Boolean equivalence (f <-> g), i.e. !(f ^ g).
    [[nodiscard]] bdd iff(const bdd& other) const;

    /// True iff this function is contained in `other` (f & !g == 0).
    [[nodiscard]] bool leq(const bdd& other) const;

    /// Top variable id; only valid on non-constant nodes.
    [[nodiscard]] std::uint32_t top_var() const;
    /// Positive/negative cofactor with respect to the top variable (the
    /// complement bit of this reference is pushed into the result).
    [[nodiscard]] bdd high() const;
    [[nodiscard]] bdd low() const;

    [[nodiscard]] bdd_manager* manager() const { return mgr_; }
    /// Raw tagged reference: (node index << 1) | complement bit.  Stable
    /// across GC and reordering; canonical, so usable as a hash/map key.
    [[nodiscard]] std::uint32_t index() const { return idx_; }

private:
    friend class bdd_manager;
    bdd(bdd_manager* mgr, std::uint32_t idx);
    void release();

    bdd_manager* mgr_ = nullptr;
    std::uint32_t idx_ = 0;
};

/// Thrown from inside a recursive BDD operation when the manager's op
/// deadline (set_op_deadline) has passed.  The operation's partial results
/// become ordinary garbage — no manager state needs unwinding beyond the
/// exception itself — so callers may catch, translate and keep using the
/// manager.  The relation layer translates this into
/// relation_deadline_exceeded (src/rel/deadline.hpp).
struct bdd_deadline_exceeded : std::runtime_error {
    bdd_deadline_exceeded()
        : std::runtime_error("bdd operation deadline exceeded") {}
};

/// Number of distinct cached operation kinds; indexes the per-op counters
/// in bdd_stats (and_op, xor_op, ite_op, exists_op, and_exists_op,
/// support_op, cofactor_op, constrain_op, restrict_op, permute_op — in that
/// order).
inline constexpr std::size_t bdd_num_ops = 10;

/// Stable short name of cached operation kind k ("and", "xor", "ite",
/// "exists", "and_exists", "support", "cofactor", "constrain", "restrict",
/// "permute"); "?" for out-of-range k.
[[nodiscard]] const char* bdd_op_name(std::size_t k);

/// Statistics snapshot for diagnostics and benchmarking.
struct bdd_stats {
    std::size_t live_nodes = 0;     ///< nodes reachable from external roots
    std::size_t allocated_nodes = 0;///< nodes in the arena (live + garbage)
    std::size_t num_vars = 0;
    std::size_t gc_runs = 0;
    std::size_t cache_lookups = 0;
    std::size_t cache_hits = 0;
    std::size_t reorderings = 0;
    std::size_t cache_entries = 0;  ///< current computed-cache slots
    std::size_t cache_resizes = 0;  ///< computed-cache growth events
    std::size_t gc_threshold = 0;   ///< current allocated-node GC trigger
    /// Per-operation split of cache_lookups/cache_hits (indexed by the
    /// bdd_op_name order): which recursion is thrashing the cache.
    std::array<std::size_t, bdd_num_ops> op_lookups{};
    std::array<std::size_t, bdd_num_ops> op_hits{};
};

/// Construction-time tuning of a manager's memory discipline: computed-cache
/// sizing and the garbage-collection floor.  The defaults fit unit-test
/// workloads; the equation solver overrides them (problem_manager_defaults()
/// in eq/problem.hpp) and the `leq` CLI exposes all three knobs as
/// --cache-bits / --max-cache-bits / --gc-threshold.
///
/// The discipline itself is fixed: the computed cache is 4-way
/// set-associative with deterministic move-to-front LRU, it survives garbage
/// collection (only entries that reference a swept node are purged), and the
/// GC trigger follows the live set (next trigger = max(gc_threshold,
/// 2 * live nodes, arena / 2)), so it comes back down after a productive
/// collection.
struct bdd_manager_options {
    /// log2 of the initial computed-cache size.
    unsigned cache_bits = 18;
    /// log2 ceiling for computed-cache growth.  The cache tracks the unique
    /// table geometrically — at least two slots per table bucket, doubling
    /// whenever the table outgrows it (surviving entries are rehash-migrated
    /// into the larger geometry, not discarded) — until it reaches
    /// 2^max_cache_bits.  max_cache_bits == cache_bits pins a fixed-size
    /// cache that never resizes after construction.
    unsigned max_cache_bits = 24;
    /// Allocated-node count that triggers the first garbage collection;
    /// also the floor the live-set-driven trigger never drops below.
    std::size_t gc_threshold = std::size_t{1} << 14;
};

/// The BDD manager: node arena, unique table, computed cache and the
/// recursive algorithms.  All `bdd` handles stay valid across garbage
/// collection and dynamic reordering (references are stable; reordering
/// rewrites node contents in place).
class bdd_manager {
public:
    /// \param num_vars initial number of variables (ids 0..num_vars-1)
    /// \param options  memory tuning: cache sizing and the GC floor
    explicit bdd_manager(std::uint32_t num_vars = 0,
                         const bdd_manager_options& options = {});
    ~bdd_manager();

    bdd_manager(const bdd_manager&) = delete;
    bdd_manager& operator=(const bdd_manager&) = delete;

    // ---- variables -------------------------------------------------------
    /// Append a fresh variable at the bottom of the order; returns its id.
    std::uint32_t new_var();
    [[nodiscard]] std::uint32_t num_vars() const {
        return static_cast<std::uint32_t>(var2level_.size());
    }
    [[nodiscard]] std::uint32_t level_of(std::uint32_t var) const {
        return var2level_[var];
    }
    [[nodiscard]] std::uint32_t var_at_level(std::uint32_t level) const {
        return level2var_[level];
    }
    /// Install a new order given as a permutation: order[k] = variable id at
    /// level k.  Must be called before any BDDs are built (only constant
    /// handles may be live); the typical pattern is to create all variables,
    /// choose an interleaved order, then build.
    void set_var_order(const std::vector<std::uint32_t>& order);

    // ---- constants and literals -----------------------------------------
    [[nodiscard]] bdd zero() { return make(0); }
    [[nodiscard]] bdd one() { return make(1); }
    [[nodiscard]] bdd var(std::uint32_t v);
    [[nodiscard]] bdd nvar(std::uint32_t v);
    /// Literal: var v if phase is true else its negation.
    [[nodiscard]] bdd literal(std::uint32_t v, bool phase) {
        return phase ? var(v) : nvar(v);
    }

    // ---- core operations -------------------------------------------------
    [[nodiscard]] bdd apply_and(const bdd& f, const bdd& g);
    [[nodiscard]] bdd apply_or(const bdd& f, const bdd& g);
    [[nodiscard]] bdd apply_xor(const bdd& f, const bdd& g);
    /// O(1): flips the complement bit of the reference.
    [[nodiscard]] bdd apply_not(const bdd& f);
    [[nodiscard]] bdd ite(const bdd& f, const bdd& g, const bdd& h);

    /// Existential quantification of all variables in `cube` (a positive
    /// product of the variables to eliminate).
    [[nodiscard]] bdd exists(const bdd& f, const bdd& cube);
    /// Universal quantification: the complement-edge dual !exists(!f, cube).
    [[nodiscard]] bdd forall(const bdd& f, const bdd& cube);
    /// Relational product: exists(cube, f & g) computed in one pass.
    [[nodiscard]] bdd and_exists(const bdd& f, const bdd& g, const bdd& cube);
    /// N-ary relational product: exists(cube, f_1 & ... & f_n) in one fused
    /// pass over the whole operand span — no intermediate pairwise products
    /// are materialized.  The relation layer applies a cluster span through
    /// this instead of chaining binary calls.  An empty span yields
    /// exists(cube, 1) = 1.
    [[nodiscard]] bdd and_exists(const std::vector<bdd>& operands,
                                 const bdd& cube);

    /// Rename variables: result(x) = f(x with var v replaced by perm[v]).
    /// `perm` must be defined for every variable in the support of f.
    /// Cost: memoized in the computed cache under a per-manager token for
    /// `perm` (f and !f share one entry), so renaming a DAG that shares
    /// sub-DAGs with earlier renames only visits the new nodes (barring
    /// cache eviction).  When the renamed variable stays above both renamed
    /// children — always, for an order-keeping rename like the solver's
    /// interleaved ns->cs swap of a successor leaf — each node is rebuilt
    /// with one `mk`; otherwise with an `ite`.
    [[nodiscard]] bdd permute(const bdd& f,
                              const std::vector<std::uint32_t>& perm);
    /// Functional composition: substitute g for variable v in f.
    [[nodiscard]] bdd compose(const bdd& f, std::uint32_t v, const bdd& g);
    /// Simultaneous composition: substitute every listed (variable,
    /// function) pair at once.  Unlike chained compose() calls the
    /// substituted functions never see each other's variables.
    [[nodiscard]] bdd compose_vector(
        const bdd& f,
        const std::vector<std::pair<std::uint32_t, bdd>>& substitutions);
    /// Cofactor with respect to a (possibly negative-literal) cube.
    [[nodiscard]] bdd cofactor(const bdd& f, const bdd& cube);

    /// Coudert-Madre constrain (generalized cofactor): a function agreeing
    /// with f on the care set c (c != 0), with image property
    /// constrain(f,c) & c == f & c.
    [[nodiscard]] bdd constrain(const bdd& f, const bdd& c);
    /// Coudert-Madre restrict: like constrain but prunes variables absent
    /// from f's support at each level, usually giving a smaller result;
    /// restrict(f,c) & c == f & c.
    [[nodiscard]] bdd restrict_dc(const bdd& f, const bdd& c);

    // ---- structural queries ----------------------------------------------
    /// Support of f as a positive cube.
    [[nodiscard]] bdd support_cube(const bdd& f);
    /// Support of f as a sorted list of variable ids.
    [[nodiscard]] std::vector<std::uint32_t> support(const bdd& f);
    /// Number of DAG nodes (including the terminal) reachable from f.  With
    /// complement edges f and !f have identical size by construction.
    [[nodiscard]] std::size_t dag_size(const bdd& f);
    /// Number of satisfying assignments over `nvars` variables.
    [[nodiscard]] double sat_count(const bdd& f, std::uint32_t nvars);
    /// Evaluate under a full assignment indexed by variable id.
    [[nodiscard]] bool eval(const bdd& f, const std::vector<bool>& assignment);
    /// One satisfying cube (literals over the support of f); f must be != 0.
    [[nodiscard]] bdd pick_cube(const bdd& f);
    /// Enumerate all satisfying cubes of f over the listed variables; the
    /// callback receives value 0/1/2 (2 = don't care) per listed variable.
    void foreach_cube(const bdd& f, const std::vector<std::uint32_t>& vars,
                      const std::function<void(const std::vector<int>&)>& fn);

    /// Build the positive cube of a set of variables.
    [[nodiscard]] bdd cube(const std::vector<std::uint32_t>& vars);

    // ---- dynamic reordering ------------------------------------------------
    // Reordering rewrites nodes in place (references keep denoting the same
    // function), so every live `bdd` handle stays valid.  The solver pins the
    // (u,v) block at the top of its orders and therefore never calls these;
    // they are offered for the substrate benchmarks and for standalone use of
    // the package.  The computed cache survives: references keep their
    // denotation, and dead nodes are only reclaimed by the final collection,
    // which purges exactly the entries that referenced them.

    /// One full sifting pass (Rudell): each variable, in decreasing order of
    /// node count, is moved through all levels by adjacent swaps and left at
    /// the position minimizing the live node count.  A direction is abandoned
    /// when the graph grows past `max_growth` times the best size seen.
    /// Returns the live node count after the pass.
    std::size_t reorder_sift(double max_growth = 1.2);

    /// Sift a single variable to its locally optimal level.
    /// Returns the live node count after.
    std::size_t sift_one(std::uint32_t var, double max_growth = 1.2);

    /// Reorder the live graph to the exact given order (order[k] = variable
    /// id at level k) by adjacent swaps.  Unlike set_var_order this may be
    /// called with live BDDs.
    void reorder_to(const std::vector<std::uint32_t>& order);

    /// Sifting over variable *groups*: each group's variables are first
    /// gathered into an adjacent block (preserving the listed intra-group
    /// order) and then whole blocks are sifted as units.  The natural use
    /// here is keeping cs/ns latch pairs interleaved while searching for a
    /// good latch order.  `groups` must partition all variables (use
    /// singleton groups for ungrouped variables).  Returns the live node
    /// count after the pass.
    std::size_t reorder_sift_groups(
        const std::vector<std::vector<std::uint32_t>>& groups,
        double max_growth = 1.2);

    /// Exhaustive structural check of the unique table and the canonicity
    /// invariants (children below parents, no lo==hi nodes, no duplicate
    /// (var,lo,hi) keys, every stored then-edge regular — which is what
    /// guarantees a node and its complement can never both sit in the
    /// table).  Throws std::logic_error on violation; for tests.
    void check_consistency() const;

    // ---- cooperative op deadline ----------------------------------------
    /// Arm a deadline checked *inside* the recursive operation cores: once
    /// `when` passes, the next computed-cache probe (checked every ~1024
    /// lookups to keep the hot path cheap) throws bdd_deadline_exceeded.
    /// This is what lets a caller bound one monolithic and_exists run
    /// instead of only noticing a blown budget between operations.  The
    /// deadline stays armed until clear_op_deadline().
    void set_op_deadline(std::chrono::steady_clock::time_point when) {
        op_deadline_ = when;
        op_deadline_armed_ = true;
        op_deadline_countdown_ = op_deadline_stride;
    }
    void clear_op_deadline() { op_deadline_armed_ = false; }

    // ---- maintenance -----------------------------------------------------
    /// Run mark-and-sweep garbage collection now.
    void collect_garbage();
    [[nodiscard]] const bdd_stats& stats() const { return stats_; }
    [[nodiscard]] std::size_t live_node_count();

#ifdef LEQ_CHECKED
    /// Checked build only: process-wide serial of this manager (1-based,
    /// construction order) — names managers in violation diagnostics.
    [[nodiscard]] std::uint64_t checked_serial() const {
        return checked_serial_;
    }
#endif

    /// Render f as a sum-of-cubes string over the given variable names
    /// (diagnostics; exponential in the worst case).
    [[nodiscard]] std::string to_string(const bdd& f,
                                        const std::vector<std::string>& names);

private:
    friend class bdd;

    // ---- checked-build provenance guards (LEQ_CHECKED) -------------------
    // The one-manager-per-thread rule and the no-cross-manager-handles rule
    // are the two preconditions every future parallel-image design leans on
    // (docs/ARCHITECTURE.md "Concurrency model").  Checked builds turn both
    // from prose into executable aborts; normal builds compile the guards
    // to nothing.  Every public entry point calls checked_guard() first.
#ifdef LEQ_CHECKED
    void checked_thread_guard(const char* operation) const;
    void checked_handle_guard(const char* operation, const bdd& handle) const;
#else
    void checked_thread_guard(const char*) const {}
    void checked_handle_guard(const char*, const bdd&) const {}
#endif
    template <typename... Handles>
    void checked_guard(const char* operation,
                       const Handles&... handles) const {
        checked_thread_guard(operation);
        (checked_handle_guard(operation, handles), ...);
    }
    void checked_guard(const char* operation,
                       const std::vector<bdd>& handles) const {
        checked_thread_guard(operation);
        for (const bdd& h : handles) { checked_handle_guard(operation, h); }
    }

    /// Arena node.  `lo`/`hi` are tagged references; the canonical-form
    /// invariant keeps `hi` regular (complement bit clear) for every node
    /// stored in the unique table.  The unique-table chain link lives in the
    /// parallel `chain_` array so the traversal-hot triple stays 12 bytes —
    /// recursion cores touch `{var, lo, hi}` constantly and the chain link
    /// only on unique-table probes.
    struct node {
        std::uint32_t var;  ///< variable id; var_nil for the terminal
        std::uint32_t lo;   ///< else-edge reference (var = 0)
        std::uint32_t hi;   ///< then-edge reference (var = 1), always regular
    };
    static constexpr std::uint32_t var_nil = 0xffffffffu;
    static constexpr std::uint32_t idx_nil = 0xffffffffu;

    enum class op : std::uint8_t {
        and_op, xor_op, ite_op, exists_op, and_exists_op, support_op,
        cofactor_op, constrain_op, restrict_op, permute_op
    };
    static_assert(static_cast<std::size_t>(op::permute_op) + 1 == bdd_num_ops,
                  "bdd_num_ops must match the cached-op enum");

    /// One computed-cache slot.  Slots are grouped into `cache_assoc`-entry
    /// set-associative buckets stored contiguously, so a 4-way bucket spans
    /// at most two cache lines.  `o == 0xff` marks an empty slot; `age` is
    /// the GC epoch the entry was stored (or last hit) in — replacement
    /// evicts the slot with the largest epoch distance.
    struct cache_entry {
        std::uint32_t f = idx_nil;
        std::uint32_t g = idx_nil;
        std::uint32_t h = idx_nil;
        std::uint32_t result = idx_nil;
        std::uint8_t o = 0xff;
        std::uint8_t age = 0;
    };

    /// Hint the hardware prefetcher at a probe target (no-op off GCC/Clang).
    static inline void prefetch(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
        __builtin_prefetch(p);
#else
        (void)p;
#endif
    }

    // ---- tagged-reference helpers ---------------------------------------
    /// Node index addressed by a reference.
    [[nodiscard]] static constexpr std::uint32_t node_of(std::uint32_t r) {
        return r >> 1;
    }
    /// Complement bit of a reference (0 or 1).
    [[nodiscard]] static constexpr std::uint32_t comp_of(std::uint32_t r) {
        return r & 1u;
    }
    [[nodiscard]] static constexpr bool is_comp(std::uint32_t r) {
        return (r & 1u) != 0;
    }
    /// Regular (untagged) version of a reference.
    [[nodiscard]] static constexpr std::uint32_t regular(std::uint32_t r) {
        return r & ~1u;
    }
    /// Terminal test: references 0 (FALSE) and 1 (TRUE) address node 0.
    [[nodiscard]] static constexpr bool is_terminal(std::uint32_t r) {
        return r <= 1;
    }
    /// Else-cofactor of a reference: the stored edge with the reference's
    /// complement bit pushed through.
    [[nodiscard]] std::uint32_t lo_of(std::uint32_t r) const {
        return nodes_[r >> 1].lo ^ (r & 1u);
    }
    /// Then-cofactor of a reference.
    [[nodiscard]] std::uint32_t hi_of(std::uint32_t r) const {
        return nodes_[r >> 1].hi ^ (r & 1u);
    }
    [[nodiscard]] std::uint32_t var_of(std::uint32_t r) const {
        return nodes_[r >> 1].var;
    }
    [[nodiscard]] std::uint32_t level(std::uint32_t r) const {
        const node& n = nodes_[r >> 1];
        return n.var == var_nil ? var_nil : var2level_[n.var];
    }

    /// Shared hash for the unique table and the computed cache.
    static std::uint64_t node_hash(std::uint64_t a, std::uint64_t b,
                                   std::uint64_t c) {
        std::uint64_t h = a * 0x9e3779b97f4a7c15ull;
        h ^= b + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
        h ^= c + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
        return h;
    }

    /// Find-or-create the node (var, lo, hi) and return its reference.  The
    /// complement bit of `hi` is hoisted onto the returned reference so the
    /// stored then-edge stays regular.
    std::uint32_t mk(std::uint32_t var, std::uint32_t lo, std::uint32_t hi);
    std::uint32_t alloc_node();
    void unique_insert(std::uint32_t idx);
    void unique_remove(std::uint32_t idx);
    void rehash(std::size_t new_size);
    void maybe_gc_or_grow();
    void maybe_grow_cache();

    // reordering internals (bdd_reorder.cpp); rc_ / var_nodes_ are only
    // populated between reorder_begin and reorder_end
    void reorder_begin();
    void reorder_end();
    void rc_incref(std::uint32_t ref);
    void rc_deref(std::uint32_t ref);
    std::uint32_t reorder_mk(std::uint32_t var, std::uint32_t lo,
                             std::uint32_t hi);
    std::size_t swap_levels(std::uint32_t level);
    void sift_core(std::uint32_t var, double max_growth);
    [[nodiscard]] std::size_t var_node_count(std::uint32_t var) const;

    // external reference counting used as GC roots (per node; the complement
    // bit of the held reference is irrelevant for liveness)
    void inc_ext_ref(std::uint32_t ref);
    void dec_ext_ref(std::uint32_t ref);

    /// Countdown slow path for the op deadline: reads the clock and throws
    /// bdd_deadline_exceeded when past.  Called from cache_lookup every
    /// `op_deadline_stride` probes while a deadline is armed.
    void op_deadline_check();

    // computed cache (set-associative, age-stamped)
    bool cache_lookup(op o, std::uint32_t f, std::uint32_t g, std::uint32_t h,
                      std::uint32_t& result);
    void cache_store(op o, std::uint32_t f, std::uint32_t g, std::uint32_t h,
                     std::uint32_t result);
    void cache_clear();
    /// First slot of the bucket the (o,f,g,h) key hashes to.
    [[nodiscard]] cache_entry* cache_bucket(op o, std::uint32_t f,
                                            std::uint32_t g, std::uint32_t h);
    /// Deterministic replacement with move-to-front recency: overwrite a
    /// same-key slot, else fill the first empty slot, else evict the entry
    /// touched the most GC epochs ago (highest way on ties — under
    /// move-to-front, way order *is* recency order within an epoch), then
    /// rotate the written entry to way 0.
    void cache_insert(cache_entry* bucket, const cache_entry& entry);
    /// GC epilogue: advance the age epoch and purge only the entries that
    /// reference swept nodes (their indices are about to be recycled via
    /// free_list_, so a stale entry would alias a future unrelated node).
    /// Entries over live nodes survive — that is what buys cross-GC hits.
    void cache_age_and_purge();

    // recursive cores (tagged references; protected from GC because GC only
    // runs between public operations)
    std::uint32_t and_rec(std::uint32_t f, std::uint32_t g);
    /// De Morgan wrapper: shares the AND cache.
    std::uint32_t or_rec(std::uint32_t f, std::uint32_t g) {
        return and_rec(f ^ 1u, g ^ 1u) ^ 1u;
    }
    std::uint32_t xor_rec(std::uint32_t f, std::uint32_t g);
    std::uint32_t ite_rec(std::uint32_t f, std::uint32_t g, std::uint32_t h);
    std::uint32_t exists_rec(std::uint32_t f, std::uint32_t cube);
    std::uint32_t and_exists_rec(std::uint32_t f, std::uint32_t g,
                                 std::uint32_t cube);
    /// Hash map keyed by a normalized operand list (plus the cube) for the
    /// n-ary relational product.  Per call: unlike the computed table it
    /// cannot be recycled across operations, since entries pin arbitrary
    /// operand lists; the unary/binary degenerations below still ride the
    /// global caches, which is where cross-call sharing lives.
    struct nary_key_hash {
        std::size_t operator()(const std::vector<std::uint32_t>& key) const {
            std::uint64_t h = 0x9e3779b97f4a7c15ull;
            for (const std::uint32_t r : key) {
                h = node_hash(h, r, key.size());
            }
            return static_cast<std::size_t>(h);
        }
    };
    using nary_memo = std::unordered_map<std::vector<std::uint32_t>,
                                         std::uint32_t, nary_key_hash>;
    /// N-ary core; memoized per call, degenerating to the cached
    /// unary/binary cores once the span shrinks.
    std::uint32_t and_exists_nary_rec(std::vector<std::uint32_t> operands,
                                      std::uint32_t cube, nary_memo& memo);
    std::uint32_t support_rec(std::uint32_t f);
    std::uint32_t constrain_rec(std::uint32_t f, std::uint32_t c);
    std::uint32_t restrict_rec(std::uint32_t f, std::uint32_t c);
    /// Cached core: the computed-cache key is (permute_op, regular f,
    /// token, 0), where `token` is perm's slot in perms_ — not a node
    /// reference, which cache_age_and_purge must respect.
    std::uint32_t permute_rec(std::uint32_t f,
                              const std::vector<std::uint32_t>& perm,
                              std::uint32_t token);
    std::uint32_t compose_rec(std::uint32_t f, std::uint32_t v,
                              std::uint32_t g,
                              std::vector<std::uint32_t>& memo);
    std::uint32_t compose_vec_rec(std::uint32_t f,
                                  const std::vector<std::uint32_t>& sub,
                                  std::uint32_t deepest_level,
                                  std::vector<std::uint32_t>& memo);

    [[nodiscard]] bdd make(std::uint32_t idx) { return bdd(this, idx); }

    // data
    std::vector<node> nodes_;              ///< arena; node 0 is the terminal
    std::vector<std::uint32_t> chain_;     ///< unique-table chain per node
    std::vector<std::uint32_t> ext_ref_;   ///< external refs per node
    std::vector<std::uint32_t> free_list_;
    std::vector<std::uint32_t> buckets_;   ///< unique table (power of two)
    /// Computed-cache associativity: slots per bucket.
    static constexpr std::uint32_t cache_assoc = 4;
    std::vector<cache_entry> cache_;       ///< ways-entry buckets, contiguous
    std::uint64_t cache_bucket_mask_ = 0;  ///< bucket count - 1
    std::uint8_t cache_epoch_ = 0;         ///< age epoch; advances per GC
    std::vector<std::uint32_t> var2level_;
    std::vector<std::uint32_t> level2var_;
    bdd_manager_options opts_;
    std::size_t gc_threshold_ = std::size_t{1} << 14;
    /// Cache probes between op-deadline clock reads: rare enough that the
    /// hot path only pays a decrement, frequent enough that one and_exists
    /// cannot overshoot its budget by more than a few thousand probes.
    static constexpr std::size_t op_deadline_stride = 1024;
    bool op_deadline_armed_ = false;
    std::chrono::steady_clock::time_point op_deadline_{};
    std::size_t op_deadline_countdown_ = 0;
    bdd_stats stats_;
    std::vector<char> mark_; ///< scratch for GC / traversals
    std::vector<std::uint32_t> gc_worklist_; ///< reused GC mark worklist
    /// Every permutation permute() has seen; an entry's slot is the token
    /// its cache entries carry.  Entries are never removed, so tokens stay
    /// unique; callers use only a handful of distinct renamings.
    std::vector<std::vector<std::uint32_t>> perms_;

    // live only during a reordering call
    std::vector<std::uint32_t> rc_;                    ///< internal ref counts
    std::vector<std::vector<std::uint32_t>> var_nodes_;///< nodes per variable
    std::size_t alive_ = 0;                            ///< rc_-tracked live count

#ifdef LEQ_CHECKED
    std::uint64_t checked_serial_ = 0;  ///< process-wide construction serial
    std::thread::id checked_owner_;     ///< the one thread allowed to call in
#endif
};

} // namespace leq
