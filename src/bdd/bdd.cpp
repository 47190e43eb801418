/// \file bdd.cpp
/// \brief Manager core: node arena, unique table, handles, garbage collection.

#include "bdd/bdd.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#ifdef LEQ_CHECKED
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#endif

namespace leq {

const char* bdd_op_name(std::size_t k) {
    static const char* const names[bdd_num_ops] = {
        "and",        "xor",     "ite",      "exists",
        "and_exists", "support", "cofactor", "permute"};
    return k < bdd_num_ops ? names[k] : "?";
}

// ---------------------------------------------------------------------------
// checked-build provenance (LEQ_CHECKED)
// ---------------------------------------------------------------------------

#ifdef LEQ_CHECKED

namespace {

// construction order across the whole process; the counter (not the
// managers) is the only shared state, so it is the one atomic here
std::atomic<std::uint64_t> checked_next_serial{0};

[[noreturn]] void checked_abort(const std::string& diagnostic) {
    std::fprintf(stderr, "%s\n", diagnostic.c_str());
    std::fflush(stderr);
    std::abort();
}

} // namespace

void bdd_manager::checked_thread_guard(const char* operation) const {
    if (std::this_thread::get_id() == checked_owner_) { return; }
    std::ostringstream os;
    os << "leq checked build: off-thread bdd_manager call: operation '"
       << operation << "' on manager #" << checked_serial_
       << " (owner thread " << checked_owner_ << ", calling thread "
       << std::this_thread::get_id()
       << "); a bdd_manager belongs to exactly one thread from construction "
          "to destruction (docs/ARCHITECTURE.md, Concurrency model)";
    checked_abort(os.str());
}

void bdd_manager::checked_handle_guard(const char* operation,
                                       const bdd& handle) const {
    if (handle.mgr_ == nullptr || handle.mgr_ == this) { return; }
    std::ostringstream os;
    os << "leq checked build: cross-manager bdd handle: operation '"
       << operation << "' on manager #" << checked_serial_
       << " received a handle owned by manager #"
       << handle.mgr_->checked_serial_
       << "; handles must never cross bdd_manager instances — a foreign "
          "reference indexes the wrong arena and corrupts the unique table";
    checked_abort(os.str());
}

#endif // LEQ_CHECKED

// ---------------------------------------------------------------------------
// bdd handle
// ---------------------------------------------------------------------------

bdd::bdd(bdd_manager* mgr, std::uint32_t idx) : mgr_(mgr), idx_(idx) {
    mgr_->inc_ext_ref(idx_);
}

bdd::bdd(const bdd& other) : mgr_(other.mgr_), idx_(other.idx_) {
    if (mgr_ != nullptr) { mgr_->inc_ext_ref(idx_); }
}

bdd::bdd(bdd&& other) noexcept : mgr_(other.mgr_), idx_(other.idx_) {
    other.mgr_ = nullptr;
    other.idx_ = 0;
}

bdd& bdd::operator=(const bdd& other) {
    if (this == &other) { return *this; }
    if (other.mgr_ != nullptr) { other.mgr_->inc_ext_ref(other.idx_); }
    release();
    mgr_ = other.mgr_;
    idx_ = other.idx_;
    return *this;
}

bdd& bdd::operator=(bdd&& other) noexcept {
    if (this == &other) { return *this; }
    release();
    mgr_ = other.mgr_;
    idx_ = other.idx_;
    other.mgr_ = nullptr;
    other.idx_ = 0;
    return *this;
}

bdd::~bdd() { release(); }

void bdd::release() {
    if (mgr_ != nullptr) {
        mgr_->dec_ext_ref(idx_);
        mgr_ = nullptr;
        idx_ = 0;
    }
}

bool bdd::is_zero() const { return mgr_ != nullptr && idx_ == 0; }
bool bdd::is_one() const { return mgr_ != nullptr && idx_ == 1; }

bdd bdd::operator&(const bdd& other) const { return mgr_->apply_and(*this, other); }
bdd bdd::operator|(const bdd& other) const { return mgr_->apply_or(*this, other); }
bdd bdd::operator^(const bdd& other) const { return mgr_->apply_xor(*this, other); }
bdd bdd::operator!() const { return mgr_->apply_not(*this); }

bdd& bdd::operator&=(const bdd& other) { return *this = *this & other; }
bdd& bdd::operator|=(const bdd& other) { return *this = *this | other; }
bdd& bdd::operator^=(const bdd& other) { return *this = *this ^ other; }

bdd bdd::implies(const bdd& other) const { return (!*this) | other; }
bdd bdd::iff(const bdd& other) const { return !(*this ^ other); }

bool bdd::leq(const bdd& other) const {
    return (*this & !other).is_zero();
}

std::uint32_t bdd::top_var() const {
    assert(mgr_ != nullptr && idx_ > 1);
    return mgr_->var_of(idx_);
}

bdd bdd::high() const {
    assert(mgr_ != nullptr && idx_ > 1);
    return bdd(mgr_, mgr_->hi_of(idx_));
}

bdd bdd::low() const {
    assert(mgr_ != nullptr && idx_ > 1);
    return bdd(mgr_, mgr_->lo_of(idx_));
}

// ---------------------------------------------------------------------------
// manager construction
// ---------------------------------------------------------------------------

bdd_manager::bdd_manager(std::uint32_t num_vars,
                         const bdd_manager_options& options) {
#ifdef LEQ_CHECKED
    checked_serial_ = ++checked_next_serial;
    checked_owner_ = std::this_thread::get_id();
#endif
    // sanitize the tuning: cache sizes must stay addressable powers of two
    // and the ceiling can never undercut the initial size
    opts_ = options;
    opts_.cache_bits = std::min(std::max(opts_.cache_bits, 8u), 30u);
    opts_.max_cache_bits =
        std::min(std::max(opts_.max_cache_bits, opts_.cache_bits), 30u);
    opts_.gc_threshold = std::max<std::size_t>(opts_.gc_threshold, 1u << 10);
    gc_threshold_ = opts_.gc_threshold;
    nodes_.reserve(1u << 12);
    // node 0: the single terminal, denoting FALSE as a regular reference
    // (reference 0 = FALSE, reference 1 = TRUE)
    nodes_.push_back({var_nil, 0, 0});
    chain_.assign(1, idx_nil);
    ext_ref_.assign(1, 1); // the terminal is permanently live
    buckets_.assign(1u << 12, idx_nil);
    cache_.assign(std::size_t{1} << opts_.cache_bits, cache_entry{});
    cache_bucket_mask_ = cache_.size() / cache_assoc - 1;
    stats_.cache_entries = cache_.size();
    stats_.gc_threshold = gc_threshold_;
    for (std::uint32_t v = 0; v < num_vars; ++v) { new_var(); }
}

bdd_manager::~bdd_manager() = default;

std::uint32_t bdd_manager::new_var() {
    checked_guard("new_var");
    const auto v = static_cast<std::uint32_t>(var2level_.size());
    var2level_.push_back(v);
    level2var_.push_back(v);
    stats_.num_vars = var2level_.size();
    return v;
}

bdd bdd_manager::var(std::uint32_t v) {
    checked_guard("var");
    assert(v < num_vars());
    return make(mk(v, 0, 1));
}

bdd bdd_manager::nvar(std::uint32_t v) {
    checked_guard("nvar");
    assert(v < num_vars());
    return make(mk(v, 1, 0));
}

// ---------------------------------------------------------------------------
// unique table
// ---------------------------------------------------------------------------

std::uint32_t bdd_manager::mk(std::uint32_t var, std::uint32_t lo,
                              std::uint32_t hi) {
    if (lo == hi) { return lo; }
    // canonical form: hoist the then-edge's complement bit onto the result
    const std::uint32_t out = hi & 1u;
    lo ^= out;
    hi ^= out;
    const std::uint64_t h = node_hash(var, lo, hi) & (buckets_.size() - 1);
    for (std::uint32_t i = buckets_[h]; i != idx_nil; i = chain_[i]) {
        const node& n = nodes_[i];
        // overlap the next link's node fetch with this key comparison: chain
        // hops are the data-dependent loads this loop stalls on
        const std::uint32_t next = chain_[i];
        if (next != idx_nil) { prefetch(&nodes_[next]); }
        if (n.var == var && n.lo == lo && n.hi == hi) { return (i << 1) | out; }
    }
    const std::uint32_t idx = alloc_node();
    // alloc_node may have rehashed (grown) the table: recompute the bucket
    const std::uint64_t h2 = node_hash(var, lo, hi) & (buckets_.size() - 1);
    nodes_[idx] = {var, lo, hi};
    chain_[idx] = buckets_[h2];
    buckets_[h2] = idx;
    return (idx << 1) | out;
}

std::uint32_t bdd_manager::alloc_node() {
    if (!free_list_.empty()) {
        const std::uint32_t idx = free_list_.back();
        free_list_.pop_back();
        return idx;
    }
    const auto idx = static_cast<std::uint32_t>(nodes_.size());
    if (idx >= (1u << 31) - 1) {
        // node indices must leave room for the complement bit, and index
        // 2^31-1 is excluded outright: its complemented reference would be
        // 0xffffffff, aliasing the idx_nil sentinel the memo tables use
        throw std::length_error("bdd_manager: node arena full");
    }
    // grow the table before pushing the fresh node: rehash() reinserts every
    // arena node, and the caller has not filled this one in yet — inserting
    // it with garbage content would chain-corrupt a bucket once the caller
    // overwrites its `next` pointer
    if (nodes_.size() + 1 > buckets_.size()) { rehash(buckets_.size() * 2); }
    nodes_.push_back({});
    chain_.push_back(idx_nil);
    ext_ref_.push_back(0);
    return idx;
}

void bdd_manager::unique_insert(std::uint32_t idx) {
    const node& n = nodes_[idx];
    const std::uint64_t h = node_hash(n.var, n.lo, n.hi) & (buckets_.size() - 1);
    chain_[idx] = buckets_[h];
    buckets_[h] = idx;
}

void bdd_manager::rehash(std::size_t new_size) {
    // only called while growing the arena, i.e. with an empty free list, so
    // every node in the arena belongs in the table (dead ones are culled by
    // the next GC)
    assert(free_list_.empty());
    buckets_.assign(new_size, idx_nil);
    for (std::uint32_t i = 1; i < nodes_.size(); ++i) { unique_insert(i); }
    // the computed cache scales with the unique table: a cache sized for
    // unit tests thrashes once the arena holds millions of nodes, so every
    // table growth re-checks the cache budget
    maybe_grow_cache();
}

void bdd_manager::maybe_grow_cache() {
    const std::size_t limit = std::size_t{1} << opts_.max_cache_bits;
    std::size_t target = cache_.size();
    // keep at least two cache slots per table bucket, up to the ceiling
    while (target < 2 * buckets_.size() && target < limit) { target *= 2; }
    if (target == cache_.size()) { return; }
    // rehash-migrate: a bucket index depends on the mask, so every surviving
    // entry is re-slotted under the new geometry.  Growth happens right when
    // the workload is deepest — discarding the memo there (the historical
    // clear-on-grow) forced exactly the recomputation the bigger cache was
    // bought to avoid.  Entries keep their age stamps; only same-bucket
    // collisions beyond the ways can drop entries, deterministically.
    std::vector<cache_entry> old;
    old.swap(cache_);
    cache_.assign(target, cache_entry{});
    cache_bucket_mask_ = static_cast<std::uint64_t>(target / cache_assoc) - 1;
    // walk each old bucket's ways in reverse so move-to-front insertion
    // reconstructs the same recency order in the new geometry
    for (std::size_t b = 0; b < old.size(); b += cache_assoc) {
        for (std::uint32_t w = cache_assoc; w > 0; --w) {
            const cache_entry& e = old[b + w - 1];
            if (e.o == 0xff) { continue; }
            cache_insert(cache_bucket(static_cast<op>(e.o), e.f, e.g, e.h),
                         e);
        }
    }
    ++stats_.cache_resizes;
    stats_.cache_entries = target;
}

// ---------------------------------------------------------------------------
// external references and garbage collection
// ---------------------------------------------------------------------------

void bdd_manager::inc_ext_ref(std::uint32_t ref) {
    // handle copies count as manager calls too: catching an off-thread
    // handle copy/destroy is the point of the owner-thread rule
    checked_thread_guard("bdd handle copy");
    ++ext_ref_[node_of(ref)];
}

void bdd_manager::dec_ext_ref(std::uint32_t ref) {
    checked_thread_guard("bdd handle release");
#ifdef LEQ_CHECKED
    if (ext_ref_[node_of(ref)] == 0) {
        std::ostringstream os;
        os << "leq checked build: bdd handle release underflow: node "
           << node_of(ref) << " of manager #" << checked_serial_
           << " has no outstanding external references; a handle was "
              "released twice (double destroy, or a bitwise handle copy "
              "that bypassed bdd's reference counting) — in a release "
              "build this wraps the count and the next garbage collection "
              "frees a live node";
        checked_abort(os.str());
    }
#endif
    assert(ext_ref_[node_of(ref)] > 0);
    --ext_ref_[node_of(ref)];
}

void bdd_manager::maybe_gc_or_grow() {
    if (nodes_.size() - free_list_.size() < gc_threshold_) { return; }
    collect_garbage();
    // scale-aware trigger: let the live set double before the next
    // collection, but never collect before the dead fraction is worth the
    // sweep — each GC walks the whole arena and ages the computed cache, so
    // firing every `floor` allocations on a 100k+ node arena churns the memo
    // for nothing.  An unproductive GC (everything survived) raises the bar
    // exactly as far as the survivors demand; a productive one drops it back
    // toward max(floor, arena/2)
    gc_threshold_ = std::max({opts_.gc_threshold, stats_.live_nodes * 2,
                              nodes_.size() / 2});
    stats_.gc_threshold = gc_threshold_;
}

void bdd_manager::collect_garbage() {
    checked_guard("collect_garbage");
    ++stats_.gc_runs;
    // mark: one explicit worklist over all roots at once.  The ext-ref roots
    // are seeded in arena order in a single linear sweep before any marking,
    // so the root scan streams through ext_ref_ instead of alternating
    // between the root array and pointer-chasing DFS per root; the worklist
    // (a member, so its capacity is reused across collections) bounds the
    // traversal depth by the arena, never by the C++ stack.
    mark_.assign(nodes_.size(), 0);
    mark_[0] = 1;
    gc_worklist_.clear();
    for (std::uint32_t i = 1; i < nodes_.size(); ++i) {
        if (ext_ref_[i] > 0) {
            mark_[i] = 1;
            gc_worklist_.push_back(i);
        }
    }
    while (!gc_worklist_.empty()) {
        const std::uint32_t n = gc_worklist_.back();
        gc_worklist_.pop_back();
        for (const std::uint32_t edge : {nodes_[n].lo, nodes_[n].hi}) {
            const std::uint32_t c = node_of(edge);
            if (!mark_[c]) {
                mark_[c] = 1;
                gc_worklist_.push_back(c);
            }
        }
    }
    // sweep: rebuild unique table with only live nodes
    free_list_.clear();
    for (auto& b : buckets_) { b = idx_nil; }
    std::size_t live = 1;
    for (std::uint32_t i = 1; i < nodes_.size(); ++i) {
        if (mark_[i]) {
            unique_insert(i);
            ++live;
        } else {
            free_list_.push_back(i);
        }
    }
    stats_.live_nodes = live;
    stats_.allocated_nodes = nodes_.size();
    cache_age_and_purge();
}

std::size_t bdd_manager::live_node_count() {
    checked_guard("live_node_count");
    collect_garbage();
    return stats_.live_nodes;
}

// ---------------------------------------------------------------------------
// computed cache
// ---------------------------------------------------------------------------

bdd_manager::cache_entry* bdd_manager::cache_bucket(op o, std::uint32_t f,
                                                    std::uint32_t g,
                                                    std::uint32_t h) {
    const std::uint64_t bucket =
        node_hash((static_cast<std::uint64_t>(o) << 32) | f, g, h) &
        cache_bucket_mask_;
    cache_entry* e = &cache_[bucket * cache_assoc];
    if (cache_assoc * sizeof(cache_entry) > 64) {
        // a 4-way bucket spans two cache lines: start the second line's
        // fetch while the first ways are compared
        prefetch(reinterpret_cast<const char*>(e) + 64);
    }
    return e;
}

void bdd_manager::cache_insert(cache_entry* bucket,
                               const cache_entry& entry) {
    // pick the slot: same key first (keeps a bucket duplicate-free), else
    // the first empty way, else evict by age.  Between collections every
    // live entry carries the current epoch, so the age distance alone
    // cannot rank them — move-to-front keeps way order as recency order,
    // making "highest way among the oldest" exactly the LRU victim.  All
    // choices are functions of bucket state only: fully deterministic.
    std::uint32_t target = cache_assoc - 1;
    std::uint8_t oldest_distance = 0;
    for (std::uint32_t w = 0; w < cache_assoc; ++w) {
        cache_entry& e = bucket[w];
        if (e.o == entry.o && e.f == entry.f && e.g == entry.g &&
            e.h == entry.h) {
            target = w;
            break;
        }
        if (e.o == 0xff) {
            target = w;
            break;
        }
        const auto distance = static_cast<std::uint8_t>(cache_epoch_ - e.age);
        if (distance >= oldest_distance) {
            oldest_distance = distance;
            target = w;
        }
    }
    // rotate the prefix down one way and put the new entry in front
    for (std::uint32_t w = target; w > 0; --w) { bucket[w] = bucket[w - 1]; }
    bucket[0] = entry;
}

void bdd_manager::op_deadline_check() {
    op_deadline_countdown_ = op_deadline_stride;
    if (std::chrono::steady_clock::now() > op_deadline_) {
        throw bdd_deadline_exceeded{};
    }
}

bool bdd_manager::cache_lookup(op o, std::uint32_t f, std::uint32_t g,
                               std::uint32_t h, std::uint32_t& result) {
    // every recursive core probes the cache, so this is the one place a
    // cooperative deadline can interrupt a long-running operation from the
    // inside; the countdown keeps the clock read off the hot path
    if (op_deadline_armed_ && --op_deadline_countdown_ == 0) {
        op_deadline_check();
    }
    ++stats_.cache_lookups;
    ++stats_.op_lookups[static_cast<std::size_t>(o)];
    cache_entry* bucket = cache_bucket(o, f, g, h);
    for (std::uint32_t w = 0; w < cache_assoc; ++w) {
        if (bucket[w].f == f && bucket[w].g == g && bucket[w].h == h &&
            bucket[w].o == static_cast<std::uint8_t>(o)) {
            // a hit entry is earning its slot: refresh the age stamp and
            // rotate it to the front so way order tracks recency
            cache_entry hit = bucket[w];
            hit.age = cache_epoch_;
            for (std::uint32_t v = w; v > 0; --v) {
                bucket[v] = bucket[v - 1];
            }
            bucket[0] = hit;
            result = hit.result;
            ++stats_.cache_hits;
            ++stats_.op_hits[static_cast<std::size_t>(o)];
            return true;
        }
    }
    return false;
}

void bdd_manager::cache_store(op o, std::uint32_t f, std::uint32_t g,
                              std::uint32_t h, std::uint32_t result) {
    cache_insert(cache_bucket(o, f, g, h),
                 {f, g, h, result, static_cast<std::uint8_t>(o),
                  cache_epoch_});
}

void bdd_manager::cache_age_and_purge() {
    // advance the epoch so pre-GC entries age relative to post-GC stores,
    // then purge exactly the entries that reference a swept node: those
    // indices return through free_list_, and a surviving entry would alias
    // whatever unrelated node is allocated there next.  Everything keyed on
    // live nodes stays — results are canonical references, so the memo is
    // still correct after the sweep.
    ++cache_epoch_;
    for (std::size_t b = 0; b < cache_.size(); b += cache_assoc) {
        // compact each bucket's survivors toward way 0 (preserving their
        // order) so the move-to-front invariant — way order is recency
        // order, empties at the tail — holds across the purge
        std::uint32_t keep = 0;
        for (std::uint32_t w = 0; w < cache_assoc; ++w) {
            const cache_entry e = cache_[b + w];
            if (e.o == 0xff) { continue; }
            // a permute entry's g slot is a perms_ token, not a reference
            const bool g_is_ref =
                e.o != static_cast<std::uint8_t>(op::permute_op);
            if (!mark_[node_of(e.f)] || (g_is_ref && !mark_[node_of(e.g)]) ||
                !mark_[node_of(e.h)] || !mark_[node_of(e.result)]) {
                continue;
            }
            cache_[b + keep] = e;
            ++keep;
        }
        for (; keep < cache_assoc; ++keep) {
            cache_[b + keep] = cache_entry{};
        }
    }
}

void bdd_manager::cache_clear() {
    for (auto& e : cache_) { e = cache_entry{}; }
}

} // namespace leq
