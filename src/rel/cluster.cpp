/// \file cluster.cpp
/// \brief Clustering policies: greedy adjacent merge and affinity pairing.

#include "rel/cluster.hpp"

#include <algorithm>
#include <limits>

namespace leq {

const char* to_string(cluster_policy policy) {
    switch (policy) {
    case cluster_policy::greedy: return "greedy";
    case cluster_policy::affinity: return "affinity";
    }
    return "?";
}

namespace {

/// Greedy adjacent merge (the historical image-engine behavior): each part
/// folds into the previous cluster while the product stays small enough.
std::vector<bdd> cluster_greedy(bdd_manager& mgr, const std::vector<bdd>& parts,
                                std::size_t limit,
                                const relation_deadline& deadline) {
    std::vector<bdd> clustered;
    for (const bdd& p : parts) {
        throw_if_past(deadline);
        if (!clustered.empty()) {
            const bdd candidate = clustered.back() & p;
            if (mgr.dag_size(candidate) <= limit) {
                clustered.back() = candidate;
                continue;
            }
        }
        clustered.push_back(p);
    }
    return clustered;
}

/// Affinity merge: repeatedly conjoin the pair of clusters sharing the most
/// support variables, among pairs whose product respects the limit.  Ties go
/// to the smallest merged product, so weakly coupled clusters do not balloon
/// while a better-matched pair is available.  O(n^3) pair scans with n =
/// #parts (tens), dominated by the BDD products anyway.
std::vector<bdd> cluster_affinity(bdd_manager& mgr,
                                  const std::vector<bdd>& parts,
                                  std::size_t limit,
                                  const relation_deadline& deadline) {
    std::vector<bdd> clusters = parts;
    std::vector<std::vector<std::uint32_t>> supports;
    supports.reserve(clusters.size());
    for (const bdd& c : clusters) { supports.push_back(mgr.support(c)); }

    const auto shared_vars = [&](std::size_t a, std::size_t b) {
        // supports are sorted (bdd_manager::support returns sorted ids)
        std::size_t count = 0, i = 0, j = 0;
        while (i < supports[a].size() && j < supports[b].size()) {
            if (supports[a][i] == supports[b][j]) {
                ++count;
                ++i;
                ++j;
            } else if (supports[a][i] < supports[b][j]) {
                ++i;
            } else {
                ++j;
            }
        }
        return count;
    };

    while (clusters.size() > 1) {
        // rank pairs by shared-variable count (cheap, no BDD work), then walk
        // the ranking and build products lazily: the first affinity level
        // with a fitting product wins, ties broken by smallest product
        struct pair_rank {
            std::size_t shared, a, b;
        };
        std::vector<pair_rank> ranking;
        for (std::size_t a = 0; a + 1 < clusters.size(); ++a) {
            for (std::size_t b = a + 1; b < clusters.size(); ++b) {
                ranking.push_back({shared_vars(a, b), a, b});
            }
        }
        std::sort(ranking.begin(), ranking.end(),
                  [](const pair_rank& x, const pair_rank& y) {
                      return x.shared > y.shared;
                  });

        std::size_t best_a = 0, best_b = 0;
        std::size_t best_size = std::numeric_limits<std::size_t>::max();
        bdd best_product;
        for (std::size_t k = 0; k < ranking.size(); ++k) {
            throw_if_past(deadline);
            if (ranking[k].shared == 0) {
                // clusters with disjoint support: merging buys no earlier
                // quantification, only a bigger BDD — leave them apart
                break;
            }
            if (best_product.valid() &&
                ranking[k].shared < ranking[0].shared) {
                break; // a product fit at a higher affinity level
            }
            if (!best_product.valid() && k > 0 &&
                ranking[k].shared < ranking[k - 1].shared) {
                // nothing fit at the previous level; the ties-only rule moves
                // with us: treat this level as the new top
                ranking[0].shared = ranking[k].shared;
            }
            const bdd product =
                clusters[ranking[k].a] & clusters[ranking[k].b];
            const std::size_t size = mgr.dag_size(product);
            if (size > limit || size >= best_size) { continue; }
            best_a = ranking[k].a;
            best_b = ranking[k].b;
            best_size = size;
            best_product = product;
        }
        if (!best_product.valid()) { break; } // no pair fits under the limit
        clusters[best_a] = best_product;
        supports[best_a] = mgr.support(best_product);
        clusters.erase(clusters.begin() +
                       static_cast<std::ptrdiff_t>(best_b));
        supports.erase(supports.begin() +
                       static_cast<std::ptrdiff_t>(best_b));
    }
    return clusters;
}

} // namespace

std::vector<bdd> cluster_parts(bdd_manager& mgr, const std::vector<bdd>& parts,
                               cluster_policy policy,
                               std::size_t cluster_limit,
                               const relation_deadline& deadline) {
    if (cluster_limit == 0 || parts.size() < 2) {
        return parts;
    }
    switch (policy) {
    case cluster_policy::greedy:
        return cluster_greedy(mgr, parts, cluster_limit, deadline);
    case cluster_policy::affinity:
        return cluster_affinity(mgr, parts, cluster_limit, deadline);
    }
    return parts;
}

} // namespace leq
