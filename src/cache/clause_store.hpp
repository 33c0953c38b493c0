// stgcc -- tier-2 cache: learned-clause store shared by sibling solver
// instances over one coding problem (docs/CACHING.md).
//
// The CompatSolver enumerates configuration pairs by the index d of the
// first differing variable.  When the whole d-subtree is exhausted without
// reaching a single leaf, the solver has proved "no Unf-compatible pair
// satisfying the linear code relation has its first difference at d" -- a
// fact about the *linear* system only, independent of the caller's leaf
// predicate.  The store records these first-difference cuts per
// (code relation, conflict-free mode) and replays them into sibling
// instances (the per-signal CSC fan-out, the USC -> CSC phase handoff, the
// two normalcy orientations), which then skip the subtree outright.
//
// Soundness of replay, and hence determinism of verdicts and witnesses
// (cache on vs off): a replayed cut removes only subtrees that contain no
// candidate pair at all, so the sequence of leaves any sibling enumerates
// -- and therefore the first accepted witness -- is unchanged.  Cuts
// additionally replay across keys whose feasible set is a superset of the
// recording key's:
//   * a cut learned under LessEq or GreaterEq is valid under Equal
//     (D_z = 0 satisfies both one-sided relations), and
//   * a cut learned without the conflict-free restriction is valid with it
//     (the restricted search enumerates a subset of pairs).
//
// Thread safety: all methods are mutex-guarded; record/replay races between
// concurrent siblings only affect how many cuts a sibling happens to see
// (node counts), never verdicts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "util/bitvec.hpp"

namespace stgcc::cache {

class ClauseStore {
public:
    /// Relation key, mirroring core::CodeRelation's enumerator order.
    enum Relation : int { kEqual = 0, kLessEq = 1, kGreaterEq = 2 };

    /// `num_vars` is the dense event count q of the coding problem; cuts
    /// are first-difference indices in [0, q).
    explicit ClauseStore(std::size_t num_vars = 0);

    [[nodiscard]] std::size_t num_vars() const noexcept { return num_vars_; }

    /// Lifecycle tallies of the learned cuts: how many were recorded, how
    /// often siblings replayed one, and how many search nodes the replays
    /// actually saved (each cut is priced at the node count its original
    /// exhaustive proof cost; a replay is credited exactly that).  The
    /// profiler's recorded -> replayed -> pruned funnel (tools/stgprof).
    struct Efficacy {
        std::uint64_t recorded = 0;
        std::uint64_t replayed = 0;
        std::uint64_t pruned_nodes = 0;
    };

    /// Record a proved leaf-free first-difference index.  `subtree_nodes`
    /// is the search-node count of the exhaustive proof (the price a
    /// replaying sibling avoids paying).
    void record_cut(int relation, bool conflict_free_mode, std::size_t d,
                    std::uint64_t subtree_nodes = 0);

    /// Credit the cuts in `mask` as replayed once each under the given key
    /// (bulk, called once per solve; see CompatSolver::solve).
    void note_replayed(int relation, bool conflict_free_mode,
                       const BitVec& mask);

    [[nodiscard]] Efficacy efficacy() const;

    /// All cuts sound for a solve under (relation, conflict_free_mode):
    /// the exact key plus the supersumption closure described above.
    /// Returns a snapshot (width q); callers test bits against their outer
    /// loop index.
    [[nodiscard]] BitVec cuts_for(int relation, bool conflict_free_mode) const;

    /// Total cuts recorded so far (all keys; for tests and benches).
    [[nodiscard]] std::size_t num_cuts() const;

private:
    [[nodiscard]] static std::size_t slot(int relation, bool cf) noexcept {
        return static_cast<std::size_t>(relation) * 2 + (cf ? 1 : 0);
    }

    /// Proof cost of the cut at index d under the closure for (relation,
    /// cf): the first recording slot (closure order) that has d set.
    /// Caller holds mu_.
    [[nodiscard]] std::uint64_t cost_locked(int relation, bool cf,
                                            std::size_t d) const;

    std::size_t num_vars_;
    mutable std::mutex mu_;
    BitVec cuts_[6];  // [relation][conflict_free_mode]
    std::vector<std::uint64_t> costs_[6];  ///< proof nodes per recorded cut
    Efficacy eff_;
};

}  // namespace stgcc::cache
