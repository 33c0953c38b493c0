// stgcc -- tier-1 cache: per-prefix shared artifacts (docs/CACHING.md).
//
// Everything the USC / CSC / normalcy checkers derive from one unfolding
// prefix is computed exactly once here and then shared read-only by every
// solver instance of the model:
//   * the co-relation matrix of the prefix (row e = events concurrent with
//     e), used by the consistency analysis instead of O(k^2) pairwise
//     queries,
//   * the consistency analysis itself (and the derived initial code v0),
//     which verify_stg and the CodingProblem used to compute separately,
//   * the dense CodingProblem with its per-signal solver template,
//   * per-dense-event condition pre/post masks plus the Min(ON) mask, which
//     turn the leaf-predicate marking computation (cut of a configuration)
//     into three word-parallel bit operations instead of a vector<bool>
//     sweep over all conditions,
//   * the tier-2 learned-clause store shared by sibling solver instances.
//
// The object is immutable after construction (the clause store is
// internally locked), so a PrefixArtifactsPtr may be shared across any
// number of worker threads; UnfoldingChecker and verify_stg read through
// it, and callers such as `stgcheck --cores` / `--dot` reuse the prefix
// instead of re-unfolding.
//
// Inconsistent STGs construct fine -- consistency() carries the diagnosis
// and problem() throws the same ModelError the CodingProblem constructor
// used to raise, so checker construction keeps its historical behaviour.
#pragma once

#include <memory>
#include <vector>

#include "cache/clause_store.hpp"
#include "core/coding_problem.hpp"
#include "unfolding/prefix_checks.hpp"
#include "unfolding/unfolder.hpp"
#include "util/arena.hpp"
#include "util/bit_matrix.hpp"

namespace stgcc::cache {

class PrefixArtifacts {
public:
    /// Unfold `stg` and derive all artifacts.  Throws ModelError for
    /// dummy-carrying STGs and for STGs whose unfolding exceeds the limits.
    /// `stg` must outlive the artifacts, so a temporary does not compile.
    explicit PrefixArtifacts(const stg::Stg& stg, unf::UnfoldOptions opts = {});
    explicit PrefixArtifacts(const stg::Stg&& stg, unf::UnfoldOptions opts = {}) = delete;

    /// Adopt an already built complete prefix of `stg`.
    PrefixArtifacts(const stg::Stg& stg, unf::Prefix prefix);
    PrefixArtifacts(const stg::Stg&& stg, unf::Prefix prefix) = delete;

    /// Owning variant: keeps `stg` alive alongside the artifacts (used by
    /// svc::PreparedModel, whose reduced nets outlive the call that made
    /// them).
    PrefixArtifacts(std::shared_ptr<const stg::Stg> stg,
                    unf::UnfoldOptions opts = {});

    [[nodiscard]] const stg::Stg& stg() const noexcept { return *stg_; }
    [[nodiscard]] const unf::Prefix& prefix() const noexcept { return prefix_; }

    /// The consistency analysis, computed exactly once per prefix.
    [[nodiscard]] const unf::PrefixConsistency& consistency() const noexcept {
        return consistency_;
    }
    [[nodiscard]] bool consistent() const noexcept {
        return consistency_.consistent;
    }

    /// The shared coding problem.  Throws ModelError (message identical to
    /// the historical CodingProblem diagnosis) when the STG is inconsistent.
    [[nodiscard]] const core::CodingProblem& problem() const;

    /// Events concurrent with `e`, as a bit row over event ids (exactly
    /// num_events() bits, a row of the arena-backed co matrix -- valid as
    /// long as the artifacts).
    [[nodiscard]] BitSpan co_row(unf::EventId e) const {
        STGCC_REQUIRE(e < co_rows_.rows());
        return co_rows_.row(e);
    }

    /// Marking reached by a dense configuration of the coding problem:
    /// cut = (Min(ON) | union of postsets) \ union of presets, evaluated
    /// with the precomputed condition masks.  Agrees bit-for-bit with
    /// unf::marking_of(prefix, problem().to_event_set(dense)).
    /// Only valid when consistent().
    [[nodiscard]] petri::Marking marking_of_dense(const BitVec& dense) const;

    /// The same marking as a set of places, written into caller-owned
    /// buffers: `cut` receives the cut over conditions and `places` the
    /// places of its conditions.  The net is 1-safe, so the place set is the
    /// exact marking -- two dense configurations reach the same marking iff
    /// their place sets are equal.  Allocation-free once the buffers are
    /// sized (leaf predicates reuse one pair per solve).  Only valid when
    /// consistent().
    void places_of_dense(BitSpan dense, BitVec& cut, BitVec& places) const;

    /// True when some transition of signal z is enabled at the marking
    /// whose place set is `places` (from places_of_dense): tests the preset
    /// places of z's transitions only, not every transition of the net.
    /// Agrees with stg().signal_enabled() on that marking.  Only valid when
    /// consistent().
    [[nodiscard]] bool signal_enabled(BitSpan places, stg::SignalId z) const;

    /// Tier-2 learned-clause store shared by all solver instances over this
    /// problem.  Mutable through const artifacts: recording a proved cut
    /// does not change any observable verdict (see clause_store.hpp).
    /// Only valid when consistent().
    [[nodiscard]] ClauseStore& clauses() const {
        STGCC_ASSERT(clauses_ != nullptr);
        return *clauses_;
    }

private:
    void build();

    std::shared_ptr<const stg::Stg> owned_stg_;  ///< may be null (aliasing ctors)
    const stg::Stg* stg_;
    unf::Prefix prefix_;
    util::Arena arena_;           ///< owns the co matrix and condition masks
    util::BitMatrix co_rows_;     ///< n x n, rows in arena_
    unf::PrefixConsistency consistency_;
    std::unique_ptr<core::CodingProblem> problem_;  ///< null when inconsistent
    BitVec min_mask_;                        ///< Min(ON), width num_conditions
    util::BitMatrix pre_masks_, post_masks_;  ///< q x num_conditions, in arena_
    /// signal_enabled() index, CSR: the transitions of signal z are
    /// enabling_[signal_begin_[z] .. signal_begin_[z+1]), and the preset of
    /// the k-th of them is preset_places_[enabling_[k] .. enabling_[k+1]).
    std::vector<std::uint32_t> signal_begin_, enabling_, preset_places_;
    mutable std::unique_ptr<ClauseStore> clauses_;
};

/// Shared read-only handle; every checker over one model holds one of these.
using PrefixArtifactsPtr = std::shared_ptr<const PrefixArtifacts>;

}  // namespace stgcc::cache
