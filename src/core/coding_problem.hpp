// stgcc -- precomputed data for the partial-order-aware conflict search.
//
// A CodingProblem densifies the non-cut-off events of a prefix (cut-off
// variables are pinned to 0, which "effectively removes some of the
// variables" -- paper, section 3) and caches, per dense event index:
//   * its strict causal predecessors, successors and conflict set as rows of
//     three arena-backed bit matrices over dense indices (the Theorem 1
//     closure rules), exposed as BitSpan row views,
//   * its signal and code contribution (+1 for z+, -1 for z-),
// and, per signal, its rising and falling events as two more arena-backed
// rows over dense indices (the solver's extreme forcing reads them).
// It also records the derived initial code v0 and whether the STG is
// dynamically conflict-free (enabling the section 7 optimisation).
#pragma once

#include <vector>

#include "stg/stg.hpp"
#include "unfolding/occurrence_net.hpp"
#include "unfolding/prefix_checks.hpp"
#include "util/arena.hpp"
#include "util/bit_matrix.hpp"

namespace stgcc::core {

/// Initial interval slack of one signal's code-difference constraint:
/// counts of unassigned variables with coefficient +1 / -1.  Computed once
/// per problem and copied (not rebuilt) by every solver instance.
struct SignalSlack {
    int pos = 0;
    int neg = 0;
};

class CodingProblem {
public:
    /// Build from a consistent, dummy-free STG and its complete prefix.
    /// Throws ModelError when the STG is inconsistent.
    CodingProblem(const stg::Stg& stg, const unf::Prefix& prefix);

    /// Same, reusing an already computed consistency analysis (tier-1
    /// artifact sharing: verify_stg and the PrefixArtifacts cache analyze
    /// the prefix exactly once).  `consistency.consistent` must be true.
    CodingProblem(const stg::Stg& stg, const unf::Prefix& prefix,
                  const unf::PrefixConsistency& consistency);

    [[nodiscard]] const stg::Stg& stg() const noexcept { return *stg_; }
    [[nodiscard]] const unf::Prefix& prefix() const noexcept { return *prefix_; }

    /// Number of dense (non-cut-off) events q; the solver searches over
    /// pairs of 0-1 vectors of this length.
    [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }

    [[nodiscard]] unf::EventId event_of(std::size_t dense) const {
        return events_[dense];
    }

    [[nodiscard]] BitSpan preds(std::size_t dense) const {
        return preds_.row(dense);
    }
    [[nodiscard]] BitSpan succs(std::size_t dense) const {
        return succs_.row(dense);
    }
    [[nodiscard]] BitSpan conflicts(std::size_t dense) const {
        return confs_.row(dense);
    }

    [[nodiscard]] stg::SignalId signal(std::size_t dense) const {
        return signal_[dense];
    }
    /// +1 for a rising edge, -1 for a falling edge.
    [[nodiscard]] int delta(std::size_t dense) const { return delta_[dense]; }

    /// The dense events of signal z with delta +1 (rises) and -1 (falls):
    /// together they partition z's events.
    [[nodiscard]] BitSpan rises(stg::SignalId z) const { return rises_.row(z); }
    [[nodiscard]] BitSpan falls(stg::SignalId z) const { return falls_.row(z); }

    [[nodiscard]] const stg::Code& initial_code() const noexcept {
        return initial_code_;
    }

    /// Paper section 7: true when the union of any two configurations is a
    /// configuration, so the pair search may be restricted to C' subset C''.
    [[nodiscard]] bool dynamically_conflict_free() const noexcept {
        return conflict_free_;
    }

    /// Expand a dense 0-1 vector (as BitVec) into an event set of the prefix.
    [[nodiscard]] BitVec to_event_set(const BitVec& dense) const;

    /// Code of the marking reached by a dense configuration: v0 + change vector.
    [[nodiscard]] stg::Code code_of(const BitVec& dense) const;
    /// Same, written into `out` (reuses its storage: no allocation once
    /// sized).
    void code_of(BitSpan dense, stg::Code& out) const;

    // --- shared solver template (tier-1 artifact cache) ---------------------
    // Every CompatSolver instance over this problem starts from the same
    // per-signal slack accounting; precomputing it here turns the
    // per-instance setup (one rebuild per solve lane, per normalcy
    // orientation, per verify phase) into a copy of a num_signals-sized
    // array.

    /// Initial per-signal slacks (indexed by SignalId; fixed = 0).
    [[nodiscard]] const std::vector<SignalSlack>& initial_slacks() const noexcept {
        return initial_slacks_;
    }

private:
    void build(const unf::PrefixConsistency& consistency);

    const stg::Stg* stg_;
    const unf::Prefix* prefix_;
    std::vector<unf::EventId> events_;
    util::Arena arena_;                       ///< owns the closure slabs
    util::BitMatrix preds_, succs_, confs_;   ///< q x q rows in arena_
    util::BitMatrix rises_, falls_;           ///< num_signals x q, in arena_
    std::vector<stg::SignalId> signal_;
    std::vector<int> delta_;
    std::vector<SignalSlack> initial_slacks_;
    stg::Code initial_code_;
    bool conflict_free_ = false;
};

}  // namespace stgcc::core
