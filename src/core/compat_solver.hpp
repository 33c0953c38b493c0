// stgcc -- the paper's verification algorithm (sections 3-5 and 7).
//
// Searches for a pair of configurations (C', C'') of the prefix whose Parikh
// vectors x', x'' in {0,1}^q satisfy
//   * a per-signal linear relation on the code difference
//     D_z = sum_e delta(e) (x'_e - x''_e)   (=, <= or >= 0),
//   * x'(e) = x''(e) = 0 for cut-off events (built into the dense index),
//   * a caller-supplied non-linear separating predicate evaluated at leaves
//     (markings differ / Out sets differ / Nxt comparison).
//
// Instead of feeding the constraints to a standard solver, the search only
// ever visits Unf-compatible vectors (Theorem 1): assigning x(e)=1 forces
// its causal predecessors to 1 and its conflict set to 0; assigning x(e)=0
// forces its causal successors to 0 (the minimal compatible closure, MCC).
// Per-signal interval reasoning on D_z prunes and forces assignments.
//
// The closure is word-parallel.  Each side s holds its assignment as two
// bitsets over the dense indices, ones[s] and zeros[s]; they are the only
// assignment state.  A variable is assigned when it is enqueued: its bit is
// set, its signal's slack updated and the signal's interval checked right
// there, so the pending queue holds each variable at most once (at most 2q
// entries).  Processing an assigned e then combines the CodingProblem rows
// with the bitsets one 64-bit word at a time:
//   * x(e)=1: a clash is preds[e] & zeros or confs[e] & ones; the newly
//     forced bits are preds[e] & ~ones (to 1) and confs[e] & ~zeros (to 0),
//   * x(e)=0: a clash is succs[e] & ones; succs[e] & ~zeros is forced to 0,
// plus the scalar first-difference and section 7 links below.  Every rule
// is a monotone implication and every interval check only tightens as
// assignments grow, so the queue order cannot change the fixpoint reached,
// nor whether a contradiction is reached: search nodes, leaves, verdicts
// and witnesses are independent of it.  Only the number of variables
// assigned before a contradiction is noticed (`propagations`) depends on
// the order.
//
// Distinct pairs are enumerated exactly once via a first-difference scheme:
// the outer loop fixes the first dense index d where the vectors differ
// (x'_d = 0 < x''_d = 1, with x'_j = x''_j linked for j < d), which both
// removes the C' = C'' diagonal and halves the symmetric search space --
// this realises the paper's "M' <lex M''" separating constraint at the
// level of Parikh vectors.  Below d the search branches on the lowest
// unassigned index, x' before x'', found by a word scan of
// ~((ones[0] | zeros[0]) & (ones[1] | zeros[1])).
//
// When the STG is dynamically conflict-free, the section 7 optimisation
// restricts the search to set-ordered pairs C' subset C'' via the extra
// propagation x'_e <= x''_e (Proposition 1).
#pragma once

#include <functional>
#include <optional>

#include "cache/clause_store.hpp"
#include "core/coding_problem.hpp"
#include "sched/cancellation.hpp"
#include "sched/workspace.hpp"
#include "stg/results.hpp"

namespace stgcc::core {

/// Relation required between the two code vectors, per signal:
///   Equal:     Code(x') =  Code(x'')   (USC / CSC conflict constraint)
///   LessEq:    Code(x') <= Code(x'')   componentwise (normalcy, R = <=)
///   GreaterEq: Code(x') >= Code(x'')   componentwise (normalcy, R = >=)
enum class CodeRelation { Equal, LessEq, GreaterEq };

struct SearchOptions {
    /// Apply the conflict-free optimisation when the problem allows it.
    bool use_conflict_free_optimisation = true;
    /// Abort (throw ModelError) after this many search nodes.
    std::size_t max_nodes = 500'000'000;
    /// Cooperative cancellation, polled every kCancelPollMask+1 search
    /// nodes; a cancelled solve stops early with found == false and
    /// cancelled == true.  Empty token (the default): never cancelled.
    sched::CancellationToken cancel;
    /// Learned-clause store shared with sibling instances (tier 2,
    /// src/cache/): proved leaf-free first-difference subtrees are skipped
    /// on replay and newly proved ones recorded.  Never changes verdicts or
    /// witnesses (docs/CACHING.md); nullptr = no sharing.
    cache::ClauseStore* clauses = nullptr;
    /// Checker-level switch for the shared-store wiring (`--no-cache`):
    /// when false, UnfoldingChecker leaves `clauses` unset and skips the
    /// USC->CSC subsumption certificates.
    bool use_learned_clauses = true;
};

/// Leaf predicate: given the two dense configurations, decide whether they
/// constitute the sought conflict.  Returning true stops the search;
/// returning false continues enumeration.  The arguments are the search's
/// own assignment bitsets, valid only for the duration of the call.
using PairPredicate = std::function<bool(const BitVec& ca, const BitVec& cb)>;

struct SearchOutcome {
    bool found = false;
    bool cancelled = false;  ///< search stopped by SearchOptions::cancel
    BitVec ca, cb;           ///< dense configurations when found
    stg::CheckStats stats;
};

/// The assignment state of one pair search and its Theorem 1 closure (see
/// the file comment).  CompatSolver checks one out of the per-worker
/// WorkspacePool per solve and reset()s it, so a warm kernel allocates
/// nothing; the kernel property test and bench_kernels drive it directly.
class CompatKernel {
public:
    struct SignalState {
        int fixed = 0;      ///< contribution of assigned variables to D_z
        int pos_slack = 0;  ///< number of unassigned vars with coefficient +1
        int neg_slack = 0;  ///< number of unassigned vars with coefficient -1
        friend bool operator==(const SignalState&, const SignalState&) = default;
    };

    /// Start a search over `problem`: every variable unassigned, slacks
    /// from the problem's template, first-difference index 0.
    void reset(const CodingProblem& problem, CodeRelation relation,
               bool conflict_free_mode);

    /// Link x'_j = x''_j for every j < d (the first-difference scheme).
    void set_first_diff(std::size_t d) noexcept { first_diff_ = d; }

    /// Assign x_side[idx] = value and close the assignment.  Returns false on
    /// a contradiction (forcing clash or infeasible signal interval); the
    /// assignments made so far stay on the trail for undo_to().  Assigning
    /// an assigned variable is a no-op when the value agrees and a
    /// contradiction otherwise.
    bool assign(int side, std::size_t idx, int value);

    /// Trail position to hand to undo_to().
    [[nodiscard]] std::size_t mark() const noexcept { return trail_.size(); }
    /// Unassign every variable assigned since `mark`.
    void undo_to(std::size_t mark);

    /// The branching variable: the lowest unassigned index, x' before x'' at
    /// equal index.  False when every variable is assigned.
    bool next_unassigned(int& side, std::size_t& idx) const;

    [[nodiscard]] const BitVec& ones(int side) const { return ones_[side]; }
    [[nodiscard]] const BitVec& zeros(int side) const { return zeros_[side]; }
    [[nodiscard]] const std::vector<SignalState>& signals() const noexcept {
        return signals_;
    }
    /// Variables newly assigned since reset(), up to each contradiction.
    [[nodiscard]] std::size_t propagations() const noexcept {
        return propagations_;
    }

private:
    bool enqueue(int side, std::size_t idx, int value);
    bool link(int side, std::size_t idx, int value);
    bool force_row(BitSpan row, int side, int value);
    void force_extreme(stg::SignalId z, bool maximum);
    bool propagate(VarRef v);
    bool clash();
    [[nodiscard]] bool signal_feasible(const SignalState& s) const;

    const CodingProblem* problem_ = nullptr;
    CodeRelation relation_ = CodeRelation::Equal;
    bool conflict_free_mode_ = false;
    std::size_t first_diff_ = 0;
    std::size_t words_ = 0;            ///< words per bitset
    BitSpan::Word tail_mask_ = 0;      ///< valid bits of the last word
    BitVec ones_[2], zeros_[2];
    std::vector<SignalState> signals_;
    std::vector<VarRef> trail_;
    std::vector<VarRef> pending_;      ///< assigned, closure not yet applied
    std::size_t propagations_ = 0;
};

class CompatSolver {
public:
    explicit CompatSolver(const CodingProblem& problem, SearchOptions opts = {});

    /// Run the search.  `accept` is consulted at every candidate pair that
    /// satisfies all linear constraints.
    [[nodiscard]] SearchOutcome solve(CodeRelation relation,
                                      const PairPredicate& accept);

private:
    /// Cancellation poll period: every 1024 search nodes.
    static constexpr std::size_t kCancelPollMask = 1023;

    /// CompatKernel::assign() with the bound-time stopwatch around it when
    /// observability is enabled (branch-vs-bound attribution in CheckStats).
    bool timed_assign(int side, std::size_t idx, int value);
    bool dfs(const PairPredicate& accept, std::size_t depth);

    const CodingProblem* problem_;
    SearchOptions opts_;
    bool cancelled_ = false;

    // Pooled search state; valid only inside solve() (the lease lives on
    // solve()'s stack).
    CompatKernel* kernel_ = nullptr;
    stg::CheckStats stats_;
    std::uint64_t bound_ns_ = 0;  ///< time inside assign() while obs is on
    SearchOutcome outcome_;
};

}  // namespace stgcc::core
