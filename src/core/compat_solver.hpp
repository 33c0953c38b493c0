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
// subproblem d fixes the first dense index where the vectors differ
// (x'_d = 0 < x''_d = 1, with x'_j = x''_j linked for j < d), which both
// removes the C' = C'' diagonal and halves the symmetric search space --
// this realises the paper's "M' <lex M''" separating constraint at the
// level of Parikh vectors.  Below d the search branches on the lowest
// unassigned index, x' before x'', found by a word scan of
// ~((ones[0] | zeros[0]) & (ones[1] | zeros[1])).
//
// The q subproblems are independent, so solve() hands them to
// sched::find_first on the caller's executor: indices are dispensed in
// ascending order and the lowest-d hit wins.  Within one d the search is
// the serial DFS, so the winning pair is the first pair of the serial
// enumeration (d ascending, DFS order within d) at any --jobs, and
// Executor(1) runs the same decomposition one d after another.  Each
// find_first lane owns one CompatKernel and one leaf predicate and reuses
// them for every d it draws (set_first_diff(d), assign, DFS, undo_to(0)),
// so a subproblem allocates nothing (docs/PARALLELISM.md).
//
// When the STG is dynamically conflict-free, the section 7 optimisation
// restricts the search to set-ordered pairs C' subset C'' via the extra
// propagation x'_e <= x''_e (Proposition 1).
#pragma once

#include <atomic>
#include <functional>
#include <optional>

#include "cache/clause_store.hpp"
#include "core/coding_problem.hpp"
#include "sched/cancellation.hpp"
#include "sched/parallel.hpp"
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
    /// Abort (throw ModelError) after this many search nodes, counted over
    /// all lanes of one solve.
    std::size_t max_nodes = 500'000'000;
    /// Cooperative cancellation, polled by every lane before each
    /// subproblem and every 1024 search nodes; a cancelled solve stops
    /// early with cancelled == true.  Empty token (the default): never
    /// cancelled.
    sched::CancellationToken cancel;
    /// Learned-clause store shared with sibling instances (tier 2,
    /// src/cache/): proved leaf-free first-difference subtrees are skipped
    /// on replay and newly proved ones recorded.  Never changes verdicts or
    /// witnesses (docs/CACHING.md); nullptr = no sharing.
    cache::ClauseStore* clauses = nullptr;
    /// Checker-level switch for the shared-store wiring (`--no-cache`):
    /// when false, UnfoldingChecker leaves `clauses` unset.
    bool use_learned_clauses = true;
};

/// Leaf predicate: given the two dense configurations, decide whether they
/// constitute the sought conflict.  Returning true stops the search;
/// returning false continues enumeration.  The arguments are the search's
/// own assignment bitsets, valid only for the duration of the call.
using PairPredicate = std::function<bool(const BitVec& ca, const BitVec& cb)>;

/// What one find_first lane of a solve evaluates.  A lane runs one
/// subproblem at a time, so the predicate may keep unsynchronised scratch.
struct LanePredicate {
    /// The leaf test; true is a hit that ends the lane's current subproblem.
    PairPredicate accept;
    /// Optional: called as the lane starts subproblem d (a lane draws
    /// ascending d's).  Returning true settles d as a hit without searching
    /// it; such a hit carries no pair.
    std::function<bool(std::size_t d)> start;
};
/// Builds one lane's predicate.  Called once per lane, possibly from
/// several threads at once.
using LanePredicateFactory = std::function<LanePredicate()>;

struct SearchOutcome {
    bool found = false;
    bool cancelled = false;  ///< search stopped by SearchOptions::cancel
    BitVec ca, cb;           ///< dense configurations when found
    stg::CheckStats stats;
};

/// The assignment state of one pair search and its Theorem 1 closure (see
/// the file comment).  Each lane of a CompatSolver solve reset()s one and
/// reuses it for every subproblem it draws; the kernel property test and
/// bench_kernels drive it directly.
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

    /// Run the search: subproblems d = 0..q-1 on `ex` (see the file
    /// comment), each lane evaluating its own predicate from `make`.  The
    /// outcome's pair is the lowest-d hit.  Stats are summed over lanes
    /// (max_depth: the maximum; seconds: the solve's wall time), and
    /// SearchOptions::max_nodes bounds the total across lanes.  `cancelled`
    /// means SearchOptions::cancel fired, never that find_first dropped a
    /// subproblem above the winner.
    [[nodiscard]] SearchOutcome solve(CodeRelation relation,
                                      sched::Executor& ex,
                                      const LanePredicateFactory& make);

    /// The same search on Executor(1), one lane evaluating `accept` at every
    /// candidate pair that satisfies all linear constraints.
    [[nodiscard]] SearchOutcome solve(CodeRelation relation,
                                      const PairPredicate& accept);

private:
    /// Search-node period of the cancellation poll and of the lanes'
    /// node-count sync: every 1024 nodes.
    static constexpr std::size_t kPollMask = 1023;

    struct Lane;
    /// One subproblem on `lane`: true on a hit (the pair is still on the
    /// lane's kernel).
    bool search(Lane& lane, std::size_t d, const sched::CancellationToken& stop);
    bool dfs(Lane& lane, std::size_t depth);
    /// Publish the lane's node count and poll both cancellation tokens.
    void poll(Lane& lane);
    /// CompatKernel::assign() with the bound-time stopwatch around it when
    /// observability is enabled (branch-vs-bound attribution in CheckStats).
    static bool timed_assign(Lane& lane, int side, std::size_t idx, int value);

    const CodingProblem* problem_;
    SearchOptions opts_;
    // Per-solve state shared by the lanes.
    std::atomic<std::size_t> nodes_{0};  ///< nodes published by poll()
    std::atomic<bool> cancelled_{false};  ///< SearchOptions::cancel observed
};

}  // namespace stgcc::core
