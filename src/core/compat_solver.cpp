#include "core/compat_solver.hpp"

#include <bit>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace stgcc::core {

namespace {
using Word = BitSpan::Word;
constexpr std::size_t kWordBits = BitSpan::kWordBits;
}  // namespace

// --- CompatKernel ----------------------------------------------------------

void CompatKernel::reset(const CodingProblem& problem, CodeRelation relation,
                         bool conflict_free_mode) {
    problem_ = &problem;
    relation_ = relation;
    conflict_free_mode_ = conflict_free_mode;
    first_diff_ = 0;
    const std::size_t q = problem.size();
    words_ = (q + kWordBits - 1) / kWordBits;
    tail_mask_ = q % kWordBits == 0 ? ~Word{0}
                                    : (Word{1} << (q % kWordBits)) - 1;
    for (int s = 0; s < 2; ++s) {
        ones_[s].resize(q);
        ones_[s].clear();
        zeros_[s].resize(q);
        zeros_[s].clear();
    }
    // Seed the per-signal interval state from the problem's shared template
    // (tier-1 artifact: computed once, copied per instance).
    const auto& slacks = problem.initial_slacks();
    signals_.resize(slacks.size());
    for (std::size_t z = 0; z < slacks.size(); ++z)
        signals_[z] = SignalState{0, slacks[z].pos, slacks[z].neg};
    trail_.clear();
    trail_.reserve(2 * q);
    pending_.clear();
    pending_.reserve(2 * q);  // each variable is enqueued at most once
    propagations_ = 0;
}

bool CompatKernel::signal_feasible(const SignalState& s) const {
    const int min_sum = s.fixed - s.neg_slack;
    const int max_sum = s.fixed + s.pos_slack;
    switch (relation_) {
        case CodeRelation::Equal:
            return min_sum <= 0 && max_sum >= 0;
        case CodeRelation::LessEq:
            return min_sum <= 0;
        case CodeRelation::GreaterEq:
            return max_sum >= 0;
    }
    return true;
}

bool CompatKernel::clash() {
    // Closure contradiction (Theorem 1 forcing clash).
    if (obs::enabled()) obs::counter("compat.closure_prunes").add();
    return false;
}

bool CompatKernel::enqueue(int side, std::size_t idx, int value) {
    // Assign-on-enqueue: the variable is unassigned here and assigned from
    // now on, so it is never enqueued twice.
    const Word bit = Word{1} << (idx % kWordBits);
    (value ? ones_[side] : zeros_[side]).data()[idx / kWordBits] |= bit;
    const VarRef v{static_cast<std::uint8_t>(side),
                   static_cast<std::uint32_t>(idx)};
    trail_.push_back(v);
    pending_.push_back(v);
    ++propagations_;

    // Per-signal accounting and interval pruning.
    SignalState& s = signals_[problem_->signal(idx)];
    const int coef = side == 0 ? problem_->delta(idx) : -problem_->delta(idx);
    if (coef > 0)
        --s.pos_slack;
    else
        --s.neg_slack;
    if (value) s.fixed += coef;
    if (!signal_feasible(s)) {
        // An interval infeasibility proof: the relation on D_z can no
        // longer be satisfied, pruning the whole subtree.
        if (obs::enabled()) obs::counter("compat.signal_prunes").add();
        return false;
    }
    return true;
}

bool CompatKernel::link(int side, std::size_t idx, int value) {
    const Word bit = Word{1} << (idx % kWordBits);
    const std::size_t w = idx / kWordBits;
    if ((value ? ones_[side] : zeros_[side]).data()[w] & bit) return true;
    if ((value ? zeros_[side] : ones_[side]).data()[w] & bit) return clash();
    return enqueue(side, idx, value);
}

bool CompatKernel::force_row(BitSpan row, int side, int value) {
    // Force every bit of `row` on `side` to `value`, one word at a time: a
    // row bit already holding the opposite value is a clash, and only the
    // bits not yet at `value` are enqueued.
    const Word* r = row.words();
    const Word* same = (value ? ones_[side] : zeros_[side]).data();
    const Word* opposite = (value ? zeros_[side] : ones_[side]).data();
    for (std::size_t w = 0; w < words_; ++w) {
        if (r[w] == 0) continue;
        if (r[w] & opposite[w]) return clash();
        for (Word fresh = r[w] & ~same[w]; fresh != 0; fresh &= fresh - 1) {
            const std::size_t idx =
                w * kWordBits + static_cast<std::size_t>(std::countr_zero(fresh));
            if (!enqueue(side, idx, value)) return false;
        }
    }
    return true;
}

void CompatKernel::force_extreme(stg::SignalId z, bool maximum) {
    // To satisfy the relation, D_z must take its extreme value: every
    // unassigned variable of z is forced (max: coef>0 -> 1, coef<0 -> 0;
    // min: the opposite).  Each forced variable keeps that extreme and moves
    // the other bound towards it, so the interval stays feasible.
    for (const VarRef& v : problem_->vars_of_signal()[z]) {
        const Word bit = Word{1} << (v.idx % kWordBits);
        const std::size_t w = v.idx / kWordBits;
        if ((ones_[v.side].data()[w] | zeros_[v.side].data()[w]) & bit) continue;
        const int coef =
            v.side == 0 ? problem_->delta(v.idx) : -problem_->delta(v.idx);
        const bool feasible = enqueue(v.side, v.idx, maximum == (coef > 0) ? 1 : 0);
        STGCC_ASSERT(feasible);
        (void)feasible;
    }
}

bool CompatKernel::propagate(VarRef v) {
    const int side = v.side;
    const std::size_t idx = v.idx;
    const int value = ones_[side].test(idx) ? 1 : 0;

    // Unit-style forcing when the relation pins D_z to an extreme.  Checked
    // against the current interval, which only narrows after v's own
    // enqueue, so no extreme reached by then is missed.
    const stg::SignalId z = problem_->signal(idx);
    const SignalState& s = signals_[z];
    const bool at_max = s.fixed + s.pos_slack == 0;
    const bool at_min = s.fixed - s.neg_slack == 0;
    switch (relation_) {
        case CodeRelation::Equal:
            if (at_max) force_extreme(z, /*maximum=*/true);
            if (at_min) force_extreme(z, /*maximum=*/false);
            break;
        case CodeRelation::LessEq:
            if (at_min) force_extreme(z, /*maximum=*/false);
            break;
        case CodeRelation::GreaterEq:
            if (at_max) force_extreme(z, /*maximum=*/true);
            break;
    }

    // Theorem 1 closure (MCC): x(e)=1 forces predecessors to 1 and
    // conflicters to 0; x(e)=0 forces successors to 0.
    if (value) {
        if (!force_row(problem_->preds(idx), side, 1)) return false;
        if (!force_row(problem_->conflicts(idx), side, 0)) return false;
    } else if (!force_row(problem_->succs(idx), side, 0)) {
        return false;
    }

    // First-difference linking: below index d the two vectors are equal.
    if (idx < first_diff_ && !link(1 - side, idx, value)) return false;

    // Section 7 optimisation: restrict to C' subset C'' (x'_e <= x''_e).
    if (conflict_free_mode_) {
        if (side == 0 && value == 1 && !link(1, idx, 1)) return false;
        if (side == 1 && value == 0 && !link(0, idx, 0)) return false;
    }
    return true;
}

bool CompatKernel::assign(int side, std::size_t idx, int value) {
    pending_.clear();
    if (!link(side, idx, value)) return false;
    while (!pending_.empty()) {
        const VarRef v = pending_.back();
        pending_.pop_back();
        if (!propagate(v)) return false;
    }
    return true;
}

void CompatKernel::undo_to(std::size_t mark) {
    while (trail_.size() > mark) {
        const VarRef v = trail_.back();
        trail_.pop_back();
        const Word bit = Word{1} << (v.idx % kWordBits);
        const std::size_t w = v.idx / kWordBits;
        Word& one = ones_[v.side].data()[w];
        const bool value = (one & bit) != 0;
        if (value)
            one &= ~bit;
        else
            zeros_[v.side].data()[w] &= ~bit;
        SignalState& s = signals_[problem_->signal(v.idx)];
        const int coef =
            v.side == 0 ? problem_->delta(v.idx) : -problem_->delta(v.idx);
        if (coef > 0)
            ++s.pos_slack;
        else
            ++s.neg_slack;
        if (value) s.fixed -= coef;
    }
}

bool CompatKernel::next_unassigned(int& side, std::size_t& idx) const {
    const Word* o0 = ones_[0].data();
    const Word* z0 = zeros_[0].data();
    const Word* o1 = ones_[1].data();
    const Word* z1 = zeros_[1].data();
    for (std::size_t w = 0; w < words_; ++w) {
        const Word assigned0 = o0[w] | z0[w];
        Word open = ~(assigned0 & (o1[w] | z1[w]));
        if (w + 1 == words_) open &= tail_mask_;
        if (open == 0) continue;
        const int bit = std::countr_zero(open);
        idx = w * kWordBits + static_cast<std::size_t>(bit);
        side = (assigned0 >> bit) & 1u ? 1 : 0;
        return true;
    }
    return false;
}

// --- CompatSolver ----------------------------------------------------------

CompatSolver::CompatSolver(const CodingProblem& problem, SearchOptions opts)
    : problem_(&problem), opts_(opts) {}

bool CompatSolver::dfs(const PairPredicate& accept, std::size_t depth) {
    if (++stats_.search_nodes > opts_.max_nodes)
        throw ModelError("CompatSolver: node limit exceeded (" +
                         std::to_string(opts_.max_nodes) + ")");
    if (depth > stats_.max_depth) stats_.max_depth = depth;
    if (obs::enabled()) {
        static obs::Histogram& h = obs::histogram("compat.depth");
        h.observe(depth);
    }
    // Cooperative cancellation: poll every kCancelPollMask+1 nodes, then
    // unwind the whole search (returning false never records a witness).
    if (opts_.cancel.cancellable() &&
        (stats_.search_nodes & kCancelPollMask) == 0 &&
        opts_.cancel.cancelled())
        cancelled_ = true;
    if (cancelled_) return false;

    int side = 0;
    std::size_t idx = 0;
    if (!kernel_->next_unassigned(side, idx)) {
        ++stats_.leaves;
        if (accept(kernel_->ones(0), kernel_->ones(1))) {
            outcome_.found = true;
            outcome_.ca = kernel_->ones(0);
            outcome_.cb = kernel_->ones(1);
            return true;
        }
        return false;
    }

    for (int v = 0; v < 2; ++v) {
        const std::size_t mark = kernel_->mark();
        if (timed_assign(side, idx, v) && dfs(accept, depth + 1)) return true;
        kernel_->undo_to(mark);
    }
    return false;
}

bool CompatSolver::timed_assign(int side, std::size_t idx, int value) {
    // Branch-vs-bound attribution: time spent inside assign() (closure +
    // interval propagation) is the "bound" share of a solve; everything
    // else in dfs() is branching.  Only measured while observability is on
    // -- two clock reads per search node is too much for the disabled path.
    if (!obs::enabled()) return kernel_->assign(side, idx, value);
    Stopwatch w;
    const bool ok = kernel_->assign(side, idx, value);
    bound_ns_ += w.nanos();
    return ok;
}

namespace {

const char* relation_name(CodeRelation r) {
    switch (r) {
        case CodeRelation::Equal: return "equal";
        case CodeRelation::LessEq: return "less_eq";
        case CodeRelation::GreaterEq: return "greater_eq";
    }
    return "?";
}

}  // namespace

SearchOutcome CompatSolver::solve(CodeRelation relation,
                                  const PairPredicate& accept) {
    obs::Span span("compat.solve");
    span.attr("relation", relation_name(relation));
    // Per-worker pooled kernel; reset() re-initialises every field, so a
    // reused kernel behaves exactly like a fresh one.
    auto lease = sched::WorkspacePool<CompatKernel>::global().acquire();
    kernel_ = lease.get();
    const bool conflict_free_mode = opts_.use_conflict_free_optimisation &&
                                    problem_->dynamically_conflict_free();
    const std::size_t q = problem_->size();
    kernel_->reset(*problem_, relation, conflict_free_mode);
    stats_ = stg::CheckStats{};
    outcome_ = SearchOutcome{};

    // Tier-2 learned clauses: snapshot the first-difference cuts proved by
    // sibling instances whose feasible set contains ours.  Skipped subtrees
    // are leaf-free, so the enumeration order of actual candidate pairs --
    // and with it verdict and witness -- is exactly that of an uncached run.
    const int relation_key = static_cast<int>(relation);
    BitVec known_cuts;
    const bool sharing = opts_.clauses && opts_.clauses->num_vars() == q;
    if (sharing)
        known_cuts = opts_.clauses->cuts_for(relation_key, conflict_free_mode);
    std::size_t cuts_replayed = 0, cuts_recorded = 0;
    BitVec replayed_mask;
    if (sharing) replayed_mask.resize(q);
    bound_ns_ = 0;

    // Outer loop over the first index d where the two vectors differ.
    cancelled_ = false;
    for (std::size_t d = 0; d < q && !outcome_.found && !cancelled_; ++d) {
        if (!known_cuts.empty() && known_cuts.test(d)) {
            ++cuts_replayed;
            replayed_mask.set(d);
            continue;
        }
        kernel_->set_first_diff(d);
        const std::size_t leaves_before = stats_.leaves;
        const std::size_t nodes_before = stats_.search_nodes;
        const std::size_t mark = kernel_->mark();
        if (timed_assign(0, d, 0) && timed_assign(1, d, 1))
            (void)dfs(accept, 0);
        kernel_->undo_to(mark);
        // The subtree was exhausted (not found, not cancelled) without a
        // single leaf: no pair satisfies the linear system with first
        // difference d.  Record the cut for siblings, priced at the search
        // nodes the proof cost -- replaying siblings are credited exactly
        // that many pruned nodes (efficacy accounting, docs/CACHING.md).
        if (sharing && !outcome_.found && !cancelled_ &&
            stats_.leaves == leaves_before) {
            opts_.clauses->record_cut(relation_key, conflict_free_mode, d,
                                      stats_.search_nodes - nodes_before);
            ++cuts_recorded;
        }
    }
    if (sharing && cuts_replayed > 0)
        opts_.clauses->note_replayed(relation_key, conflict_free_mode,
                                     replayed_mask);
    outcome_.cancelled = cancelled_;
    stats_.propagations = kernel_->propagations();
    outcome_.stats = stats_;
    outcome_.stats.seconds = span.seconds();
    outcome_.stats.bound_seconds = static_cast<double>(bound_ns_) / 1e9;
    kernel_ = nullptr;

    obs::counter("compat.solves").add();
    obs::counter("compat.nodes").add(stats_.search_nodes);
    obs::counter("compat.leaves").add(stats_.leaves);
    if (cuts_replayed > 0) obs::counter("cache.clauses.replayed").add(cuts_replayed);
    span.attr("vars", 2 * q);
    span.attr("conflict_free_mode", conflict_free_mode);
    span.attr("nodes", stats_.search_nodes);
    span.attr("leaves", stats_.leaves);
    span.attr("propagations", stats_.propagations);
    span.attr("max_depth", stats_.max_depth);
    span.attr("bound_ns", bound_ns_);
    span.attr("found", outcome_.found);
    if (cuts_replayed > 0) span.attr("cuts_replayed", cuts_replayed);
    if (cuts_recorded > 0) span.attr("cuts_recorded", cuts_recorded);
    if (cancelled_) span.attr("cancelled", true);
    return outcome_;
}

}  // namespace stgcc::core
