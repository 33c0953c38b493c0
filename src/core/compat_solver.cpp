#include "core/compat_solver.hpp"

#include <algorithm>
#include <bit>
#include <memory>
#include <utility>

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

void CompatKernel::force_open(BitSpan row, int side, int value) {
    // Enqueue every still unassigned bit of `row` on `side` with `value`,
    // one word at a time.  The caller guarantees the interval stays
    // feasible, so no enqueue can fail.
    const Word* r = row.words();
    const Word* o = ones_[side].data();
    const Word* z = zeros_[side].data();
    for (std::size_t w = 0; w < words_; ++w) {
        for (Word open = r[w] & ~(o[w] | z[w]); open != 0; open &= open - 1) {
            const std::size_t idx =
                w * kWordBits + static_cast<std::size_t>(std::countr_zero(open));
            const bool feasible = enqueue(side, idx, value);
            STGCC_ASSERT(feasible);
            (void)feasible;
        }
    }
}

void CompatKernel::force_extreme(stg::SignalId z, bool maximum) {
    // To satisfy the relation, D_z must take its extreme value: every
    // unassigned variable of z is forced (max: coef>0 -> 1, coef<0 -> 0;
    // min: the opposite).  Each forced variable keeps that extreme and moves
    // the other bound towards it, so the interval stays feasible.  Side 0
    // has coef = delta, side 1 coef = -delta, so at the maximum x' takes
    // the rises and x'' the falls of z.
    const int up = maximum ? 1 : 0;
    force_open(problem_->rises(z), 0, up);
    force_open(problem_->falls(z), 0, 1 - up);
    force_open(problem_->rises(z), 1, 1 - up);
    force_open(problem_->falls(z), 1, up);
}

bool CompatKernel::propagate(VarRef v) {
    const int side = v.side;
    const std::size_t idx = v.idx;
    const int value = ones_[side].test(idx) ? 1 : 0;

    // Unit-style forcing when the relation pins D_z to an extreme.  Checked
    // against the current interval, which only narrows after v's own
    // enqueue, so no extreme reached by then is missed.  A signal with no
    // open variable has nothing left to force.  With open variables the
    // interval is not a point, so at most one extreme is forced.
    const stg::SignalId z = problem_->signal(idx);
    const SignalState& s = signals_[z];
    if (s.pos_slack + s.neg_slack > 0) {
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

/// One find_first lane's state, reused for every subproblem the lane draws.
/// Line-aligned: the node counters are written at every search node.
struct alignas(64) CompatSolver::Lane {
    CompatKernel kernel;
    LanePredicate predicate;
    stg::CheckStats stats;        ///< this lane's nodes, leaves, max_depth
    std::uint64_t bound_ns = 0;   ///< time inside assign() while obs is on
    std::size_t synced = 0;       ///< own nodes as of the last poll()
    std::size_t others = 0;       ///< other lanes' nodes as of the last poll()
    const sched::CancellationToken* stop = nullptr;  ///< current d's token
    bool cancellable = false;     ///< either token can fire
    bool stopped = false;         ///< current d cut short by a token
    BitVec replayed;              ///< cut-store cuts this lane skipped
};

CompatSolver::CompatSolver(const CodingProblem& problem, SearchOptions opts)
    : problem_(&problem), opts_(opts) {}

void CompatSolver::poll(Lane& lane) {
    // max_nodes is a per-solve total: publish this lane's nodes and learn
    // the other lanes' (exact on a single lane, 1024-node granular across
    // several).
    const std::size_t own = lane.stats.search_nodes;
    const std::size_t delta = own - lane.synced;
    lane.others = nodes_.fetch_add(delta, std::memory_order_relaxed) + delta - own;
    lane.synced = own;
    // Cooperative cancellation: the caller's token, or find_first's token
    // for this d (a lower d already hit).  Only the caller's marks the
    // outcome cancelled.
    if (lane.cancellable &&
        (opts_.cancel.cancelled() || lane.stop->cancelled())) {
        lane.stopped = true;
        if (opts_.cancel.cancelled())
            cancelled_.store(true, std::memory_order_relaxed);
    }
}

bool CompatSolver::dfs(Lane& lane, std::size_t depth) {
    stg::CheckStats& stats = lane.stats;
    if (++stats.search_nodes + lane.others > opts_.max_nodes)
        throw ModelError("CompatSolver: node limit exceeded (" +
                         std::to_string(opts_.max_nodes) + ")");
    if (depth > stats.max_depth) stats.max_depth = depth;
    if (obs::enabled()) {
        static obs::Histogram& h = obs::histogram("compat.depth");
        h.observe(depth);
    }
    // Poll every kPollMask+1 nodes; a stopped lane unwinds its subproblem
    // (returning false never records a witness).
    if ((stats.search_nodes & kPollMask) == 0) poll(lane);
    if (lane.stopped) return false;

    CompatKernel& kernel = lane.kernel;
    int side = 0;
    std::size_t idx = 0;
    if (!kernel.next_unassigned(side, idx)) {
        ++stats.leaves;
        return lane.predicate.accept(kernel.ones(0), kernel.ones(1));
    }

    for (int v = 0; v < 2; ++v) {
        const std::size_t mark = kernel.mark();
        if (timed_assign(lane, side, idx, v) && dfs(lane, depth + 1)) return true;
        kernel.undo_to(mark);
    }
    return false;
}

bool CompatSolver::timed_assign(Lane& lane, int side, std::size_t idx,
                                int value) {
    // Branch-vs-bound attribution: time spent inside assign() (closure +
    // interval propagation) is the "bound" share of a solve; everything
    // else in dfs() is branching.  Only measured while observability is on
    // -- two clock reads per search node is too much for the disabled path.
    if (!obs::enabled()) return lane.kernel.assign(side, idx, value);
    Stopwatch w;
    const bool ok = lane.kernel.assign(side, idx, value);
    lane.bound_ns += w.nanos();
    return ok;
}

bool CompatSolver::search(Lane& lane, std::size_t d,
                          const sched::CancellationToken& stop) {
    lane.kernel.set_first_diff(d);
    lane.stop = &stop;
    lane.cancellable = opts_.cancel.cancellable() || stop.cancellable();
    lane.stopped = false;
    return timed_assign(lane, 0, d, 0) && timed_assign(lane, 1, d, 1) &&
           dfs(lane, 0);
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

/// Leaves the kernel as reset() left it, also when the DFS throws.
struct UndoAll {
    CompatKernel& kernel;
    ~UndoAll() { kernel.undo_to(0); }
};

}  // namespace

SearchOutcome CompatSolver::solve(CodeRelation relation,
                                  const PairPredicate& accept) {
    sched::Executor serial(1);
    return solve(relation, serial, [&] { return LanePredicate{accept, {}}; });
}

SearchOutcome CompatSolver::solve(CodeRelation relation, sched::Executor& ex,
                                  const LanePredicateFactory& make) {
    obs::Span span("compat.solve");
    span.attr("relation", relation_name(relation));
    const bool conflict_free_mode = opts_.use_conflict_free_optimisation &&
                                    problem_->dynamically_conflict_free();
    const std::size_t q = problem_->size();

    // Tier-2 learned clauses: snapshot the first-difference cuts proved by
    // sibling instances whose feasible set contains ours.  Skipped subtrees
    // are leaf-free, so the enumeration order of actual candidate pairs --
    // and with it verdict and witness -- is exactly that of an uncached run.
    const int relation_key = static_cast<int>(relation);
    const bool sharing = opts_.clauses && opts_.clauses->num_vars() == q;
    const BitVec known_cuts =
        sharing ? opts_.clauses->cuts_for(relation_key, conflict_free_mode)
                : BitVec{};
    std::atomic<std::size_t> cuts_recorded{0};
    nodes_.store(0, std::memory_order_relaxed);
    cancelled_.store(false, std::memory_order_relaxed);

    // Lane state is built on the lane's first subproblem, by the lane.
    std::vector<std::unique_ptr<Lane>> lanes(sched::find_first_lanes(ex, q));
    using Pair = std::pair<BitVec, BitVec>;
    const auto hit = sched::find_first<Pair>(
        ex, q,
        [&](std::size_t d, std::size_t l,
            const sched::CancellationToken& stop) -> std::optional<Pair> {
            if (opts_.cancel.cancelled()) {
                cancelled_.store(true, std::memory_order_relaxed);
                return std::nullopt;
            }
            if (!lanes[l]) {
                lanes[l] = std::make_unique<Lane>();
                lanes[l]->kernel.reset(*problem_, relation, conflict_free_mode);
                lanes[l]->predicate = make();
                if (sharing) lanes[l]->replayed.resize(q);
            }
            Lane& lane = *lanes[l];
            if (sharing && known_cuts.test(d)) {
                lane.replayed.set(d);
                return std::nullopt;
            }
            if (lane.predicate.start && lane.predicate.start(d)) return Pair{};
            const std::size_t leaves_before = lane.stats.leaves;
            const std::size_t nodes_before = lane.stats.search_nodes;
            const UndoAll undo{lane.kernel};
            if (search(lane, d, stop))
                return Pair{lane.kernel.ones(0), lane.kernel.ones(1)};
            // The subtree was exhausted (not found, not cut short) without a
            // single leaf: no pair satisfies the linear system with first
            // difference d.  Record the cut for siblings, priced at the
            // search nodes the proof cost -- replaying siblings are credited
            // exactly that many pruned nodes (efficacy accounting,
            // docs/CACHING.md).
            if (sharing && !lane.stopped && lane.stats.leaves == leaves_before) {
                opts_.clauses->record_cut(relation_key, conflict_free_mode, d,
                                          lane.stats.search_nodes - nodes_before);
                cuts_recorded.fetch_add(1, std::memory_order_relaxed);
            }
            return std::nullopt;
        });

    SearchOutcome outcome;
    if (hit) {
        outcome.found = true;
        outcome.ca = hit->value.first;
        outcome.cb = hit->value.second;
    }
    outcome.cancelled = cancelled_.load(std::memory_order_relaxed);
    stg::CheckStats& stats = outcome.stats;
    std::uint64_t bound_ns = 0;
    BitVec replayed_mask;
    if (sharing) replayed_mask.resize(q);
    for (const auto& lane : lanes) {
        if (!lane) continue;
        stats.search_nodes += lane->stats.search_nodes;
        stats.leaves += lane->stats.leaves;
        stats.propagations += lane->kernel.propagations();
        stats.max_depth = std::max(stats.max_depth, lane->stats.max_depth);
        bound_ns += lane->bound_ns;
        if (sharing) replayed_mask |= lane->replayed;
    }
    const std::size_t cuts_replayed = sharing ? replayed_mask.count() : 0;
    if (cuts_replayed > 0)
        opts_.clauses->note_replayed(relation_key, conflict_free_mode,
                                     replayed_mask);
    stats.seconds = span.seconds();
    stats.bound_seconds = static_cast<double>(bound_ns) / 1e9;

    obs::counter("compat.solves").add();
    obs::counter("compat.nodes").add(stats.search_nodes);
    obs::counter("compat.leaves").add(stats.leaves);
    if (cuts_replayed > 0) obs::counter("cache.clauses.replayed").add(cuts_replayed);
    span.attr("vars", 2 * q);
    span.attr("lanes", lanes.size());
    span.attr("conflict_free_mode", conflict_free_mode);
    span.attr("nodes", stats.search_nodes);
    span.attr("leaves", stats.leaves);
    span.attr("propagations", stats.propagations);
    span.attr("max_depth", stats.max_depth);
    span.attr("bound_ns", bound_ns);
    span.attr("found", outcome.found);
    const std::size_t recorded = cuts_recorded.load(std::memory_order_relaxed);
    if (cuts_replayed > 0) span.attr("cuts_replayed", cuts_replayed);
    if (recorded > 0) span.attr("cuts_recorded", recorded);
    if (outcome.cancelled) span.attr("cancelled", true);
    return outcome;
}

}  // namespace stgcc::core
