#include "core/checkers.hpp"

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "unfolding/configuration.hpp"

namespace stgcc::core {

UnfoldingChecker::UnfoldingChecker(const stg::Stg& stg, unf::UnfoldOptions opts)
    : UnfoldingChecker(
          std::make_shared<const cache::PrefixArtifacts>(stg, opts)) {}

UnfoldingChecker::UnfoldingChecker(const stg::Stg& stg, unf::Prefix prefix)
    : UnfoldingChecker(std::make_shared<const cache::PrefixArtifacts>(
          stg, std::move(prefix))) {}

UnfoldingChecker::UnfoldingChecker(cache::PrefixArtifactsPtr artifacts)
    : artifacts_(std::move(artifacts)),
      stg_(&artifacts_->stg()),
      problem_(&artifacts_->problem()) {}  // throws when inconsistent

SearchOptions UnfoldingChecker::with_clause_store(SearchOptions opts) const {
    if (opts.use_learned_clauses && opts.clauses == nullptr)
        opts.clauses = &artifacts_->clauses();
    return opts;
}

stg::ConflictWitness UnfoldingChecker::make_witness(const BitVec& ca,
                                                    const BitVec& cb) const {
    obs::Span span("witness");
    stg::ConflictWitness w;
    const BitVec ea = problem_->to_event_set(ca);
    const BitVec eb = problem_->to_event_set(cb);
    w.code = problem_->code_of(ca);
    w.m1 = artifacts_->marking_of_dense(ca);
    w.m2 = artifacts_->marking_of_dense(cb);
    w.out1 = stg_->out_signals(w.m1);
    w.out2 = stg_->out_signals(w.m2);
    w.trace1 = unf::firing_sequence_of(prefix(), ea);
    w.trace2 = unf::firing_sequence_of(prefix(), eb);
    return w;
}

stg::CodingCheckResult UnfoldingChecker::check_usc(SearchOptions opts) const {
    sched::Executor serial(1);
    return check_usc(opts, serial);
}

stg::CodingCheckResult UnfoldingChecker::check_usc(SearchOptions opts,
                                                   sched::Executor& ex) const {
    obs::Span span("solve.usc");
    const SearchOptions local = with_clause_store(opts);
    CompatSolver solver(*problem_, local);
    auto outcome = solver.solve(CodeRelation::Equal, ex, [this] {
        // USC separating predicate: the markings must differ.
        return LanePredicate{
            [leaf = LeafPredicates(*artifacts_)](const BitVec& ca,
                                                 const BitVec& cb) mutable {
                leaf.load(ca, cb);
                return leaf.markings_differ();
            },
            {}};
    });
    stg::CodingCheckResult result;
    result.stats = outcome.stats;
    if (outcome.found) {
        result.holds = false;
        result.witness = make_witness(outcome.ca, outcome.cb);
    }
    if (!outcome.cancelled) {
        std::lock_guard<std::mutex> lock(usc_mu_);
        if (!usc_) usc_ = UscResult{result, opts.use_conflict_free_optimisation};
    }
    return result;
}

stg::CodingCheckResult UnfoldingChecker::check_csc(SearchOptions opts) const {
    sched::Executor serial(1);
    return check_csc(opts, serial);
}

stg::CodingCheckResult UnfoldingChecker::check_csc(SearchOptions opts,
                                                   sched::Executor& ex) const {
    obs::Span span("solve.csc");
    const std::vector<stg::SignalId> outputs = stg_->circuit_driven_signals();
    if (outputs.empty()) return {};  // no circuit-driven signal: holds
    std::optional<UscResult> usc;
    {
        std::lock_guard<std::mutex> lock(usc_mu_);
        usc = usc_;
    }
    if (usc && usc->result.holds) {
        obs::counter("cache.certificates.csc_from_usc").add();
        span.attr("certificate", "usc_holds");
        return {};
    }
    // The enumeration order, and with it the first pair, depends on the
    // conflict-free optimisation, so the witness carries over only from a
    // USC solve that ran with the same setting.
    if (usc && usc->conflict_free_optimisation ==
                   opts.use_conflict_free_optimisation &&
        usc->result.witness->is_csc()) {
        obs::counter("cache.certificates.csc_from_usc").add();
        span.attr("certificate", "usc_witness");
        stg::CodingCheckResult result;
        result.holds = false;
        result.witness = usc->result.witness;
        return result;
    }
    CompatSolver solver(*problem_, with_clause_store(opts));
    auto outcome = solver.solve(CodeRelation::Equal, ex, [&] {
        return LanePredicate{
            [&outputs, leaf = LeafPredicates(*artifacts_)](
                const BitVec& ca, const BitVec& cb) mutable {
                leaf.load(ca, cb);
                return leaf.out_sets_differ(outputs);
            },
            {}};
    });
    stg::CodingCheckResult result;
    result.stats = outcome.stats;
    if (outcome.found) {
        result.holds = false;
        result.witness = make_witness(outcome.ca, outcome.cb);
    }
    span.attr("holds", result.holds);
    return result;
}

UnfoldingChecker::NormalcyPass UnfoldingChecker::run_normalcy_pass(
    CodeRelation rel, SearchOptions opts,
    const std::vector<stg::SignalId>& outputs, sched::Executor& ex) const {
    obs::Span span("solve.normalcy.pass");
    span.attr("relation", rel == CodeRelation::LessEq ? "less_eq" : "greater_eq");
    NormalcyPass pass;
    pass.per_signal.resize(outputs.size());
    for (std::size_t i = 0; i < outputs.size(); ++i)
        pass.per_signal[i].signal = outputs[i];

    auto make_nw = [&](stg::SignalId z, const BitVec& lo_cfg,
                       const BitVec& hi_cfg) {
        stg::NormalcyWitness w;
        w.signal = z;
        const BitVec el = problem_->to_event_set(lo_cfg);
        const BitVec eh = problem_->to_event_set(hi_cfg);
        w.m1 = artifacts_->marking_of_dense(lo_cfg);
        w.m2 = artifacts_->marking_of_dense(hi_cfg);
        w.code1 = problem_->code_of(lo_cfg);
        w.code2 = problem_->code_of(hi_cfg);
        w.nxt1 = stg_->nxt(w.m1, w.code1, z);
        w.nxt2 = stg_->nxt(w.m2, w.code2, z);
        w.trace1 = unf::firing_sequence_of(prefix(), el);
        w.trace2 = unf::firing_sequence_of(prefix(), eh);
        return w;
    };

    // The enumeration covers each unordered pair once, so a violating
    // ordered pair is found either with Code(x') <= Code(x'') (lo = x')
    // or with Code(x') >= Code(x'') (lo = x'').  Each flag -- (signal i,
    // p) at 2i, (signal i, n) at 2i+1 -- keeps the *first* violating pair in
    // enumeration order (d ascending, DFS order within d), which is
    // deterministic although the subproblems run concurrently: first_d is
    // the subproblem of the flag's violation (q while it has none), a leaf
    // of d tests only the flags with first_d > d, and a violation replaces
    // the stored one only from a lower d.  Subproblem d is settled once
    // every first_d <= d: nothing it or a higher d finds can matter.
    const std::size_t q = problem_->size();
    const std::size_t flags = 2 * outputs.size();
    std::vector<std::atomic<std::size_t>> first_d(flags);
    for (auto& f : first_d) f.store(q, std::memory_order_relaxed);
    std::vector<std::pair<BitVec, BitVec>> first_pair(flags);  // (lo, hi)
    std::mutex mu;
    const int lo = rel == CodeRelation::LessEq ? 0 : 1;
    const auto settled = [&](std::size_t d) {
        for (const auto& f : first_d)
            if (f.load(std::memory_order_relaxed) > d) return false;
        return true;
    };
    const auto record = [&](std::size_t flag, std::size_t d, const BitVec& ca,
                            const BitVec& cb) {
        std::lock_guard<std::mutex> lock(mu);
        if (d >= first_d[flag].load(std::memory_order_relaxed)) return;
        first_d[flag].store(d, std::memory_order_relaxed);
        first_pair[flag] = lo == 0 ? std::pair{ca, cb} : std::pair{cb, ca};
    };

    // Per-lane scratch: the leaf buffers and the lane's current subproblem.
    struct Lane {
        LeafPredicates leaf;
        std::size_t d = 0;
    };
    CompatSolver solver(*problem_, with_clause_store(opts));
    auto outcome = solver.solve(rel, ex, [&] {
        auto lane = std::make_shared<Lane>(Lane{LeafPredicates(*artifacts_)});
        auto accept = [&, lane](const BitVec& ca, const BitVec& cb) {
            const std::size_t d = lane->d;
            lane->leaf.load_with_codes(ca, cb);
            for (std::size_t i = 0; i < outputs.size(); ++i) {
                const bool p_open =
                    first_d[2 * i].load(std::memory_order_relaxed) > d;
                const bool n_open =
                    first_d[2 * i + 1].load(std::memory_order_relaxed) > d;
                if (!p_open && !n_open) continue;
                const bool nxt_lo = lane->leaf.nxt(lo, outputs[i]);
                const bool nxt_hi = lane->leaf.nxt(1 - lo, outputs[i]);
                if (p_open && nxt_lo && !nxt_hi) record(2 * i, d, ca, cb);
                if (n_open && !nxt_lo && nxt_hi) record(2 * i + 1, d, ca, cb);
            }
            return settled(d);
        };
        auto start = [&, lane](std::size_t d) {
            lane->d = d;
            return settled(d);
        };
        return LanePredicate{accept, start};
    });

    pass.all_resolved = true;
    for (std::size_t i = 0; i < outputs.size(); ++i) {
        stg::SignalNormalcy& sn = pass.per_signal[i];
        if (first_d[2 * i].load(std::memory_order_relaxed) < q) {
            sn.p_normal = false;
            sn.p_violation = make_nw(outputs[i], first_pair[2 * i].first,
                                     first_pair[2 * i].second);
        }
        if (first_d[2 * i + 1].load(std::memory_order_relaxed) < q) {
            sn.n_normal = false;
            sn.n_violation = make_nw(outputs[i], first_pair[2 * i + 1].first,
                                     first_pair[2 * i + 1].second);
        }
        if (sn.p_normal || sn.n_normal) pass.all_resolved = false;
    }
    pass.stats = outcome.stats;
    return pass;
}

stg::NormalcyResult UnfoldingChecker::check_normalcy(SearchOptions opts) const {
    sched::Executor serial(1);
    return check_normalcy(opts, serial);
}

stg::NormalcyResult UnfoldingChecker::check_normalcy(SearchOptions opts,
                                                     sched::Executor& ex) const {
    obs::Span span("solve.normalcy");
    const std::vector<stg::SignalId> outputs = stg_->circuit_driven_signals();

    // One work-preserving plan at every jobs value: the LessEq pass first,
    // the GreaterEq pass only for flags it left open.  Running both
    // orientations speculatively (as the parallel path once did) doubles
    // the exhaustive-search work whenever LessEq resolves everything
    // (docs/PARALLELISM.md, "scaling study"); each pass spreads its own
    // subproblems over `ex` instead.
    NormalcyPass less, greater;
    bool use_greater = false;
    less = run_normalcy_pass(CodeRelation::LessEq, opts, outputs, ex);
    if (!less.all_resolved) {
        greater = run_normalcy_pass(CodeRelation::GreaterEq, opts, outputs, ex);
        use_greater = true;
    }

    // Merge in orientation order, LessEq first: a flag falsified by the
    // LessEq pass keeps that pass's witness; only flags it left open take
    // the GreaterEq verdict.  This makes the result independent of which
    // pass finished first.
    stg::NormalcyResult result;
    result.per_signal.resize(outputs.size());
    for (std::size_t i = 0; i < outputs.size(); ++i) {
        stg::SignalNormalcy& sn = result.per_signal[i];
        sn.signal = outputs[i];
        const stg::SignalNormalcy& l = less.per_signal[i];
        if (!l.p_normal) {
            sn.p_normal = false;
            sn.p_violation = l.p_violation;
        } else if (use_greater && !greater.per_signal[i].p_normal) {
            sn.p_normal = false;
            sn.p_violation = greater.per_signal[i].p_violation;
        }
        if (!l.n_normal) {
            sn.n_normal = false;
            sn.n_violation = l.n_violation;
        } else if (use_greater && !greater.per_signal[i].n_normal) {
            sn.n_normal = false;
            sn.n_violation = greater.per_signal[i].n_violation;
        }
    }
    result.stats = less.stats;
    if (use_greater) {
        result.stats.search_nodes += greater.stats.search_nodes;
        result.stats.leaves += greater.stats.leaves;
        result.stats.propagations += greater.stats.propagations;
        if (greater.stats.max_depth > result.stats.max_depth)
            result.stats.max_depth = greater.stats.max_depth;
        result.stats.seconds += greater.stats.seconds;
        result.stats.bound_seconds += greater.stats.bound_seconds;
    }
    result.normal = true;
    for (const auto& sn : result.per_signal)
        if (!sn.normal()) result.normal = false;
    return result;
}

}  // namespace stgcc::core
