#include "ilp/bb_solver.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace stgcc::ilp {

namespace {
// Cached registry references (lookup takes a mutex; updates are lock-free).
struct BbMetrics {
    obs::Counter& solves = obs::counter("bb.solves");
    obs::Counter& nodes = obs::counter("bb.nodes");
    obs::Counter& leaves = obs::counter("bb.leaves");
    obs::Counter& propagations = obs::counter("bb.propagations");
};
BbMetrics& bb_metrics() {
    static BbMetrics m;
    return m;
}
}  // namespace

std::optional<std::vector<int>> BBSolver::solve(const LeafCallback& leaf) {
    obs::Span span("bb.solve");
    // Every workspace field is re-initialised here.
    const std::size_t n = model_->num_vars();
    ws_.lo.resize(n);
    ws_.hi.resize(n);
    for (VarId v = 0; v < n; ++v) {
        ws_.lo[v] = model_->lower_bound(v);
        ws_.hi[v] = model_->upper_bound(v);
    }
    ws_.trail.clear();
    stats_ = SolveStats{};

    // Initial propagation over all constraints.
    ws_.dirty.clear();
    ws_.in_dirty.assign(model_->num_constraints(), 1);
    for (std::uint32_t i = 0; i < model_->num_constraints(); ++i) ws_.dirty.push_back(i);
    if (!propagate(0)) return std::nullopt;

    bool accepted = false;
    std::vector<int> out;
    dfs(leaf, accepted, out);

    BbMetrics& bb = bb_metrics();
    bb.solves.add();
    bb.nodes.add(stats_.nodes);
    bb.leaves.add(stats_.leaves);
    bb.propagations.add(stats_.propagations);
    span.attr("vars", n);
    span.attr("constraints", model_->num_constraints());
    span.attr("nodes", stats_.nodes);
    span.attr("leaves", stats_.leaves);
    span.attr("propagations", stats_.propagations);
    span.attr("accepted", accepted);

    if (accepted) return out;
    return std::nullopt;
}

bool BBSolver::tighten(VarId v, int lo, int hi) {
    const int nlo = std::max(ws_.lo[v], lo);
    const int nhi = std::min(ws_.hi[v], hi);
    if (nlo > nhi) return false;
    if (nlo == ws_.lo[v] && nhi == ws_.hi[v]) return true;
    ws_.trail.push_back(TrailEntry{v, ws_.lo[v], ws_.hi[v]});
    ws_.lo[v] = nlo;
    ws_.hi[v] = nhi;
    ++stats_.propagations;
    for (std::uint32_t ci : model_->constraints_of(v)) {
        if (!ws_.in_dirty[ci]) {
            ws_.in_dirty[ci] = 1;
            ws_.dirty.push_back(ci);
        }
    }
    return true;
}

bool BBSolver::propagate_constraint(const Constraint& c) {
    // Interval of the LHS under current bounds.
    long long min_sum = 0, max_sum = 0;
    for (const Term& t : c.terms) {
        if (t.coef > 0) {
            min_sum += static_cast<long long>(t.coef) * ws_.lo[t.var];
            max_sum += static_cast<long long>(t.coef) * ws_.hi[t.var];
        } else {
            min_sum += static_cast<long long>(t.coef) * ws_.hi[t.var];
            max_sum += static_cast<long long>(t.coef) * ws_.lo[t.var];
        }
    }
    if (c.lo != kNoBound && max_sum < c.lo) return false;
    if (c.hi != kNoBound && min_sum > c.hi) return false;

    // Bounds tightening per term.
    auto div_floor = [](long long p, long long q) {
        const long long d = p / q, r = p % q;
        return (r != 0 && ((r < 0) != (q < 0))) ? d - 1 : d;
    };
    auto div_ceil = [&](long long p, long long q) { return -div_floor(-p, q); };
    constexpr long long kInf = std::numeric_limits<long long>::max() / 4;

    for (const Term& t : c.terms) {
        const long long cmin = t.coef > 0
                                   ? static_cast<long long>(t.coef) * ws_.lo[t.var]
                                   : static_cast<long long>(t.coef) * ws_.hi[t.var];
        const long long cmax = t.coef > 0
                                   ? static_cast<long long>(t.coef) * ws_.hi[t.var]
                                   : static_cast<long long>(t.coef) * ws_.lo[t.var];
        const long long rest_min = min_sum - cmin;
        const long long rest_max = max_sum - cmax;
        // c.lo <= coef*x + rest <= c.hi  =>  bounds on coef*x.
        const long long term_lo = c.lo == kNoBound ? -kInf : c.lo - rest_max;
        const long long term_hi = c.hi == kNoBound ? kInf : c.hi - rest_min;
        long long xlo, xhi;
        if (t.coef > 0) {
            xlo = div_ceil(term_lo, t.coef);
            xhi = div_floor(term_hi, t.coef);
        } else {
            xlo = div_ceil(term_hi, t.coef);
            xhi = div_floor(term_lo, t.coef);
        }
        const int vlo = static_cast<int>(std::max<long long>(ws_.lo[t.var], xlo));
        const int vhi = static_cast<int>(std::min<long long>(ws_.hi[t.var], xhi));
        if (!tighten(t.var, vlo, vhi)) return false;
    }
    return true;
}

bool BBSolver::propagate(std::size_t) {
    while (!ws_.dirty.empty()) {
        const std::uint32_t ci = ws_.dirty.back();
        ws_.dirty.pop_back();
        ws_.in_dirty[ci] = 0;
        if (!propagate_constraint(model_->constraint(ci))) {
            // Clear the dirty queue so the next propagation starts clean.
            for (std::uint32_t cj : ws_.dirty) ws_.in_dirty[cj] = 0;
            ws_.dirty.clear();
            return false;
        }
    }
    return true;
}

void BBSolver::undo_to(std::size_t mark) {
    while (ws_.trail.size() > mark) {
        const TrailEntry& e = ws_.trail.back();
        ws_.lo[e.var] = e.old_lo;
        ws_.hi[e.var] = e.old_hi;
        ws_.trail.pop_back();
    }
}

bool BBSolver::dfs(const LeafCallback& leaf, bool& accepted, std::vector<int>& out) {
    if (stats_.nodes >= opts_.max_nodes) {
        stats_.aborted = true;
        return true;  // unwind
    }
    // First unfixed variable.
    VarId branch = static_cast<VarId>(model_->num_vars());
    for (VarId v = 0; v < model_->num_vars(); ++v)
        if (ws_.lo[v] < ws_.hi[v]) {
            branch = v;
            break;
        }
    if (branch == model_->num_vars()) {
        ++stats_.leaves;
        std::vector<int> assignment(ws_.lo.begin(), ws_.lo.end());
        if (leaf(assignment)) {
            accepted = true;
            out = std::move(assignment);
            return true;
        }
        return false;
    }
    ++stats_.nodes;
    if (obs::enabled() && (stats_.nodes & 0xfffff) == 0) {
        // Progress snapshot every ~1M nodes (zero-length span on the trace).
        obs::Span tick("bb.progress");
        tick.attr("nodes", stats_.nodes);
        tick.attr("leaves", stats_.leaves);
        tick.attr("depth", ws_.trail.size());
    }
    for (int v = ws_.lo[branch]; v <= ws_.hi[branch]; ++v) {
        const std::size_t mark = ws_.trail.size();
        if (tighten(branch, v, v) && propagate(0)) {
            if (dfs(leaf, accepted, out)) return true;
        } else {
            for (std::uint32_t cj : ws_.dirty) ws_.in_dirty[cj] = 0;
            ws_.dirty.clear();
        }
        undo_to(mark);
    }
    return false;
}

}  // namespace stgcc::ilp
