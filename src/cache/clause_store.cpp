#include "cache/clause_store.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace stgcc::cache {

ClauseStore::ClauseStore(std::size_t num_vars) : num_vars_(num_vars) {
    for (BitVec& v : cuts_) v.resize(num_vars_);
    for (auto& c : costs_) c.assign(num_vars_, 0);
}

void ClauseStore::record_cut(int relation, bool conflict_free_mode,
                             std::size_t d, std::uint64_t subtree_nodes) {
    STGCC_REQUIRE(d < num_vars_);
    std::lock_guard<std::mutex> lock(mu_);
    const std::size_t s = slot(relation, conflict_free_mode);
    cuts_[s].set(d);
    costs_[s][d] = subtree_nodes;
    ++eff_.recorded;
    if (obs::enabled()) obs::counter("cache.clauses.recorded").add();
}

std::uint64_t ClauseStore::cost_locked(int relation, bool cf,
                                       std::size_t d) const {
    // Mirror the closure order of cuts_for: exact key first, then the
    // supersets whose cuts are sound here.  The first slot with d set is
    // the (a) proof the replay skipped.
    const auto check = [&](int r, bool c) -> std::uint64_t {
        const std::size_t s = slot(r, c);
        return cuts_[s].test(d) ? costs_[s][d] : 0;
    };
    if (std::uint64_t n = check(relation, cf)) return n;
    if (cf)
        if (std::uint64_t n = check(relation, false)) return n;
    if (relation == kEqual) {
        for (const int r : {kLessEq, kGreaterEq}) {
            if (std::uint64_t n = check(r, false)) return n;
            if (cf)
                if (std::uint64_t n = check(r, true)) return n;
        }
    }
    return 0;
}

void ClauseStore::note_replayed(int relation, bool conflict_free_mode,
                                const BitVec& mask) {
    std::lock_guard<std::mutex> lock(mu_);
    std::uint64_t replays = 0, pruned = 0;
    mask.for_each([&](std::size_t d) {
        ++replays;
        pruned += cost_locked(relation, conflict_free_mode, d);
    });
    eff_.replayed += replays;
    eff_.pruned_nodes += pruned;
    if (obs::enabled() && pruned > 0)
        obs::counter("cache.clauses.pruned_nodes").add(pruned);
}

ClauseStore::Efficacy ClauseStore::efficacy() const {
    std::lock_guard<std::mutex> lock(mu_);
    return eff_;
}

BitVec ClauseStore::cuts_for(int relation, bool conflict_free_mode) const {
    std::lock_guard<std::mutex> lock(mu_);
    // Exact key, the unrestricted variant of the same relation, and -- for
    // Equal -- both one-sided relations, whose feasible sets are supersets.
    BitVec out = cuts_[slot(relation, conflict_free_mode)];
    if (conflict_free_mode) out |= cuts_[slot(relation, false)];
    if (relation == kEqual) {
        for (const int r : {kLessEq, kGreaterEq}) {
            out |= cuts_[slot(r, false)];
            if (conflict_free_mode) out |= cuts_[slot(r, true)];
        }
    }
    return out;
}

std::size_t ClauseStore::num_cuts() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t n = 0;
    for (const BitVec& v : cuts_) n += v.count();
    return n;
}

}  // namespace stgcc::cache
