// stgcc -- high-level USC / CSC / normalcy checkers based on the unfolding
// prefix and the partial-order integer-programming search (the paper's
// method).  Construction unfolds the STG (or adopts an existing prefix /
// shared artifact bundle); each check runs the CompatSolver with the
// appropriate code relation and separating predicate, and converts a
// satisfying pair of configurations into a ConflictWitness with execution
// paths.
//
// All derived per-prefix data (consistency, coding problem, condition
// masks, learned-clause store) lives in a shared cache::PrefixArtifacts;
// several checkers -- or a checker and a conflict-core / dot consumer --
// can read one bundle concurrently without recomputing anything.
#pragma once

#include <atomic>
#include <memory>

#include "cache/prefix_artifacts.hpp"
#include "core/coding_problem.hpp"
#include "core/compat_solver.hpp"
#include "sched/parallel.hpp"
#include "stg/results.hpp"
#include "unfolding/unfolder.hpp"

namespace stgcc::core {

/// The separating predicates of the four leaf tests (USC, serial CSC,
/// per-signal CSC, normalcy) over one artifact bundle, evaluated without
/// allocating: each solve owns one LeafPredicates, whose cut, place-set and
/// code buffers every leaf of that solve reuses.  Not thread-safe; the
/// artifacts it reads are, so concurrent solves each own their own.
class LeafPredicates {
public:
    explicit LeafPredicates(const cache::PrefixArtifacts& artifacts)
        : artifacts_(&artifacts) {}

    /// Load the place sets (exact markings) of both configurations; every
    /// predicate below reads the last loaded pair.
    void load(const BitVec& ca, const BitVec& cb) {
        artifacts_->places_of_dense(ca, cut_, places_[0]);
        artifacts_->places_of_dense(cb, cut_, places_[1]);
    }
    /// Also load both codes (normalcy's Nxt needs them).
    void load_codes(const BitVec& ca, const BitVec& cb) {
        artifacts_->problem().code_of(ca, codes_[0]);
        artifacts_->problem().code_of(cb, codes_[1]);
    }

    /// USC: the markings differ.
    [[nodiscard]] bool markings_differ() const {
        return !(places_[0] == places_[1]);
    }
    /// Per-signal CSC: z is enabled at exactly one of the two markings.
    [[nodiscard]] bool enabled_differs(stg::SignalId z) const {
        return artifacts_->signal_enabled(places_[0], z) !=
               artifacts_->signal_enabled(places_[1], z);
    }
    /// CSC: the enabled-output sets differ, over the circuit-driven
    /// `outputs`.
    [[nodiscard]] bool out_sets_differ(
        const std::vector<stg::SignalId>& outputs) const {
        for (const stg::SignalId z : outputs)
            if (enabled_differs(z)) return true;
        return false;
    }
    /// Nxt_z at the marking of side `side` (after load_codes()).
    [[nodiscard]] bool nxt(int side, stg::SignalId z) const {
        const bool value = codes_[side].test(z);
        return artifacts_->signal_enabled(places_[side], z) ? !value : value;
    }

private:
    const cache::PrefixArtifacts* artifacts_;
    BitVec cut_, places_[2];
    stg::Code codes_[2];
};

class UnfoldingChecker {
public:
    /// Unfold the STG and prepare the coding problem.  Throws ModelError on
    /// inconsistent or dummy-carrying STGs.
    /// The checker keeps a pointer to `stg`, so a temporary does not compile.
    explicit UnfoldingChecker(const stg::Stg& stg, unf::UnfoldOptions opts = {});
    explicit UnfoldingChecker(const stg::Stg&& stg, unf::UnfoldOptions opts = {}) = delete;

    /// Adopt an already built complete prefix of `stg`.
    UnfoldingChecker(const stg::Stg& stg, unf::Prefix prefix);
    UnfoldingChecker(const stg::Stg&& stg, unf::Prefix prefix) = delete;

    /// Adopt a shared artifact bundle (tier-1 cache).  Throws ModelError
    /// when the bundle's STG is inconsistent (same diagnosis as above).
    explicit UnfoldingChecker(cache::PrefixArtifactsPtr artifacts);

    [[nodiscard]] const stg::Stg& stg() const noexcept { return *stg_; }
    [[nodiscard]] const unf::Prefix& prefix() const noexcept {
        return artifacts_->prefix();
    }
    [[nodiscard]] const CodingProblem& problem() const noexcept {
        return *problem_;
    }
    /// The shared artifact bundle (never null).
    [[nodiscard]] const cache::PrefixArtifactsPtr& artifacts() const noexcept {
        return artifacts_;
    }

    /// Initial code v0 derived from the prefix.
    [[nodiscard]] const stg::Code& initial_code() const {
        return problem_->initial_code();
    }

    /// Unique State Coding: search for two configurations with equal codes
    /// and different markings.  An exhaustive, uncancelled search that finds
    /// none is remembered: equal codes then imply equal markings, hence
    /// equal enabled-output sets, so every later check_csc on this checker
    /// answers "holds" without searching.
    [[nodiscard]] stg::CodingCheckResult check_usc(SearchOptions opts = {}) const;
    /// USC with the first-difference subproblems spread over `ex`; the
    /// verdict and witness are those of the serial search at any `--jobs`.
    [[nodiscard]] stg::CodingCheckResult check_usc(SearchOptions opts,
                                                  sched::Executor& ex) const;

    /// Complete State Coding: search for two configurations with equal codes
    /// and different enabled-output sets (the paper's staged USC-then-CSC
    /// approach collapses to filtering USC solutions by the Out predicate).
    [[nodiscard]] stg::CodingCheckResult check_csc(SearchOptions opts = {}) const;

    /// CSC decomposed into independent per-signal instances (one solve per
    /// circuit-driven signal z, predicate "z enabled at exactly one of the
    /// two markings") fanned out on `ex` with first-witness early stop:
    /// once a conflict for some signal is found, instances for later
    /// signals are cancelled.  Each instance spreads its own subproblems
    /// over `ex` too.  Deterministic at any `--jobs`: the reported witness
    /// is the one of the *lowest-id* conflicting signal, and an
    /// `Executor(1)` runs the identical decomposition serially.  Note the
    /// witness may legitimately differ from the single-instance
    /// check_csc(), which reports the globally first conflicting pair.
    [[nodiscard]] stg::CodingCheckResult check_csc(SearchOptions opts,
                                                  sched::Executor& ex) const;

    /// Normalcy of every circuit-driven signal (paper, section 6): solve the
    /// code-dominance system in both orientations, classifying each signal
    /// as p-normal / n-normal / not normal, with witnesses.
    [[nodiscard]] stg::NormalcyResult check_normalcy(SearchOptions opts = {}) const;

    /// Normalcy with each orientation's subproblems spread over `ex`.  The
    /// orientations run in sequence: the LessEq pass, then the GreaterEq
    /// pass only if some flag is still open.  Each flag keeps its first
    /// violation in enumeration order, and results are merged LessEq
    /// first, so verdicts and witnesses are identical at any `--jobs`,
    /// including `Executor(1)`.
    [[nodiscard]] stg::NormalcyResult check_normalcy(SearchOptions opts,
                                                     sched::Executor& ex) const;

private:
    [[nodiscard]] stg::ConflictWitness make_witness(const BitVec& ca,
                                                    const BitVec& cb) const;

    /// Wire the shared clause store into the search options unless the
    /// caller disabled it (`--no-cache`) or supplied a store of their own.
    [[nodiscard]] SearchOptions with_clause_store(SearchOptions opts) const;

    /// One normalcy orientation solved against fresh per-signal state.
    struct NormalcyPass {
        std::vector<stg::SignalNormalcy> per_signal;
        stg::CheckStats stats;
        bool all_resolved = false;  ///< every flag of every signal falsified
    };
    [[nodiscard]] NormalcyPass run_normalcy_pass(
        CodeRelation rel, SearchOptions opts,
        const std::vector<stg::SignalId>& outputs, sched::Executor& ex) const;

    cache::PrefixArtifactsPtr artifacts_;
    const stg::Stg* stg_;
    const CodingProblem* problem_;
    mutable std::atomic<bool> usc_holds_{false};  ///< see check_usc
};

}  // namespace stgcc::core
