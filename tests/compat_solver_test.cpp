#include "core/compat_solver.hpp"

#include <gtest/gtest.h>

#include <random>
#include <tuple>
#include <set>

#include "stg/astg.hpp"
#include "stg/benchmarks.hpp"
#include "unfolding/configuration.hpp"
#include "unfolding/unfolder.hpp"
#include "test_util.hpp"

namespace stgcc::core {
namespace {

/// Enumerate all cut-off-free configurations of a prefix by brute force.
std::vector<BitVec> all_dense_configs(const CodingProblem& problem) {
    const std::size_t q = problem.size();
    std::vector<BitVec> out;
    // 2^q subsets; only call on tiny problems.
    for (std::size_t mask = 0; mask < (std::size_t{1} << q); ++mask) {
        BitVec dense(q);
        for (std::size_t i = 0; i < q; ++i)
            if ((mask >> i) & 1) dense.set(i);
        // Validity: causally closed and conflict-free.
        bool ok = true;
        for (std::size_t i = 0; i < q && ok; ++i) {
            if (!dense.test(i)) continue;
            if (!problem.preds(i).subset_of(dense)) ok = false;
            if (problem.conflicts(i).intersects(dense)) ok = false;
        }
        if (ok) out.push_back(dense);
    }
    return out;
}

TEST(CompatSolver, SolutionsAreValidConfigurationPairs) {
    auto model = test::tiny_conflict();
    auto prefix = unf::unfold(model.system());
    CodingProblem problem(model, prefix);
    CompatSolver solver(problem);
    auto outcome = solver.solve(
        CodeRelation::Equal, [&](const BitVec& ca, const BitVec& cb) {
            EXPECT_TRUE(unf::is_configuration(prefix, problem.to_event_set(ca)));
            EXPECT_TRUE(unf::is_configuration(prefix, problem.to_event_set(cb)));
            EXPECT_FALSE(ca == cb);
            EXPECT_EQ(problem.code_of(ca), problem.code_of(cb));
            return false;  // enumerate everything
        });
    EXPECT_FALSE(outcome.found);
    EXPECT_GT(outcome.stats.leaves, 0u);
}

TEST(CompatSolver, EnumeratesEachDistinctPairOnce) {
    // Cross-check the first-difference enumeration against brute force on
    // small prefixes: every unordered pair of distinct configurations with
    // equal codes must be visited exactly once.
    std::vector<stg::Stg> models;
    models.push_back(test::tiny_handshake());           // no equal-code pairs
    models.push_back(stg::bench::sequential_handshakes(2));  // several
    models.push_back(stg::bench::parallel_handshakes(2));
    for (const auto& model : models) {
        auto prefix = unf::unfold(model.system());
        CodingProblem problem(model, prefix);
        ASSERT_LE(problem.size(), 16u) << model.name();

        // Brute-force expected pairs.
        auto configs = all_dense_configs(problem);
        std::set<std::pair<std::string, std::string>> expected;
        for (std::size_t i = 0; i < configs.size(); ++i)
            for (std::size_t j = i + 1; j < configs.size(); ++j)
                if (problem.code_of(configs[i]) == problem.code_of(configs[j])) {
                    auto a = configs[i].to_string(), b = configs[j].to_string();
                    expected.insert({std::min(a, b), std::max(a, b)});
                }

        std::set<std::pair<std::string, std::string>> seen;
        SearchOptions opts;
        opts.use_conflict_free_optimisation = false;  // full pair enumeration
        CompatSolver solver(problem, opts);
        auto outcome = solver.solve(
            CodeRelation::Equal, [&](const BitVec& ca, const BitVec& cb) {
                auto a = ca.to_string(), b = cb.to_string();
                auto [it, inserted] =
                    seen.insert({std::min(a, b), std::max(a, b)});
                EXPECT_TRUE(inserted)
                    << "pair enumerated twice: " << a << " / " << b;
                return false;
            });
        EXPECT_FALSE(outcome.found);
        EXPECT_EQ(seen, expected) << model.name();
    }
}

TEST(CompatSolver, FindsConflictAndStops) {
    auto model = test::tiny_conflict();
    auto prefix = unf::unfold(model.system());
    CodingProblem problem(model, prefix);
    CompatSolver solver(problem);
    auto outcome = solver.solve(
        CodeRelation::Equal, [&](const BitVec& ca, const BitVec& cb) {
            return !(unf::marking_of(prefix, problem.to_event_set(ca)) ==
                     unf::marking_of(prefix, problem.to_event_set(cb)));
        });
    EXPECT_TRUE(outcome.found);
    EXPECT_FALSE(outcome.ca == outcome.cb);
}

TEST(CompatSolver, LessEqRelationEnforced) {
    auto model = stg::bench::vme_bus();
    auto prefix = unf::unfold(model.system());
    CodingProblem problem(model, prefix);
    CompatSolver solver(problem);
    auto outcome = solver.solve(
        CodeRelation::LessEq, [&](const BitVec& ca, const BitVec& cb) {
            EXPECT_TRUE(problem.code_of(ca).subset_of(problem.code_of(cb)));
            return false;
        });
    EXPECT_FALSE(outcome.found);
    EXPECT_GT(outcome.stats.leaves, 0u);
}

TEST(CompatSolver, GreaterEqRelationEnforced) {
    auto model = stg::bench::vme_bus();
    auto prefix = unf::unfold(model.system());
    CodingProblem problem(model, prefix);
    CompatSolver solver(problem);
    auto outcome = solver.solve(
        CodeRelation::GreaterEq, [&](const BitVec& ca, const BitVec& cb) {
            EXPECT_TRUE(problem.code_of(cb).subset_of(problem.code_of(ca)));
            return false;
        });
    EXPECT_FALSE(outcome.found);
}

TEST(CompatSolver, ConflictFreeOptimisationRestrictsToSubsets) {
    auto model = stg::bench::vme_bus();  // marked graph: optimisation applies
    auto prefix = unf::unfold(model.system());
    CodingProblem problem(model, prefix);
    ASSERT_TRUE(problem.dynamically_conflict_free());
    CompatSolver solver(problem);
    auto outcome =
        solver.solve(CodeRelation::Equal, [&](const BitVec& ca, const BitVec& cb) {
            EXPECT_TRUE(ca.subset_of(cb));
            return false;
        });
    EXPECT_FALSE(outcome.found);
}

TEST(CompatSolver, OptimisationPreservesUscVerdict) {
    // Same verdict with and without the section 7 optimisation.
    for (auto* make : {+[] { return stg::bench::vme_bus(); },
                       +[] { return stg::bench::sequential_handshakes(2); },
                       +[] { return stg::bench::muller_pipeline(2); }}) {
        auto model = make();
        auto prefix = unf::unfold(model.system());
        CodingProblem problem(model, prefix);
        auto usc_predicate = [&](const BitVec& ca, const BitVec& cb) {
            return !(unf::marking_of(prefix, problem.to_event_set(ca)) ==
                     unf::marking_of(prefix, problem.to_event_set(cb)));
        };
        SearchOptions with, without;
        without.use_conflict_free_optimisation = false;
        CompatSolver s1(problem, with), s2(problem, without);
        auto r1 = s1.solve(CodeRelation::Equal, usc_predicate);
        auto r2 = s2.solve(CodeRelation::Equal, usc_predicate);
        EXPECT_EQ(r1.found, r2.found) << model.name();
        // The optimisation must not explore more nodes.
        if (!r1.found)
            EXPECT_LE(r1.stats.search_nodes, r2.stats.search_nodes) << model.name();
    }
}

TEST(CompatSolver, NodeLimitThrows) {
    // phase_envelope has many equal-code configuration pairs, so rejecting
    // every leaf forces real branching.
    auto model = stg::bench::phase_envelope(3);
    auto prefix = unf::unfold(model.system());
    CodingProblem problem(model, prefix);
    SearchOptions opts;
    opts.max_nodes = 3;
    CompatSolver solver(problem, opts);
    EXPECT_THROW(
        (void)solver.solve(CodeRelation::Equal,
                           [](const BitVec&, const BitVec&) { return false; }),
        ModelError);
}

TEST(CompatSolver, ParallelHandshakesDecidedByPropagationAlone) {
    // In PAR(n) every cut-off-free configuration has a distinct code, and
    // the per-signal interval propagation proves it without any branching.
    auto model = stg::bench::parallel_handshakes(4);
    auto prefix = unf::unfold(model.system());
    CodingProblem problem(model, prefix);
    CompatSolver solver(problem);
    auto outcome = solver.solve(
        CodeRelation::Equal,
        [](const BitVec&, const BitVec&) { return true; });
    EXPECT_FALSE(outcome.found);
    EXPECT_EQ(outcome.stats.search_nodes, 0u);
}

// --- CompatKernel: word-parallel closure against a naive reference --------

/// The closure computed one element at a time: a worklist of (variable,
/// value) pairs that may hold duplicates and assigned variables, expanded
/// through the CodingProblem rows, the per-signal extreme forcing of the
/// still unassigned variables and the first-difference / section 7 links.  The kernel must reach the same
/// assignment and slacks, and fail exactly when this does.
struct ReferenceClosure {
    const CodingProblem* problem;
    CodeRelation relation;
    bool conflict_free;
    std::size_t first_diff;
    std::vector<int> val[2];  ///< -1 unassigned, else 0/1
    std::vector<CompatKernel::SignalState> signals;

    ReferenceClosure(const CodingProblem& p, CodeRelation rel, bool cf,
                     std::size_t d)
        : problem(&p), relation(rel), conflict_free(cf), first_diff(d) {
        val[0].assign(p.size(), -1);
        val[1].assign(p.size(), -1);
        for (const SignalSlack& s : p.initial_slacks())
            signals.push_back({0, s.pos, s.neg});
    }

    [[nodiscard]] int coef(int side, std::size_t i) const {
        return side == 0 ? problem->delta(i) : -problem->delta(i);
    }

    bool assign(int side, std::size_t idx, int value) {
        std::vector<std::tuple<int, std::size_t, int>> work{{side, idx, value}};
        while (!work.empty()) {
            const auto [s, i, v] = work.back();
            work.pop_back();
            if (val[s][i] != -1) {
                if (val[s][i] != v) return false;
                continue;
            }
            val[s][i] = v;
            const stg::SignalId z = problem->signal(i);
            CompatKernel::SignalState& st = signals[z];
            if (coef(s, i) > 0)
                --st.pos_slack;
            else
                --st.neg_slack;
            if (v == 1) st.fixed += coef(s, i);
            const int lo = st.fixed - st.neg_slack, hi = st.fixed + st.pos_slack;
            const bool eq = relation == CodeRelation::Equal;
            if ((eq || relation == CodeRelation::LessEq) && lo > 0) return false;
            if ((eq || relation == CodeRelation::GreaterEq) && hi < 0) return false;
            const bool force_max =
                hi == 0 && relation != CodeRelation::LessEq;
            const bool force_min =
                lo == 0 && relation != CodeRelation::GreaterEq;
            for (std::size_t j = 0; j < problem->size(); ++j) {
                if (problem->signal(j) != z) continue;
                for (int r = 0; r < 2; ++r) {
                    if (val[r][j] != -1) continue;
                    const bool up = coef(r, j) > 0;
                    if (force_max) work.emplace_back(r, j, up ? 1 : 0);
                    if (force_min) work.emplace_back(r, j, up ? 0 : 1);
                }
            }
            for (std::size_t j = 0; j < problem->size(); ++j) {
                if (v == 1 && problem->preds(i).test(j)) work.emplace_back(s, j, 1);
                if (v == 1 && problem->conflicts(i).test(j)) work.emplace_back(s, j, 0);
                if (v == 0 && problem->succs(i).test(j)) work.emplace_back(s, j, 0);
            }
            if (i < first_diff) work.emplace_back(1 - s, i, v);
            if (conflict_free && s == 0 && v == 1) work.emplace_back(1, i, 1);
            if (conflict_free && s == 1 && v == 0) work.emplace_back(0, i, 0);
        }
        return true;
    }
};

/// Kernel bitsets and slacks equal the reference state; the branch scan
/// finds the lowest unassigned variable, x' before x''.
void expect_same_state(const CompatKernel& k, const ReferenceClosure& ref,
                       const std::string& where) {
    const std::size_t q = ref.val[0].size();
    for (int s = 0; s < 2; ++s) {
        ASSERT_EQ(k.ones(s).size(), q) << where;
        for (std::size_t i = 0; i < q; ++i) {
            ASSERT_EQ(k.ones(s).test(i), ref.val[s][i] == 1)
                << where << " side " << s << " idx " << i;
            ASSERT_EQ(k.zeros(s).test(i), ref.val[s][i] == 0)
                << where << " side " << s << " idx " << i;
        }
    }
    ASSERT_EQ(k.signals(), ref.signals) << where;
    int want_side = -1;
    std::size_t want_idx = 0;
    for (std::size_t i = 0; i < q && want_side < 0; ++i) {
        if (ref.val[0][i] == -1)
            want_side = 0, want_idx = i;
        else if (ref.val[1][i] == -1)
            want_side = 1, want_idx = i;
    }
    std::size_t idx = 0;
    int side = -1;
    const bool open = k.next_unassigned(side, idx);
    ASSERT_EQ(open, want_side >= 0) << where;
    if (open) {
        EXPECT_EQ(side, want_side) << where;
        EXPECT_EQ(idx, want_idx) << where;
    }
}

/// Random assign sequences with nested marks: after every assign the
/// kernel state equals the reference, a clash is reported iff the
/// reference finds one, and undo_to() restores every bitset and
/// SignalState exactly.
void check_kernel_against_reference(const CodingProblem& problem,
                                    unsigned seed, int rounds,
                                    const std::string& name) {
    const std::size_t q = problem.size();
    if (q == 0) return;
    std::mt19937 rng(seed);
    CompatKernel kernel;
    std::size_t clashes = 0, successes = 0;
    for (int round = 0; round < rounds; ++round) {
        const auto relation = static_cast<CodeRelation>(rng() % 3);
        const bool cf = problem.dynamically_conflict_free() && rng() % 2 == 0;
        const std::size_t d = rng() % (q + 1);
        kernel.reset(problem, relation, cf);
        kernel.set_first_diff(d);
        ReferenceClosure ref(problem, relation, cf, d);
        const std::string where = name + " round " + std::to_string(round);
        expect_same_state(kernel, ref, where + " after reset");

        std::vector<std::pair<std::size_t, ReferenceClosure>> marks;
        for (int step = 0; step < 24; ++step) {
            if (!marks.empty() && rng() % 5 == 0) {
                // Retract a random number of levels at once.
                const std::size_t keep = rng() % marks.size();
                kernel.undo_to(marks[keep].first);
                ref = marks[keep].second;
                marks.erase(marks.begin() + static_cast<std::ptrdiff_t>(keep),
                            marks.end());
                expect_same_state(kernel, ref, where + " after undo");
                continue;
            }
            const int side = static_cast<int>(rng() % 2);
            const std::size_t idx = rng() % q;
            const int value = static_cast<int>(rng() % 2);
            marks.emplace_back(kernel.mark(), ref);
            const bool ok = kernel.assign(side, idx, value);
            ASSERT_EQ(ok, ref.assign(side, idx, value))
                << where << " step " << step << ": assign(" << side << ", "
                << idx << ", " << value << ")";
            // No variable is ever both 0 and 1, not even in the partial
            // state a contradiction leaves behind.
            for (int s = 0; s < 2; ++s)
                ASSERT_FALSE(kernel.ones(s).intersects(kernel.zeros(s)))
                    << where << " step " << step;
            if (ok) {
                ++successes;
                expect_same_state(kernel, ref, where + " after assign");
            } else {
                ++clashes;
                kernel.undo_to(marks.back().first);
                ref = marks.back().second;
                marks.pop_back();
                expect_same_state(kernel, ref, where + " after clash undo");
            }
            if (::testing::Test::HasFatalFailure()) return;
        }
        kernel.undo_to(0);
        expect_same_state(kernel, ReferenceClosure(problem, relation, cf, d),
                          where + " after full undo");
    }
    // Both outcomes must actually be exercised.
    EXPECT_GT(clashes, 0u) << name;
    EXPECT_GT(successes, 0u) << name;
}

TEST(CompatKernel, ClosureMatchesNaiveReferenceOnRandomPrefixes) {
    for (unsigned seed = 1; seed <= 12; ++seed) {
        auto model = test::random_stg(seed);
        auto prefix = unf::unfold(model.system());
        const auto consistency = unf::analyze_consistency(model, prefix);
        if (!consistency.consistent) continue;
        CodingProblem problem(model, prefix, consistency);
        check_kernel_against_reference(problem, seed, 40, model.name());
        if (HasFatalFailure()) return;
    }
}

TEST(CompatKernel, ClosureMatchesNaiveReferenceOnMultiWordRows) {
    // q above 64 and not a multiple of it: rows span several words and the
    // branch scan must mask the tail of the last one.
    auto model = stg::load_astg_file(std::string(STGCC_MODELS_DIR) +
                                     "/cf_asym_b_csc.g");
    auto prefix = unf::unfold(model.system());
    CodingProblem problem(model, prefix);
    ASSERT_GT(problem.size(), 64u);
    ASSERT_NE(problem.size() % 64, 0u);
    check_kernel_against_reference(problem, 7, 60, "cf_asym_b_csc");
    if (HasFatalFailure()) return;

    auto envelope = stg::bench::phase_envelope(40);
    auto envelope_prefix = unf::unfold(envelope.system());
    CodingProblem envelope_problem(envelope, envelope_prefix);
    ASSERT_GT(envelope_problem.size(), 128u);
    check_kernel_against_reference(envelope_problem, 11, 20, envelope.name());
}

TEST(CompatKernel, FullyAssignedStateHasNoBranchVariable) {
    auto model = test::tiny_conflict();
    auto prefix = unf::unfold(model.system());
    CodingProblem problem(model, prefix);
    CompatKernel kernel;
    kernel.reset(problem, CodeRelation::Equal, false);
    for (std::size_t i = 0; i < problem.size(); ++i)
        for (int s = 0; s < 2; ++s) EXPECT_TRUE(kernel.assign(s, i, 0));
    std::size_t idx = 0;
    int side = 0;
    EXPECT_FALSE(kernel.next_unassigned(side, idx));
    EXPECT_EQ(kernel.ones(0).count() + kernel.zeros(0).count(), problem.size());
}

TEST(CodingProblem, DensifiesCutoffs) {
    auto model = stg::bench::vme_bus();
    auto prefix = unf::unfold(model.system());
    CodingProblem problem(model, prefix);
    EXPECT_EQ(problem.size(), prefix.num_events() - prefix.num_cutoffs());
    for (std::size_t i = 0; i < problem.size(); ++i)
        EXPECT_FALSE(prefix.event(problem.event_of(i)).cutoff);
}

TEST(CodingProblem, CodeOfMatchesChangeVector) {
    auto model = stg::bench::vme_bus();
    auto prefix = unf::unfold(model.system());
    CodingProblem problem(model, prefix);
    for (std::size_t i = 0; i < problem.size(); ++i) {
        BitVec dense(problem.size());
        // Local configuration of the dense event, densified.
        const unf::EventId e = problem.event_of(i);
        dense.set(i);
        problem.preds(i).for_each([&](std::size_t j) { dense.set(j); });
        stg::Code code = problem.code_of(dense);
        auto v = unf::change_vector_of(model, prefix, prefix.local_config(e));
        for (stg::SignalId z = 0; z < model.num_signals(); ++z) {
            const bool expected = (v[z] != 0);
            EXPECT_EQ(code.test(z) != problem.initial_code().test(z), expected);
        }
    }
}

TEST(CodingProblem, RisesAndFallsPartitionEachSignal) {
    for (unsigned seed : {3u, 11u, 29u}) {
        auto model = test::random_stg(seed);
        auto prefix = unf::unfold(model.system());
        const CodingProblem problem(model, prefix);
        BitVec seen(problem.size());
        for (stg::SignalId z = 0; z < model.num_signals(); ++z) {
            const BitSpan rises = problem.rises(z), falls = problem.falls(z);
            ASSERT_EQ(rises.size(), problem.size());
            ASSERT_EQ(falls.size(), problem.size());
            EXPECT_FALSE(rises.intersects(falls)) << "seed " << seed << " z " << z;
            for (std::size_t i = 0; i < problem.size(); ++i) {
                const bool of_z = problem.signal(i) == z;
                EXPECT_EQ(rises.test(i), of_z && problem.delta(i) > 0)
                    << "seed " << seed << " z " << z << " i " << i;
                EXPECT_EQ(falls.test(i), of_z && problem.delta(i) < 0)
                    << "seed " << seed << " z " << z << " i " << i;
                if (rises.test(i) || falls.test(i)) {
                    EXPECT_FALSE(seen.test(i)) << "seed " << seed << " i " << i;
                    seen.set(i);
                }
            }
        }
        EXPECT_EQ(seen.count(), problem.size()) << "seed " << seed;
    }
}

TEST(CodingProblem, InconsistentStgRejected) {
    stg::StgBuilder b("bad");
    b.input("a");
    b.arc("a+/1", "a+/2").arc("a+/2", "a-").arc("a-", "a+/1");
    b.token_between("a-", "a+/1");
    auto model = b.build();
    auto prefix = unf::unfold(model.system());
    EXPECT_THROW(CodingProblem(model, prefix), ModelError);
}

}  // namespace
}  // namespace stgcc::core
