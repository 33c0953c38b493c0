// Differential tests of the parallel first-difference search: every
// CompatSolver solve spreads its subproblems d = 0..q-1 over the executor
// and the lowest-d hit wins, so reports, witnesses and (for exhaustive
// searches) node counts must not depend on --jobs.  Suites are named
// Parallel* so the tsan CI job selects them.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/checkers.hpp"
#include "core/verifier.hpp"
#include "sched/parallel.hpp"
#include "stg/astg.hpp"
#include "stg/benchmarks.hpp"
#include "test_util.hpp"

namespace stgcc::core {
namespace {

constexpr unsigned kJobs[] = {1u, 2u, 4u, 8u};

std::string traces(const std::vector<petri::TransitionId>& a,
                   const std::vector<petri::TransitionId>& b) {
    std::string out;
    for (const auto t : a) out += std::to_string(t) + ",";
    out += "|";
    for (const auto t : b) out += std::to_string(t) + ",";
    return out;
}

/// Every witness of a report, flattened: the USC and CSC pairs and each
/// normalcy violation, as firing sequences.
std::string witnesses(const VerificationReport& r) {
    std::string out;
    for (const auto* w : {&r.usc.witness, &r.csc.witness})
        out += *w ? traces((*w)->trace1, (*w)->trace2) + ";" : "-;";
    for (const auto& sn : r.normalcy.per_signal)
        for (const auto* w : {&sn.p_violation, &sn.n_violation})
            out += *w ? traces((*w)->trace1, (*w)->trace2) + ";" : "-;";
    return out;
}

/// format_report text and witnesses at every jobs value equal jobs 1's.
void expect_identical_across_jobs(const stg::Stg& model, VerifyOptions opts = {}) {
    opts.jobs = 1;
    const VerificationReport serial = verify_stg(model, opts);
    const std::string text = format_report(model, serial);
    const std::string wit = witnesses(serial);
    for (const unsigned jobs : kJobs) {
        if (jobs == 1) continue;
        opts.jobs = jobs;
        const VerificationReport r = verify_stg(model, opts);
        EXPECT_EQ(format_report(model, r), text)
            << model.name() << " jobs " << jobs;
        EXPECT_EQ(witnesses(r), wit) << model.name() << " jobs " << jobs;
    }
}

std::vector<std::string> corpus_files() {
    std::vector<std::string> names;
    for (const auto& entry : std::filesystem::directory_iterator(STGCC_MODELS_DIR))
        if (entry.path().extension() == ".g")
            names.push_back(entry.path().stem().string());
    std::sort(names.begin(), names.end());
    return names;
}

stg::Stg corpus_model(const std::string& name) {
    return stg::load_astg_file(std::string(STGCC_MODELS_DIR) + "/" + name + ".g");
}

class ParallelSearchCorpus : public ::testing::TestWithParam<std::string> {};

TEST_P(ParallelSearchCorpus, ReportsAndWitnessesIdenticalAtEveryJobs) {
    expect_identical_across_jobs(corpus_model(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Models, ParallelSearchCorpus,
                         ::testing::ValuesIn(corpus_files()),
                         [](const auto& info) { return info.param; });

/// CSC verdict and witness traces, "holds" when there is none.
std::string csc_outcome(const stg::CodingCheckResult& r) {
    return r.witness ? traces(r.witness->trace1, r.witness->trace2) : "holds";
}

/// CSC searched on a fresh checker at every jobs value equals CSC checked
/// after USC, as the pipeline does (settled by the USC result where it
/// can be; expect_identical_across_jobs covers that path at every jobs).
void expect_csc_identical_across_jobs(const stg::Stg& model) {
    UnfoldingChecker chained(model);
    (void)chained.check_usc();
    const std::string serial = csc_outcome(chained.check_csc());
    for (const unsigned jobs : kJobs) {
        sched::Executor ex(jobs);
        EXPECT_EQ(csc_outcome(UnfoldingChecker(model).check_csc({}, ex)), serial)
            << model.name() << " jobs " << jobs;
    }
}

TEST_P(ParallelSearchCorpus, CscSearchedAndSettledAgreeAtEveryJobs) {
    expect_csc_identical_across_jobs(corpus_model(GetParam()));
}

TEST(ParallelSearch, CscIdenticalAtEveryJobsOnDifferentialFleet) {
    // The DifferentialCacheTest nets, dummies contracted as there.
    for (unsigned seed = 5000; seed < 5008; ++seed) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed);
        test::RandomStgConfig cfg;
        cfg.machines = 3;
        cfg.signals_per_machine = 3;
        cfg.places_per_machine = 10;
        cfg.sync_transitions = 2;
        cfg.dummy_probability = 0.2;
        const stg::Stg model = test::random_stg(seed, cfg);
        VerifyOptions opts;
        opts.contract_dummies = true;
        opts.check_normalcy = false;
        const auto report = verify_stg(model, opts);
        ASSERT_TRUE(report.consistent);
        expect_identical_across_jobs(model, opts);
        expect_csc_identical_across_jobs(report.reduced_stg ? *report.reduced_stg
                                                            : model);
    }
}

TEST(ParallelSearch, CorpusIsNonEmpty) {
    EXPECT_GE(corpus_files().size(), 22u);
}

TEST(ParallelSearch, RandomStgsIdenticalAtEveryJobs) {
    for (unsigned seed = 1; seed <= 8; ++seed) {
        test::RandomStgConfig cfg;
        cfg.machines = 2 + seed % 2;
        cfg.sync_transitions = static_cast<int>(seed % 3);
        cfg.branch_probability = 0.25 + 0.05 * (seed % 4);
        const stg::Stg model = test::random_stg(seed * 31 + 7, cfg);
        SCOPED_TRACE(::testing::Message() << "seed " << seed);
        expect_identical_across_jobs(model);
    }
}

/// The first index where the two dense configurations differ: the
/// subproblem d a pair was found in.
std::size_t first_difference(const BitVec& a, const BitVec& b) {
    BitVec diff = a;
    diff ^= b;
    return diff.find_first();
}

std::vector<stg::Stg> conflict_families() {
    std::vector<stg::Stg> family;
    for (int n = 2; n <= 5; ++n) family.push_back(stg::bench::token_ring(n));
    for (int n = 2; n <= 5; ++n)
        family.push_back(stg::bench::sequential_handshakes(n));
    for (int n = 2; n <= 4; ++n) family.push_back(stg::bench::phase_envelope(n));
    family.push_back(stg::bench::duplex_channel(2, false, false));
    family.push_back(stg::bench::duplex_channel(2, false, true));
    return family;
}

TEST(ParallelSearch, FamilySweepsIdenticalAtEveryJobs) {
    // The families' USC and CSC conflicts: the checker-level witness and the
    // whole report must be the serial ones at every jobs value.
    for (const auto& model : conflict_families()) {
        SCOPED_TRACE(model.name());
        UnfoldingChecker checker(model);
        const auto serial = checker.check_usc();
        for (const unsigned jobs : kJobs) {
            sched::Executor ex(jobs);
            const auto r = checker.check_usc({}, ex);
            ASSERT_EQ(r.holds, serial.holds) << "jobs " << jobs;
            if (r.witness) {
                EXPECT_EQ(traces(r.witness->trace1, r.witness->trace2),
                          traces(serial.witness->trace1, serial.witness->trace2))
                    << "jobs " << jobs;
            }
        }
        expect_identical_across_jobs(model);
    }
}

TEST(ParallelSearch, LowestDWinsWhereverTheHitSits) {
    // A leaf predicate that is a pure function of the pair, accepting only
    // pairs whose first difference is at least `floor`: sweeping the floor
    // moves the winning subproblem across the index range.  The winning pair
    // must be the serial one -- lowest d, then first in DFS order within d --
    // however far ahead the higher-d lanes race.
    std::vector<stg::Stg> models;
    models.push_back(stg::bench::token_ring(4));
    models.push_back(stg::bench::phase_envelope(4));
    models.push_back(stg::bench::counterflow(3, /*symmetric=*/true));
    models.push_back(stg::bench::muller_pipeline(5));
    std::set<std::size_t> winning_d;
    for (const auto& model : models) {
        UnfoldingChecker checker(model);
        const std::size_t q = checker.problem().size();
        for (const std::size_t floor : {std::size_t{0}, q / 4, q / 2, 3 * q / 4}) {
            SCOPED_TRACE(model.name() + " floor " + std::to_string(floor));
            const PairPredicate accept = [floor](const BitVec& ca,
                                                 const BitVec& cb) {
                return first_difference(ca, cb) >= floor &&
                       (ca.count() + cb.count()) % 3 == 0;
            };
            CompatSolver reference(checker.problem());
            const auto ref = reference.solve(CodeRelation::Equal, accept);
            if (ref.found) winning_d.insert(first_difference(ref.ca, ref.cb));
            for (const unsigned jobs : kJobs) {
                sched::Executor ex(jobs);
                CompatSolver solver(checker.problem());
                const auto out = solver.solve(CodeRelation::Equal, ex, [&] {
                    return LanePredicate{accept, {}};
                });
                ASSERT_EQ(out.found, ref.found) << "jobs " << jobs;
                if (!out.found) continue;
                EXPECT_TRUE(out.ca == ref.ca) << "jobs " << jobs;
                EXPECT_TRUE(out.cb == ref.cb) << "jobs " << jobs;
            }
        }
    }
    EXPECT_GE(winning_d.size(), 6u) << "the sweep must exercise several d";
}

TEST(ParallelSearch, DroppedLosersAreNoCancellation) {
    // CF-ASYM-B's subproblem d = 19 holds 3,640 of the search's 23,570
    // leaves.  Accepting only its 1,000th leaf (a per-lane count the start
    // hook resets, so the pair is fixed by the DFS order) keeps the winner
    // busy while the other lanes move on to higher d's; the hit then cancels
    // them mid-search.  That must not mark the solve cancelled -- only the
    // caller's token does.
    const stg::Stg model = stg::bench::counterflow(7, /*symmetric=*/false);
    UnfoldingChecker checker(model);
    const LanePredicateFactory make = [] {
        struct Count {
            std::size_t d = 0, leaves = 0;
        };
        auto count = std::make_shared<Count>();
        return LanePredicate{[count](const BitVec&, const BitVec&) {
                                 return count->d == 19 && ++count->leaves == 1000;
                             },
                             [count](std::size_t d) {
                                 *count = Count{d, 0};
                                 return false;
                             }};
    };
    sched::Executor serial(1);
    CompatSolver reference(checker.problem());
    const auto first = reference.solve(CodeRelation::Equal, serial, make);
    ASSERT_TRUE(first.found);
    ASSERT_EQ(first_difference(first.ca, first.cb), 19u);
    for (const unsigned jobs : kJobs) {
        sched::Executor ex(jobs);
        CompatSolver solver(checker.problem());
        const auto out = solver.solve(CodeRelation::Equal, ex, make);
        ASSERT_TRUE(out.found) << "jobs " << jobs;
        EXPECT_TRUE(out.ca == first.ca && out.cb == first.cb) << "jobs " << jobs;
        EXPECT_FALSE(out.cancelled) << "jobs " << jobs;
    }
}

/// Reference for one LessEq normalcy pass, from a serial solve that tracks
/// the subproblem through the start hook: per flag ((signal i, p) at 2i,
/// (signal i, n) at 2i+1), the d of its first violation and that pair's
/// codes, or q and empty codes when it has none.
struct FlagRef {
    std::vector<std::size_t> first_d;
    std::vector<std::pair<std::string, std::string>> codes;
};

FlagRef normalcy_reference(const UnfoldingChecker& checker) {
    const CodingProblem& problem = checker.problem();
    const auto outputs = checker.stg().circuit_driven_signals();
    FlagRef ref;
    ref.first_d.assign(2 * outputs.size(), problem.size());
    ref.codes.resize(2 * outputs.size());
    LeafPredicates leaf(*checker.artifacts());
    std::size_t d = 0;
    sched::Executor serial(1);
    SearchOptions opts;
    opts.use_learned_clauses = false;
    CompatSolver solver(problem, opts);
    (void)solver.solve(CodeRelation::LessEq, serial, [&] {
        return LanePredicate{
            [&](const BitVec& ca, const BitVec& cb) {
                leaf.load_with_codes(ca, cb);
                for (std::size_t i = 0; i < outputs.size(); ++i) {
                    const bool lo = leaf.nxt(0, outputs[i]);
                    const bool hi = leaf.nxt(1, outputs[i]);
                    const std::size_t flag = lo && !hi ? 2 * i
                                             : !lo && hi ? 2 * i + 1
                                                         : ref.first_d.size();
                    if (flag < ref.first_d.size() && ref.first_d[flag] > d) {
                        ref.first_d[flag] = d;
                        ref.codes[flag] = {problem.code_of(ca).to_string(),
                                           problem.code_of(cb).to_string()};
                    }
                }
                return false;  // enumerate every pair
            },
            [&](std::size_t next) {
                d = next;
                return false;
            }};
    });
    return ref;
}

TEST(ParallelSearch, NormalcyKeepsEachFlagsFirstViolation) {
    // Models whose flags first fail in different subproblems -- the
    // hand-built tiny_conflict at d = 0 and 4, vme-bus at 0, 1 and 3,
    // duplex-2 at 0, 1 and 11 -- so at jobs > 1 a higher-d lane can record
    // one flag while a lower-d lane still searches for another.  Each flag
    // must keep the violation the serial enumeration finds first.
    std::vector<stg::Stg> models;
    models.push_back(test::tiny_conflict());
    models.push_back(stg::bench::vme_bus());
    models.push_back(stg::bench::duplex_channel(2, false, false));
    for (const auto& model : models) {
        SCOPED_TRACE(model.name());
        UnfoldingChecker checker(model);
        const std::size_t q = checker.problem().size();
        const FlagRef ref = normalcy_reference(checker);
        std::set<std::size_t> violated_at;
        for (const std::size_t d : ref.first_d)
            if (d < q) violated_at.insert(d);
        ASSERT_GE(violated_at.size(), 2u) << "flags must first fail at different d";

        const auto serial = checker.check_normalcy();
        for (const unsigned jobs : kJobs) {
            sched::Executor ex(jobs);
            for (int run = 0; run < 5; ++run) {
                const auto r = checker.check_normalcy({}, ex);
                ASSERT_EQ(r.per_signal.size() * 2, ref.first_d.size());
                EXPECT_EQ(r.normal, serial.normal);
                for (std::size_t i = 0; i < r.per_signal.size(); ++i) {
                    const auto& sn = r.per_signal[i];
                    const auto& sr = serial.per_signal[i];
                    const std::optional<stg::NormalcyWitness>* got[] = {
                        &sn.p_violation, &sn.n_violation};
                    const std::optional<stg::NormalcyWitness>* want[] = {
                        &sr.p_violation, &sr.n_violation};
                    for (std::size_t k = 0; k < 2; ++k) {
                        const std::size_t flag = 2 * i + k;
                        ASSERT_EQ(got[k]->has_value(), want[k]->has_value())
                            << "flag " << flag << " jobs " << jobs;
                        if (!*got[k]) continue;
                        EXPECT_EQ(traces((*got[k])->trace1, (*got[k])->trace2),
                                  traces((*want[k])->trace1, (*want[k])->trace2))
                            << "flag " << flag << " jobs " << jobs;
                        if (ref.first_d[flag] == q) continue;  // GreaterEq pass
                        EXPECT_EQ((*got[k])->code1.to_string(),
                                  ref.codes[flag].first);
                        EXPECT_EQ((*got[k])->code2.to_string(),
                                  ref.codes[flag].second);
                    }
                }
            }
        }
    }
}

void expect_same_counts(const stg::CheckStats& a, const stg::CheckStats& b,
                        const std::string& what) {
    EXPECT_EQ(a.search_nodes, b.search_nodes) << what;
    EXPECT_EQ(a.leaves, b.leaves) << what;
    EXPECT_EQ(a.propagations, b.propagations) << what;
    EXPECT_EQ(a.max_depth, b.max_depth) << what;
}

TEST(ParallelSearch, ExhaustiveSolvesCountIdenticallyAtAnyJobs) {
    // Without the shared clause store nothing couples two solves, so a
    // search that runs every subproblem to the end visits exactly the
    // serial nodes, leaves and propagations, however the d's are spread.
    SearchOptions opts;
    opts.use_learned_clauses = false;
    const PairPredicate reject = [](const BitVec&, const BitVec&) {
        return false;
    };
    for (const std::string name : {"cf_asym_a_csc", "cf_sym_b_csc", "cf_sym_c_csc",
                                   "par4", "muller4", "vme", "ring", "dup_mod_c",
                                   "seq4"}) {
        SCOPED_TRACE(name);
        const stg::Stg model = corpus_model(name);
        UnfoldingChecker checker(model);
        sched::Executor serial(1), pool(4);
        for (const CodeRelation rel :
             {CodeRelation::Equal, CodeRelation::LessEq, CodeRelation::GreaterEq}) {
            CompatSolver one(checker.problem(), opts), four(checker.problem(), opts);
            const auto a = one.solve(rel, serial, [&] { return LanePredicate{reject, {}}; });
            const auto b = four.solve(rel, pool, [&] { return LanePredicate{reject, {}}; });
            expect_same_counts(a.stats, b.stats,
                               "relation " + std::to_string(static_cast<int>(rel)));
        }
        // The checkers' own exhaustive searches: USC and CSC when they hold
        // (CSC searches only where USC fails, as on seq4), normalcy when
        // some signal stays normal (both passes then run to the end).
        const auto usc1 = checker.check_usc(opts, serial);
        const auto usc4 = checker.check_usc(opts, pool);
        if (usc1.holds) expect_same_counts(usc1.stats, usc4.stats, "usc");
        const auto csc1 = checker.check_csc(opts, serial);
        const auto csc4 = checker.check_csc(opts, pool);
        if (csc1.holds) expect_same_counts(csc1.stats, csc4.stats, "csc");
        const auto n1 = checker.check_normalcy(opts, serial);
        const auto n4 = checker.check_normalcy(opts, pool);
        if (n1.normal) expect_same_counts(n1.stats, n4.stats, "normalcy");
    }
}

TEST(ParallelSearch, CallerCancellationStopsEveryLane) {
    // The caller's token firing mid-search (here from the 50th leaf, so the
    // point is deterministic) stops all lanes and marks the outcome
    // cancelled; an exhaustive search would visit far more nodes.
    const stg::Stg model = corpus_model("cf_sym_c_csc");
    UnfoldingChecker checker(model);
    const PairPredicate reject = [](const BitVec&, const BitVec&) {
        return false;
    };
    CompatSolver full_solver(checker.problem());
    const auto full = full_solver.solve(CodeRelation::Equal, reject);
    ASSERT_FALSE(full.cancelled);
    for (const unsigned jobs : kJobs) {
        sched::Executor ex(jobs);
        sched::CancellationSource deadline;
        std::atomic<int> leaves{0};
        SearchOptions opts;
        opts.cancel = deadline.token();
        CompatSolver solver(checker.problem(), opts);
        const auto out = solver.solve(CodeRelation::Equal, ex, [&] {
            return LanePredicate{[&](const BitVec&, const BitVec&) {
                                     if (++leaves == 50) deadline.cancel();
                                     return false;
                                 },
                                 {}};
        });
        EXPECT_TRUE(out.cancelled) << "jobs " << jobs;
        EXPECT_FALSE(out.found) << "jobs " << jobs;
        EXPECT_LT(out.stats.search_nodes, full.stats.search_nodes) << "jobs " << jobs;
    }
}

TEST(ParallelSearch, DeadlineCancelledUscRecordsNoCertificate) {
    // An unfinished USC search proves nothing: at jobs 4 a deadline-cancelled
    // pass must not record the usc_holds certificate, so CSC still searches.
    // The uncancelled run shows the contrast: certificate, no CSC search.
    sched::Executor ex(4);
    {
        const stg::Stg model = corpus_model("cf_asym_a_csc");
        UnfoldingChecker checker(model);
        ASSERT_TRUE(checker.check_usc({}, ex).holds);
        const auto csc = checker.check_csc({}, ex);
        EXPECT_TRUE(csc.holds);
        EXPECT_EQ(csc.stats.search_nodes, 0u);
    }
    const stg::Stg model = corpus_model("cf_asym_a_csc");
    UnfoldingChecker checker(model);
    sched::CancellationSource deadline;
    deadline.cancel_after(std::chrono::milliseconds(0));
    SearchOptions cancelled;
    cancelled.cancel = deadline.token();
    CompatSolver solver(checker.problem(), cancelled);
    const auto outcome = solver.solve(CodeRelation::Equal, ex, [] {
        return LanePredicate{[](const BitVec&, const BitVec&) { return false; }, {}};
    });
    EXPECT_TRUE(outcome.cancelled);
    (void)checker.check_usc(cancelled, ex);
    const auto csc = checker.check_csc({}, ex);
    EXPECT_TRUE(csc.holds);
    EXPECT_GT(csc.stats.search_nodes, 0u);
}

std::string node_limit_error(UnfoldingChecker& checker, unsigned jobs) {
    sched::Executor ex(jobs);
    SearchOptions opts;
    opts.max_nodes = 5000;
    try {
        (void)checker.check_usc(opts, ex);
    } catch (const ModelError& e) {
        return e.what();
    }
    return "no error";
}

TEST(ParallelSearch, NodeLimitIsOneTotalPerSolve) {
    // max_nodes bounds the solve, not each subproblem or lane: the USC
    // search of cf_sym_c (13,742 nodes) under a 5,000-node limit throws the
    // same ModelError at jobs 1 and 4, where a per-lane count could stay
    // under the limit on every lane.
    const stg::Stg model = corpus_model("cf_sym_c_csc");
    UnfoldingChecker checker(model);
    const std::string serial = node_limit_error(checker, 1);
    EXPECT_NE(serial.find("node limit exceeded (5000)"), std::string::npos)
        << serial;
    EXPECT_EQ(node_limit_error(checker, 4), serial);
}

}  // namespace
}  // namespace stgcc::core
