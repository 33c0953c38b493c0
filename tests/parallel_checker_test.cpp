// Determinism and correctness of the parallel checking paths: the CSC
// solve, the orientation-parallel normalcy check and the phase-parallel
// verify_stg must produce byte-identical verdicts and
// witnesses at every --jobs value.  Suites are named Parallel* so the tsan
// CI job can select them with `ctest -R 'Sched|Parallel'`.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/checkers.hpp"
#include "core/verifier.hpp"
#include "sched/parallel.hpp"
#include "stg/benchmarks.hpp"

namespace stgcc::core {
namespace {

/// The Table-1 subset the determinism contract is asserted on: both paper
/// models, a conflict-carrying ring, a USC-violating sequencer, and
/// conflict-free instances (the exhaustive-search case).
std::vector<stg::Stg> determinism_models() {
    std::vector<stg::Stg> models;
    models.push_back(stg::bench::vme_bus());
    models.push_back(stg::bench::vme_bus_csc_resolved());
    models.push_back(stg::bench::token_ring(2));
    models.push_back(stg::bench::sequential_handshakes(3));
    models.push_back(stg::bench::muller_pipeline(3));
    models.push_back(stg::bench::parallel_handshakes(3));
    return models;
}

std::string report_text(const stg::Stg& model, unsigned jobs) {
    VerifyOptions opts;
    opts.jobs = jobs;
    auto report = verify_stg(model, opts);
    return format_report(model, report);
}

TEST(ParallelDeterminism, ReportsByteIdenticalAcrossJobs) {
    for (const auto& model : determinism_models()) {
        const std::string serial = report_text(model, 1);
        const std::string parallel = report_text(model, 8);
        EXPECT_EQ(serial, parallel) << "model " << model.name();
    }
}

TEST(ParallelDeterminism, CacheOnAndOffReportsByteIdentical) {
    // The clause-store replay and the USC->CSC certificates (src/cache/)
    // must be verdict- and witness-neutral at every jobs value on the
    // determinism corpus -- the fixed-model counterpart of the random
    // DifferentialCacheTest fleet.
    for (const auto& model : determinism_models()) {
        for (const unsigned jobs : {1u, 8u}) {
            VerifyOptions on;
            on.jobs = jobs;
            on.search.use_learned_clauses = true;
            VerifyOptions off;
            off.jobs = jobs;
            off.search.use_learned_clauses = false;
            EXPECT_EQ(format_report(model, verify_stg(model, on)),
                      format_report(model, verify_stg(model, off)))
                << "model " << model.name() << " jobs=" << jobs;
        }
    }
}

TEST(ParallelDeterminism, RepeatedParallelRunsAreStable) {
    // Re-running at jobs=8 must not depend on the schedule: three runs on
    // the conflict-rich models give one answer.
    auto vme = stg::bench::vme_bus();
    auto ring = stg::bench::token_ring(2);
    for (const auto* model : {&vme, &ring}) {
        const std::string first = report_text(*model, 8);
        for (int run = 0; run < 2; ++run)
            EXPECT_EQ(report_text(*model, 8), first)
                << "model " << model->name();
    }
}

TEST(ParallelChecker, CscPoolAgreesWithSerial) {
    // One CSC solve at every jobs value: a fresh checker per run (so no
    // remembered USC result settles it), serial vs pool, same verdict and
    // same witness.
    for (const auto& model : determinism_models()) {
        UnfoldingChecker serial_checker(model);
        UnfoldingChecker pool_checker(model);
        const auto serial = serial_checker.check_csc();
        sched::Executor pool(8);
        const auto parallel = pool_checker.check_csc({}, pool);
        EXPECT_EQ(serial.holds, parallel.holds) << model.name();
        ASSERT_EQ(serial.witness.has_value(), parallel.witness.has_value());
        if (serial.witness) {
            EXPECT_EQ(serial.witness->code.to_string(),
                      parallel.witness->code.to_string());
            EXPECT_EQ(serial.witness->trace1, parallel.witness->trace1);
            EXPECT_EQ(serial.witness->trace2, parallel.witness->trace2);
        }
    }
}

TEST(ParallelChecker, CscOnPoolDoesNoMoreWorkThanItsFirstHit) {
    // One solve at every jobs value: the serial search hits in 2 nodes, and
    // on a pool the other lanes stop at their next cancellation poll (every
    // 1024 nodes) instead of an exhaustive search per circuit-driven signal
    // running before the hit can cancel it (80,010 nodes under the
    // per-signal fan-out at jobs 4).
    const stg::Stg model = stg::bench::phase_envelope(64);
    const auto serial = UnfoldingChecker(model).check_csc();
    ASSERT_FALSE(serial.holds);
    UnfoldingChecker checker(model);
    sched::Executor pool(4);
    const auto csc = checker.check_csc({}, pool);
    EXPECT_FALSE(csc.holds);
    EXPECT_LE(csc.stats.search_nodes, serial.stats.search_nodes + 3 * 1024);
}

TEST(ParallelChecker, HandshakePipelineCscIsSmall) {
    // The per-signal fan-out searched 9.4M nodes here (one exhaustive
    // solve per signal whose CSC holds).
    const stg::Stg model = stg::bench::handshake_pipeline(6);
    VerifyOptions opts;
    opts.check_normalcy = false;
    const auto report = verify_stg(model, opts);
    ASSERT_TRUE(report.consistent);
    EXPECT_FALSE(report.csc.holds);
    EXPECT_LE(report.csc.stats.search_nodes, 100u);
}

TEST(ParallelChecker, NormalcyExecutorAgreesWithSerial) {
    for (const auto& model : determinism_models()) {
        UnfoldingChecker checker(model);
        const auto serial = checker.check_normalcy();
        sched::Executor pool(8);
        const auto parallel = checker.check_normalcy({}, pool);
        EXPECT_EQ(serial.normal, parallel.normal) << model.name();
        ASSERT_EQ(serial.per_signal.size(), parallel.per_signal.size());
        for (std::size_t i = 0; i < serial.per_signal.size(); ++i) {
            const auto& a = serial.per_signal[i];
            const auto& b = parallel.per_signal[i];
            EXPECT_EQ(a.signal, b.signal);
            EXPECT_EQ(a.p_normal, b.p_normal) << model.name();
            EXPECT_EQ(a.n_normal, b.n_normal) << model.name();
            ASSERT_EQ(a.p_violation.has_value(), b.p_violation.has_value());
            if (a.p_violation) {
                EXPECT_EQ(a.p_violation->trace1, b.p_violation->trace1);
                EXPECT_EQ(a.p_violation->trace2, b.p_violation->trace2);
            }
            ASSERT_EQ(a.n_violation.has_value(), b.n_violation.has_value());
            if (a.n_violation) {
                EXPECT_EQ(a.n_violation->trace1, b.n_violation->trace1);
                EXPECT_EQ(a.n_violation->trace2, b.n_violation->trace2);
            }
        }
    }
}

TEST(ParallelChecker, PreCancelledSolveStopsEarly) {
    // A token cancelled before the solve starts must stop the search at
    // the first poll (every 1024 nodes) instead of running to exhaustion.
    auto model = stg::bench::counterflow(4, /*symmetric=*/true);
    UnfoldingChecker checker(model);

    SearchOptions plain;
    auto full = checker.check_usc(plain);
    ASSERT_TRUE(full.holds);  // conflict-free: the search is exhaustive
    ASSERT_GT(full.stats.search_nodes, 5000u)
        << "model too small to observe the cancellation poll";

    sched::CancellationSource source;
    source.cancel();
    SearchOptions cancelled;
    cancelled.cancel = source.token();
    CompatSolver solver(checker.problem(), cancelled);
    // Reject every leaf: uncancelled, this search would be exhaustive, so
    // the early stop is attributable to the token alone.
    auto outcome = solver.solve(
        CodeRelation::Equal,
        [](const BitVec&, const BitVec&) { return false; });
    EXPECT_TRUE(outcome.cancelled);
    EXPECT_FALSE(outcome.found);
    EXPECT_LT(outcome.stats.search_nodes, full.stats.search_nodes);
    EXPECT_LE(outcome.stats.search_nodes, 2048u);
}

TEST(ParallelChecker, VerifyReportsResolvedJobs) {
    auto model = stg::bench::vme_bus();
    VerifyOptions opts;
    opts.jobs = 3;
    auto report = verify_stg(model, opts);
    EXPECT_EQ(report.jobs, 3u);
    opts.jobs = 0;  // auto
    report = verify_stg(model, opts);
    EXPECT_EQ(report.jobs, sched::Executor::hardware_jobs());
}

}  // namespace
}  // namespace stgcc::core
