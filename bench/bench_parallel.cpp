// Parallel-runtime benchmark: corpus wall-clock of the Table 1 suite at
// jobs = 1/2/4/8 (model-level + within-model parallelism on one shared
// pool, exactly the stgbatch configuration), and the single-model speedup
// of verify_stg on each conflict-free model at jobs 4, where only the
// first-difference subproblems of its own searches can spread over the
// pool.  Every time is the best of three runs.  Writes BENCH_parallel.json.
//
// Verdicts are asserted identical across jobs values while measuring --
// a benchmark run doubles as a determinism check.  Speedups are whatever
// the hardware gives: on a single-core container they hover around 1.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/verifier.hpp"
#include "sched/parallel.hpp"
#include "stg/benchmarks.hpp"
#include "util/stopwatch.hpp"

using namespace stgcc;

namespace {

struct Verdicts {
    std::vector<int> rows;  // packed per-model: usc, csc, normalcy
    bool operator==(const Verdicts&) const = default;
};

/// Verify the whole suite through one shared executor (model-level
/// parallel_for; each verify's phases and subproblems reuse the same
/// pool).  Returns wall-clock seconds and the verdict vector.
double run_corpus(const std::vector<stg::bench::NamedBenchmark>& suite,
                  unsigned jobs, Verdicts& verdicts) {
    sched::Executor ex(jobs);
    std::vector<core::VerificationReport> reports(suite.size());
    Stopwatch timer;
    sched::parallel_for(ex, suite.size(), [&](std::size_t i) {
        reports[i] = core::verify_stg(suite[i].stg, {}, ex);
    });
    const double seconds = timer.seconds();
    verdicts.rows.clear();
    for (const auto& r : reports) {
        verdicts.rows.push_back(r.usc.holds);
        verdicts.rows.push_back(r.csc.holds);
        verdicts.rows.push_back(r.normalcy.normal);
    }
    return seconds;
}

/// The fastest of three runs of `run`, which returns its own seconds: a
/// single short pass on a shared host swings by up to 2x between runs.
template <class Run>
double best_of_three(Run&& run) {
    double best = run();
    for (int rep = 1; rep < 3; ++rep) best = std::min(best, run());
    return best;
}

}  // namespace

int main() {
    benchutil::BenchReport report("parallel");
    const auto suite = stg::bench::table1_suite();
    const unsigned hw = sched::Executor::hardware_jobs();

    std::printf("Parallel checking: Table 1 corpus, %zu models "
                "(hardware concurrency: %u)\n\n",
                suite.size(), hw);
    std::printf("%-8s %12s %10s\n", "jobs", "wall-clock", "speedup");
    benchutil::rule(34);

    Verdicts baseline;
    double serial_seconds = 0.0;
    for (unsigned jobs : {1u, 2u, 4u, 8u}) {
        Verdicts verdicts;
        const double seconds =
            best_of_three([&] { return run_corpus(suite, jobs, verdicts); });
        if (jobs == 1) {
            baseline = verdicts;
            serial_seconds = seconds;
        } else if (!(verdicts == baseline)) {
            std::fprintf(stderr,
                         "FATAL: verdicts at jobs=%u differ from serial\n",
                         jobs);
            return 1;
        }
        const double speedup = seconds > 0 ? serial_seconds / seconds : 1.0;
        std::printf("%-8u %12s %9.2fx\n", jobs,
                    benchutil::fmt_time(seconds).c_str(), speedup);
        report.add_row(obs::Json::object()
                           .set("section", "corpus")
                           .set("jobs", jobs)
                           .set("models", suite.size())
                           .set("seconds", seconds)
                           .set("speedup", speedup));
    }

    std::printf("\nSingle model, verify_stg on conflict-free instances "
                "(first-difference subproblems over the pool):\n\n");
    std::printf("%-24s %12s %12s %10s\n", "model", "jobs=1", "jobs=4",
                "speedup");
    benchutil::rule(62);
    for (const auto& entry : suite) {
        if (!entry.expect_conflict_free) continue;
        double seconds[2];
        std::string text[2];
        const unsigned jobs[2] = {1u, 4u};
        for (int k = 0; k < 2; ++k) {
            sched::Executor ex(jobs[k]);
            seconds[k] = best_of_three([&] {
                Stopwatch timer;
                const auto r = core::verify_stg(entry.stg, {}, ex);
                const double s = timer.seconds();
                text[k] = core::format_report(entry.stg, r);
                return s;
            });
        }
        if (text[0] != text[1]) {
            std::fprintf(stderr, "FATAL: report at jobs=4 differs on %s\n",
                         entry.name.c_str());
            return 1;
        }
        const double speedup = seconds[1] > 0 ? seconds[0] / seconds[1] : 1.0;
        std::printf("%-24s %12s %12s %9.2fx\n", entry.name.c_str(),
                    benchutil::fmt_time(seconds[0]).c_str(),
                    benchutil::fmt_time(seconds[1]).c_str(), speedup);
        report.add_row(obs::Json::object()
                           .set("section", "single_model")
                           .set("model", entry.name)
                           .set("seconds_jobs1", seconds[0])
                           .set("seconds_jobs4", seconds[1])
                           .set("speedup", speedup)
                           .set("hardware_jobs", hw));
    }

    std::printf("\n");
    report.write();
    return 0;
}
