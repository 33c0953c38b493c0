// Reproduces Fig. 3 of the paper (section 6): the CSC-resolved VME bus
// controller is free from coding conflicts yet the inserted csc signal is
// neither p-normal nor n-normal -- its next-state function
// csc = dsr (csc + !ldtack) is non-monotonic.  Also times the normalcy
// check (the non-linear system (5)) across the benchmark suite.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>

#include "bench_util.hpp"
#include "core/checkers.hpp"
#include "stg/benchmarks.hpp"
#include "util/stopwatch.hpp"

using namespace stgcc;

namespace {

void check(bool cond, const char* what) {
    if (!cond) {
        std::fprintf(stderr, "REPRODUCTION FAILURE: %s\n", what);
        std::exit(1);
    }
}

void reproduce_fig3() {
    auto model = stg::bench::vme_bus_csc_resolved();
    core::UnfoldingChecker checker(model);
    check(checker.check_usc().holds, "resolved VME must satisfy USC");
    check(checker.check_csc().holds, "resolved VME must satisfy CSC");
    auto n = checker.check_normalcy();
    check(!n.normal, "normalcy must be violated (paper Fig. 3)");

    std::printf("Fig. 3 -- normalcy of the CSC-resolved VME bus controller:\n");
    for (const auto& sn : n.per_signal) {
        const std::string name = model.signal_name(sn.signal);
        std::printf("  %-6s : %s\n", name.c_str(),
                    sn.p_normal && sn.n_normal ? "p-normal and n-normal"
                    : sn.p_normal              ? "p-normal"
                    : sn.n_normal              ? "n-normal"
                                               : "NOT normal");
        if (name == "csc") {
            check(!sn.p_normal && !sn.n_normal,
                  "csc must be neither p- nor n-normal");
        } else {
            check(sn.normal(), "real outputs must be normal");
        }
    }
    std::printf("Fig. 3 reproduced OK (csc = dsr (csc + !ldtack) is "
                "non-monotonic).\n\n");
}

void normalcy_table() {
    std::printf("Normalcy check across the suite (unfolding+IP, both "
                "orientations of (5)):\n\n");
    std::printf("  %-16s | %7s | %9s | %10s | %10s | %s\n", "model", "normal",
                "time", "nodes", "leaves", "non-normal signals");
    benchutil::rule(89);
    std::vector<stg::bench::NamedBenchmark> suite;
    suite.push_back({"VME", stg::bench::vme_bus(), false});
    suite.push_back({"VME-CSC", stg::bench::vme_bus_csc_resolved(), true});
    suite.push_back({"JOHNSON-4", stg::bench::johnson_counter(4), true});
    suite.push_back({"MULLER-3", stg::bench::muller_pipeline(3), true});
    suite.push_back({"DUP-COD-1", stg::bench::duplex_channel(1, true), true});
    suite.push_back({"CF-SYM-A", stg::bench::counterflow(2, true), true});
    // The handshake pipelines are where normalcy explodes (about x23 nodes
    // per stage); hp(6) takes minutes single-threaded, so it is left out.
    suite.push_back({"HP-4", stg::bench::handshake_pipeline(4), true});
    suite.push_back({"HP-5", stg::bench::handshake_pipeline(5), true});
    for (const auto& nb : suite) {
        core::UnfoldingChecker checker(nb.stg);
        Stopwatch t;
        auto n = checker.check_normalcy();
        std::string bad;
        for (const auto& sn : n.per_signal)
            if (!sn.normal()) bad += nb.stg.signal_name(sn.signal) + " ";
        std::printf("  %-16s | %7s | %9s | %10zu | %10zu | %s\n", nb.name.c_str(),
                    n.normal ? "yes" : "NO",
                    benchutil::fmt_time(t.seconds()).c_str(),
                    n.stats.search_nodes, n.stats.leaves, bad.c_str());
    }
    benchutil::rule(89);
    std::printf("\n");
}

void BM_NormalcyVmeCsc(benchmark::State& state) {
    auto model = stg::bench::vme_bus_csc_resolved();
    core::UnfoldingChecker checker(model);
    for (auto _ : state)
        benchmark::DoNotOptimize(checker.check_normalcy().normal);
}
BENCHMARK(BM_NormalcyVmeCsc);

void BM_NormalcyMuller(benchmark::State& state) {
    auto model = stg::bench::muller_pipeline(static_cast<int>(state.range(0)));
    core::UnfoldingChecker checker(model);
    for (auto _ : state)
        benchmark::DoNotOptimize(checker.check_normalcy().normal);
}
BENCHMARK(BM_NormalcyMuller)->Arg(2)->Arg(3)->Arg(4);

}  // namespace

int main(int argc, char** argv) {
    reproduce_fig3();
    normalcy_table();
    std::fflush(stdout);  // keep table output ordered before gbench
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
