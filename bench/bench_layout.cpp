// Data-layout benchmark (docs/MEMORY.md): quantifies the flat hot layer.
//
//  * frozen_layout -- per Table-1 model: freeze() time and the arena
//    footprint of the frozen prefix, reported as bytes per event.  The
//    nightly gate fails when bytes/event regresses more than 10% against
//    the committed BENCH_layout.json baseline -- the number the CSR/arena
//    refactor exists to keep small.
//
// Writes BENCH_layout.json.
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "obs/metrics.hpp"
#include "stg/benchmarks.hpp"
#include "unfolding/unfolder.hpp"
#include "util/stopwatch.hpp"

using namespace stgcc;

int main() {
    benchutil::BenchReport report("layout");

    // --- frozen prefix footprint ----------------------------------------
    const auto suite = stg::bench::table1_suite();
    std::printf("Frozen prefix layout (arena-backed CSR + bit matrices)\n");
    benchutil::rule(72);
    std::printf("  %-24s %8s %8s %12s %10s %10s\n", "model", "events",
                "conds", "arena bytes", "bytes/ev", "freeze");
    for (const auto& named : suite) {
        const unf::PrefixBuilder builder =
            unf::unfold_builder(named.stg.system());
        Stopwatch timer;
        const unf::Prefix frozen = builder.freeze();
        const double freeze_seconds = timer.seconds();
        const double bytes_per_event =
            static_cast<double>(frozen.arena_bytes()) /
            static_cast<double>(frozen.num_events());
        std::printf("  %-24s %8zu %8zu %12zu %10.1f %10s\n",
                    named.name.c_str(), frozen.num_events(),
                    frozen.num_conditions(), frozen.arena_bytes(),
                    bytes_per_event,
                    benchutil::fmt_time(freeze_seconds).c_str());
        report.add_row(obs::Json::object()
                           .set("benchmark", "frozen_layout")
                           .set("model", named.name)
                           .set("events", frozen.num_events())
                           .set("conditions", frozen.num_conditions())
                           .set("arena_bytes", frozen.arena_bytes())
                           .set("bytes_per_event", bytes_per_event)
                           .set("freeze_seconds", freeze_seconds));
    }
    std::printf("\n");

    report.write();
    return 0;
}
