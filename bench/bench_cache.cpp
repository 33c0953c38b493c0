// Caching benchmark (docs/CACHING.md): quantifies all three tiers.
//
//  * tier 3 -- on-disk result cache: the Table 1 corpus is verified cold
//    (every model a miss: verify + store) and warm (every model a hit:
//    hash + load only).  The acceptance bar is a >= 1.3x warm speedup;
//    in practice hits skip verification entirely and the speedup is
//    orders of magnitude.
//  * tier 2 -- learned-clause store: total search nodes of the sequence the
//    pipeline runs on one checker (USC, CSC, normalcy) with and without
//    the shared store on the conflict-free instances (exhaustive searches,
//    where a first-difference cut recorded by one solve prunes the later
//    ones).
//  * tier 2 certificates: the USC->CSC handoff, where an exhaustive clean
//    USC pass answers the whole CSC phase without a single search node.
//
// Verdicts are asserted identical with caching on and off while measuring
// -- a benchmark run doubles as a differential check.  Writes
// BENCH_cache.json.
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "cache/result_cache.hpp"
#include "core/checkers.hpp"
#include "core/verifier.hpp"
#include "stg/astg.hpp"
#include "stg/benchmarks.hpp"
#include "util/stopwatch.hpp"

using namespace stgcc;

namespace {

namespace fs = std::filesystem;

/// One stgbatch-shaped pass over the suite: hash each model's .g text,
/// consult the result cache, verify on miss + store, count hits.
double run_corpus(const std::vector<stg::bench::NamedBenchmark>& suite,
                  const std::vector<std::string>& texts,
                  const cache::ResultCache& rcache, std::size_t& hits,
                  std::string& verdicts) {
    const std::string options = "bench_cache/1";
    hits = 0;
    verdicts.clear();
    Stopwatch timer;
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const std::uint64_t hash = cache::fnv1a64(texts[i]);
        if (const auto hit = rcache.load("bench", hash, options)) {
            ++hits;
            verdicts += hit->as_string();
            continue;
        }
        const auto report = core::verify_stg(suite[i].stg, {});
        const std::string verdict = std::string(report.usc.holds ? "U" : "u") +
                                    (report.csc.holds ? "C" : "c") +
                                    (report.normalcy.normal ? "N;" : "n;");
        rcache.store("bench", hash, options, obs::Json(verdict));
        verdicts += verdict;
    }
    return timer.seconds();
}

}  // namespace

int main() {
    benchutil::BenchReport report("cache");

    // --- tier 3: cold vs warm corpus through the on-disk result cache ----
    const auto suite = stg::bench::table1_suite();
    std::vector<std::string> texts;
    for (const auto& named : suite)
        texts.push_back(stg::write_astg_string(named.stg));

    const fs::path cache_dir =
        fs::temp_directory_path() /
        ("stgcc_bench_cache_" + std::to_string(::getpid()));
    fs::remove_all(cache_dir);
    const cache::ResultCache rcache(cache_dir.string());

    std::size_t cold_hits = 0, warm_hits = 0;
    std::string cold_verdicts, warm_verdicts;
    const double cold =
        run_corpus(suite, texts, rcache, cold_hits, cold_verdicts);
    const double warm =
        run_corpus(suite, texts, rcache, warm_hits, warm_verdicts);
    fs::remove_all(cache_dir);

    const double speedup = warm > 0 ? cold / warm : 0;
    std::printf("Result cache, Table 1 corpus (%zu models)\n", suite.size());
    benchutil::rule(72);
    std::printf("  cold run: %8.3f s  (%zu hits)\n", cold, cold_hits);
    std::printf("  warm run: %8.3f s  (%zu hits)\n", warm, warm_hits);
    std::printf("  speedup:  %8.1fx %s\n\n", speedup,
                cold_verdicts == warm_verdicts ? "" : "  VERDICT MISMATCH");
    report.add_row(obs::Json::object()
                       .set("benchmark", "result_cache_corpus")
                       .set("models", suite.size())
                       .set("cold_seconds", cold)
                       .set("warm_seconds", warm)
                       .set("warm_hits", warm_hits)
                       .set("speedup", speedup)
                       .set("verdicts_identical",
                            cold_verdicts == warm_verdicts));

    // --- tier 2: clause replay along the pipeline's checks ---------------
    std::printf("Learned-clause store, USC -> CSC -> normalcy on one checker "
                "(exhaustive conflict-free searches)\n");
    benchutil::rule(72);
    std::printf("  %-24s %14s %14s %10s\n", "model", "nodes(off)",
                "nodes(on)", "reduction");
    std::vector<stg::bench::NamedBenchmark> cf_models;
    for (const auto& named : suite) {
        core::UnfoldingChecker probe(named.stg);
        core::SearchOptions off;
        off.use_learned_clauses = false;
        if (probe.check_usc(off).holds) cf_models.push_back(named);
    }
    struct Sequence {
        std::size_t nodes = 0;
        std::vector<bool> verdicts;
    };
    const auto run_sequence = [](const stg::Stg& stg, core::SearchOptions opts) {
        core::UnfoldingChecker checker(stg);
        const auto usc = checker.check_usc(opts);
        const auto csc = checker.check_csc(opts);
        const auto normalcy = checker.check_normalcy(opts);
        return Sequence{usc.stats.search_nodes + csc.stats.search_nodes +
                            normalcy.stats.search_nodes,
                        {usc.holds, csc.holds, normalcy.normal}};
    };
    for (const auto& named : cf_models) {
        core::SearchOptions off;
        off.use_learned_clauses = false;
        const Sequence r_off = run_sequence(named.stg, off);
        const Sequence r_on = run_sequence(named.stg, {});
        const bool same = r_off.verdicts == r_on.verdicts;
        const double reduction =
            r_off.nodes > 0 ? 1.0 - static_cast<double>(r_on.nodes) /
                                        static_cast<double>(r_off.nodes)
                            : 0.0;
        std::printf("  %-24s %14zu %14zu %9.1f%%%s\n", named.name.c_str(),
                    r_off.nodes, r_on.nodes, 100.0 * reduction,
                    same ? "" : "  VERDICT MISMATCH");
        report.add_row(obs::Json::object()
                           .set("benchmark", "clause_store_pipeline")
                           .set("model", named.name)
                           .set("nodes_off", r_off.nodes)
                           .set("nodes_on", r_on.nodes)
                           .set("node_reduction", reduction)
                           .set("verdicts_identical", same));
    }

    // --- tier 2 certificates: USC -> CSC handoff --------------------------
    std::printf("\nUSC->CSC certificate (clean USC pass answers CSC)\n");
    benchutil::rule(72);
    for (const auto& named : cf_models) {
        core::UnfoldingChecker checker(named.stg);
        const auto usc = checker.check_usc();
        const auto csc = checker.check_csc();
        std::printf("  %-24s USC %s -> CSC %s in %zu nodes\n",
                    named.name.c_str(), usc.holds ? "holds" : "violated",
                    csc.holds ? "holds" : "violated",
                    csc.stats.search_nodes);
        report.add_row(obs::Json::object()
                           .set("benchmark", "usc_csc_certificate")
                           .set("model", named.name)
                           .set("csc_nodes_after_usc", csc.stats.search_nodes));
    }

    std::printf("\n");
    report.write();
    return 0;
}
