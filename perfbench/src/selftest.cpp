// stgcc perfbench -- self-tests of the harness.
//
//   perfbench_selftest MODELS_DIR WORK_DIR
//
// Checks the percentile rule, that every printed ratio comes with its base,
// the cache state each cached workload claims, and that a wrong oracle
// answer is counted as a failed check.  Exit 0 when all pass.
#include <algorithm>
#include <iostream>
#include <string>

#include "harness.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
    std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
    if (!ok) ++failures;
}

/// A short run: one pass after the set-up, however fast.
perfbench::RunResult short_run(perfbench::Workload w, bool trace,
                               const std::string& models,
                               const std::string& work, bool inject = false) {
    perfbench::RunConfig cfg;
    cfg.workload = w;
    cfg.seed = 7;
    cfg.seconds = 0.0;
    cfg.trace = trace;
    cfg.models_dir = models;
    cfg.work_dir = work;
    cfg.min_serial_checks = 1;
    cfg.setups = 1;
    cfg.inject_oracle_fault = inject;
    return perfbench::run(cfg);
}

void percentile_rule() {
    bool ok = true;
    for (std::size_t n = 100; n <= 5000; ++n) {
        const std::size_t p90 = perfbench::nearest_rank(n, 90);
        ok = ok && p90 < n && n - 1 - p90 >= 10;
    }
    expect(ok, "nearest-rank p90 of >= 100 samples leaves >= 10 beyond it");
    expect(perfbench::nearest_rank(100, 50) == 49 &&
               perfbench::nearest_rank(101, 50) == 50 &&
               perfbench::nearest_rank(100, 90) == 89,
           "nearest-rank indices of known sizes");
}

void traced_cache_state(perfbench::Workload w, double want_ratio,
                        const std::string& models, const std::string& work) {
    const perfbench::RunResult res = short_run(w, true, models, work);
    const std::string name(perfbench::workload_name(w));
    expect(res.failed == 0 && res.attempted > 0,
           name + ": traced run has no failed check");
    const perfbench::Metric* hit = res.find("cache.result.hit_ratio");
    expect(hit && hit->value == want_ratio,
           name + ": cache.result.hit_ratio is " + std::to_string(want_ratio));
    bool based = true;
    for (const auto& [ratio, bases] : perfbench::ratio_bases()) {
        based = based && res.find(ratio) != nullptr;
        for (const std::string& b : bases) based = based && res.find(b) != nullptr;
    }
    expect(based, name + ": every ratio is printed with its base");
}

void injected_fault(const std::string& models, const std::string& work) {
    const perfbench::RunResult res = short_run(
        perfbench::Workload::ConflictDetect, false, models, work, true);
    const bool named = std::any_of(
        res.failures.begin(), res.failures.end(), [](const std::string& f) {
            return f.find("USC verdict disagrees") != std::string::npos;
        });
    expect(res.failed > 0 && named,
           "a wrong oracle answer is counted as a failed check");
    // The faulty model is in every pass once; no pass may take its answer
    // as already validated.
    const perfbench::RunResult clean = short_run(
        perfbench::Workload::ConflictDetect, false, models, work);
    const std::size_t passes = clean.attempted / res.num_checks;
    expect(res.num_checks > 0 && clean.attempted == res.attempted &&
               res.failed == passes && passes >= 2,
           "the wrong answer is counted again in each of " +
               std::to_string(passes) + " passes");
}

}  // namespace

int main(int argc, char** argv) {
    if (argc != 3) {
        std::cerr << "usage: perfbench_selftest MODELS_DIR WORK_DIR\n";
        return 2;
    }
    const std::string models = argv[1], work = argv[2];
    percentile_rule();
    traced_cache_state(perfbench::Workload::ConflictDetect, 0.0, models, work);
    traced_cache_state(perfbench::Workload::WarmRecheck, 1.0, models, work);
    injected_fault(models, work);
    std::cout << (failures == 0 ? "all self-tests passed\n"
                                : std::to_string(failures) + " self-test(s) failed\n");
    return failures == 0 ? 0 : 1;
}
