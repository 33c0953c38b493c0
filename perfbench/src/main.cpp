// stgcc perfbench -- command-line entry point.
//
//   stgcc_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   --models-dir DIR --work-dir DIR [--trace-out FILE]
//
// Prints one line per metric, then, as the last line of standard output,
// one JSON object {"correct", "attempted", "failed", "metrics"}.  Exit 0
// after a completed run (even with failed checks, which the JSON reports),
// 2 on bad usage or a run that could not be set up.
#include <charconv>
#include <cmath>
#include <iostream>
#include <string>

#include "harness.hpp"

namespace {

/// Shortest text that reads back as exactly `v`.
std::string number(double v) {
    if (!std::isfinite(v)) v = 0.0;
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

int usage(const std::string& why) {
    std::cerr << "stgcc_perfbench: " << why
              << "\nusage: stgcc_perfbench --workload exhaustive_search|"
                 "conflict_detect|warm_recheck --seed N --seconds S "
                 "--trace 0|1 --models-dir DIR --work-dir DIR "
                 "[--trace-out FILE]\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    perfbench::RunConfig cfg;
    bool have_workload = false;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (i + 1 >= argc) return usage("missing value for " + arg);
            const std::string value = argv[++i];
            if (arg == "--workload") {
                const auto w = perfbench::parse_workload(value);
                if (!w) return usage("unknown workload " + value);
                cfg.workload = *w;
                have_workload = true;
            } else if (arg == "--seed") {
                cfg.seed = std::stoull(value);
            } else if (arg == "--seconds") {
                cfg.seconds = std::stod(value);
            } else if (arg == "--trace") {
                if (value != "0" && value != "1")
                    return usage("--trace takes 0 or 1");
                cfg.trace = value == "1";
            } else if (arg == "--models-dir") {
                cfg.models_dir = value;
            } else if (arg == "--work-dir") {
                cfg.work_dir = value;
            } else if (arg == "--trace-out") {
                cfg.trace_out = value;
            } else {
                return usage("unknown option " + arg);
            }
        }
    } catch (const std::exception&) {
        return usage("bad number");
    }
    if (!have_workload) return usage("--workload is required");
    if (cfg.work_dir.empty()) return usage("--work-dir is required");

    perfbench::RunResult res;
    try {
        res = perfbench::run(cfg);
    } catch (const std::exception& e) {
        std::cerr << "stgcc_perfbench: " << e.what() << "\n";
        return 2;
    }

    for (const std::string& note : res.notes) std::cout << "# " << note << "\n";
    for (const std::string& f : res.failures)
        std::cout << "# FAILED " << f << "\n";
    std::cout << "# failed_share = " << res.failed << "/" << res.attempted
              << " checks\n";
    for (const perfbench::Metric& m : res.metrics)
        std::cout << m.name << " = " << number(m.value) << " " << m.unit
                  << "  (" << m.note << ")\n";

    std::string json = std::string("{\"correct\": ") +
                       (res.failed == 0 && res.attempted > 0 ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(res.attempted) +
                       ", \"failed\": " + std::to_string(res.failed) +
                       ", \"metrics\": {";
    for (std::size_t i = 0; i < res.metrics.size(); ++i) {
        const perfbench::Metric& m = res.metrics[i];
        json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
                number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    std::cout << json << "}}" << std::endl;
    return 0;
}
