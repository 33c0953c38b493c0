// stgcc perfbench -- the measurement harness.
//
// One run builds a workload from its seed, sets it up several times (model
// generation, pool creation, one untimed warm-up pass), builds the
// state-graph oracle once, and then measures serial and parallel passes
// through the public facade (core::verify_stg / core::verify_stg_cached,
// then core::format_report + core::report_json) for the requested number of
// seconds.  A traced run additionally replays the facade's pipeline call by
// call, timing each public call from outside, and reports per-layer
// numbers.  Every check is validated against the oracle; see README.md.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

enum class Workload { ExhaustiveSearch, ConflictDetect, WarmRecheck };

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] std::string_view workload_name(Workload w);

struct RunConfig {
    Workload workload = Workload::ExhaustiveSearch;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string models_dir = "models";
    /// Scratch directory for the result cache; must not hold anything else.
    std::string work_dir;
    /// Where the traced run writes its spans (JSON lines); empty = nowhere.
    std::string trace_out;
    /// Measuring continues past `seconds` until this many serial checks
    /// were timed, so the p90 always has at least ten samples beyond it.
    std::size_t min_serial_checks = 100;
    int setups = 5;
    /// Self-test hook: flip the USC verdict of the first model's oracle.
    bool inject_oracle_fault = false;
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::string note;  ///< sample count or ratio base, printed beside it
};

struct RunResult {
    std::size_t attempted = 0;  ///< checks run and validated
    std::size_t failed = 0;     ///< threw, disagreed, did not replay, ...
    std::size_t num_checks = 0; ///< checks per pass
    std::vector<std::string> failures;  ///< first few reasons
    std::vector<Metric> metrics;
    std::vector<std::string> notes;  ///< oracle time, workload claims

    [[nodiscard]] const Metric* find(std::string_view name) const;
};

[[nodiscard]] RunResult run(const RunConfig& cfg);

/// Zero-based index of the nearest-rank `percent` percentile of n sorted
/// samples: ceil(n * percent / 100) - 1, computed in integers.
[[nodiscard]] std::size_t nearest_rank(std::size_t n, unsigned percent);

/// Every ratio the traced run prints, with the metrics that are its base.
[[nodiscard]] const std::vector<std::pair<std::string, std::vector<std::string>>>&
ratio_bases();

}  // namespace perfbench
