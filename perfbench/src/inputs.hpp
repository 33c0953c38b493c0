// stgcc perfbench -- seeded workload inputs.
//
// Every workload is a list of models handed to the program as ASTG text.
// The fixed Table 1 rows come from models/; everything else is drawn from
// the seed by the generators below, which live here (not in tests/) so that
// editing a test cannot change a workload.
#pragma once

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "stg/stg.hpp"

namespace perfbench {

/// One model of a workload.
struct Model {
    std::string name;
    std::string text;  ///< ASTG handed to the program
    /// ASTG of the net the state-graph oracle judges: the dummy-free twin
    /// of a dummy-carrying random net, otherwise equal to `text`.
    std::string oracle_text;
};

/// A consistent and safe STG by construction: three state-machine
/// components of up to 14 places, each owning three signals, joined by two
/// synchronising transitions; the places carry fixed codes.  With `dummies`,
/// about 30% of the edges get a type-1 securely contractable dummy spliced
/// in.  The generator draws the same random numbers either way, so the
/// same seed without dummies yields exactly the net that contraction
/// recovers.
[[nodiscard]] stgcc::stg::Stg random_stg(unsigned seed, bool dummies);

/// `k` sizes spread evenly over [lo, hi]: point i is
/// lo + i * (hi - jitter - lo) / (k - 1) plus a seeded offset in
/// [0, jitter].  A narrow jitter gives every seed its own instances while
/// keeping the workload's cost, and the rank of each instance in it, nearly
/// independent of the seed.
[[nodiscard]] std::vector<int> jittered_sweep(std::mt19937_64& rng, int lo,
                                              int hi, int k, int jitter);

/// The same net spelled differently: the `.graph` lines rotated by
/// 1 + floor(fraction * (lines - 1)) for `fraction` in [0, 1), so
/// transition and place ids change but the net does not, and the text
/// always differs when there are two or more graph lines.
[[nodiscard]] std::string respell(const std::string& astg, double fraction);

/// exhaustive_search: the six CF-*-CSC rows plus a seeded draw of
/// conflict-free or CSC-holding family instances.
[[nodiscard]] std::vector<Model> exhaustive_models(
    const std::string& models_dir, std::uint64_t seed);

/// conflict_detect: the 16 non-CF rows plus seeded large conflict-carrying
/// family instances and 3-machine random nets with contractable dummies.
[[nodiscard]] std::vector<Model> conflict_models(const std::string& models_dir,
                                                 std::uint64_t seed);

}  // namespace perfbench
