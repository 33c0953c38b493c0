// Pinned search counts: the number of search nodes and leaves of the USC,
// CSC and normalcy searches of every model in models/, at --jobs 1.
//
// Node and leaf counts are machine-independent and fixed by the search
// rules alone (branching order, Theorem 1 closure, interval pruning), not by
// how the closure is computed -- so a change to the CompatSolver kernel that
// moves any of them changed the search, not just its speed.  Propagation
// counts are deliberately not pinned: on an assignment that fails they
// depend on the order in which the closure notices the contradiction.
//
// The CSC counts are zero wherever USC holds or the USC witness's Out sets
// differ: the remembered USC result then settles CSC without a search (the
// witness is then the first CSC pair too, as on envelope2, lazyring, ring
// and vme).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>

#include "core/verifier.hpp"
#include "stg/astg.hpp"

namespace stgcc {
namespace {

struct Counts {
    std::size_t nodes;
    std::size_t leaves;
};

struct Pinned {
    const char* model;
    Counts usc, csc, normalcy;
};

void PrintTo(const Pinned& p, std::ostream* os) { *os << p.model; }

constexpr Pinned kPinned[] = {
    {"cf_asym_a_csc", {11282, 2036}, {0, 0}, {18507, 9130}},
    {"cf_asym_b_csc", {194492, 23570}, {0, 0}, {168478, 83466}},
    {"cf_sym_a_csc", {185, 67}, {0, 0}, {712, 356}},
    {"cf_sym_b_csc", {1781, 398}, {0, 0}, {4416, 2182}},
    {"cf_sym_c_csc", {13742, 2224}, {0, 0}, {18120, 9001}},
    {"cf_sym_d_csc", {104096, 11864}, {0, 0}, {92658, 46016}},
    {"dup_4ph_a", {2, 1}, {4, 2}, {194, 99}},
    {"dup_4ph_b", {2, 1}, {4, 2}, {664, 347}},
    {"dup_4ph_mtr_a", {2, 1}, {4, 2}, {303, 154}},
    {"dup_4ph_mtr_b", {2, 1}, {4, 2}, {946, 491}},
    {"dup_mod_a", {2, 1}, {4, 2}, {1088, 565}},
    {"dup_mod_b", {2, 1}, {4, 2}, {1450, 749}},
    {"dup_mod_c", {2, 1}, {4, 2}, {2034, 1047}},
    {"envelope2", {2, 1}, {0, 0}, {244, 123}},
    {"johnson4", {0, 0}, {0, 0}, {31, 19}},
    {"lazyring", {2, 1}, {0, 0}, {96, 56}},
    {"muller4", {11, 0}, {0, 0}, {298, 140}},
    {"par4", {0, 0}, {0, 0}, {8406, 4209}},
    {"ring", {2, 1}, {0, 0}, {414, 224}},
    {"seq4", {2, 1}, {9, 6}, {115, 68}},
    {"vme", {3, 3}, {0, 0}, {146, 81}},
    {"vme_csc", {2, 2}, {0, 0}, {209, 114}},
};

class SearchCountsTest : public ::testing::TestWithParam<Pinned> {};

TEST_P(SearchCountsTest, NodesAndLeavesMatchPinnedValues) {
    const Pinned& pin = GetParam();
    const auto model = stg::load_astg_file(std::string(STGCC_MODELS_DIR) + "/" +
                                           pin.model + ".g");
    core::VerifyOptions opts;
    opts.jobs = 1;
    const auto report = core::verify_stg(model, opts);
    ASSERT_TRUE(report.consistent);
    EXPECT_EQ(report.usc.stats.search_nodes, pin.usc.nodes) << "USC nodes";
    EXPECT_EQ(report.usc.stats.leaves, pin.usc.leaves) << "USC leaves";
    EXPECT_EQ(report.csc.stats.search_nodes, pin.csc.nodes) << "CSC nodes";
    EXPECT_EQ(report.csc.stats.leaves, pin.csc.leaves) << "CSC leaves";
    EXPECT_EQ(report.normalcy.stats.search_nodes, pin.normalcy.nodes)
        << "normalcy nodes";
    EXPECT_EQ(report.normalcy.stats.leaves, pin.normalcy.leaves)
        << "normalcy leaves";
}

TEST(SearchCounts, EveryModelIsPinned) {
    std::error_code ec;
    for (const auto& entry :
         std::filesystem::directory_iterator(STGCC_MODELS_DIR, ec)) {
        if (entry.path().extension() != ".g") continue;
        const std::string stem = entry.path().stem().string();
        EXPECT_TRUE(std::any_of(std::begin(kPinned), std::end(kPinned),
                                [&](const Pinned& p) { return stem == p.model; }))
            << stem << " has no pinned search counts";
    }
    EXPECT_FALSE(ec) << ec.message();
}

INSTANTIATE_TEST_SUITE_P(Models, SearchCountsTest, ::testing::ValuesIn(kPinned),
                         [](const ::testing::TestParamInfo<Pinned>& info) {
                             return std::string(info.param.model);
                         });

}  // namespace
}  // namespace stgcc
