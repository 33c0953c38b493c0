#include "inputs.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "stg/astg.hpp"
#include "stg/benchmarks.hpp"
#include "stg/builder.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using stgcc::stg::Stg;
namespace bench = stgcc::stg::bench;

Stg random_stg(unsigned seed, bool dummies) {
    constexpr int kMachines = 3;
    constexpr int kSignalsPerMachine = 3;
    constexpr int kPlacesPerMachine = 14;
    constexpr double kBranchProbability = 0.35;
    constexpr int kSyncTransitions = 2;
    const double dummy_probability = dummies ? 0.3 : 0.0;
    std::mt19937 rng(seed);
    stgcc::stg::StgBuilder b("random-" + std::to_string(seed));
    auto coin = [&](double p) {
        return std::uniform_real_distribution<>(0.0, 1.0)(rng) < p;
    };

    struct PlaceInfo {
        std::string name;
        unsigned code;
    };
    std::vector<std::vector<PlaceInfo>> machine_places(kMachines);
    std::vector<std::vector<std::string>> machine_signals(kMachines);

    for (int m = 0; m < kMachines; ++m) {
        // Built with append(): "m" + std::to_string(m) trips a GCC 12
        // -Wrestrict false positive.
        const std::string mp = std::string("m").append(std::to_string(m)) + "_";
        std::vector<std::string>& signals = machine_signals[m];
        for (int z = 0; z < kSignalsPerMachine; ++z) {
            const std::string name = mp + "s" + std::to_string(z);
            if (coin(0.5))
                b.input(name);
            else
                b.output(name);
            signals.push_back(name);
        }
        // Places carry component codes; edges toggle one signal.
        std::vector<PlaceInfo>& places = machine_places[m];
        auto add_place = [&](unsigned code) {
            const std::string name = mp + "p" + std::to_string(places.size());
            b.place(name, places.empty() ? 1 : 0);
            places.push_back({name, code});
            return places.size() - 1;
        };
        add_place(0u);
        int edge_counter = 0;
        int dummy_counter = 0;
        for (std::size_t p = 0; p < places.size(); ++p) {
            const int out_edges = 1 + (coin(kBranchProbability) ? 1 : 0);
            for (int e = 0; e < out_edges; ++e) {
                const int z = std::uniform_int_distribution<>(
                    0, kSignalsPerMachine - 1)(rng);
                const unsigned target_code = places[p].code ^ (1u << z);
                // Reuse an existing place with the right code, or grow.
                std::size_t target = places.size();
                std::vector<std::size_t> candidates;
                for (std::size_t q = 0; q < places.size(); ++q)
                    if (places[q].code == target_code) candidates.push_back(q);
                const bool may_grow =
                    places.size() <
                    static_cast<std::size_t>(kPlacesPerMachine);
                if (!candidates.empty() && (!may_grow || coin(0.6))) {
                    target = candidates[std::uniform_int_distribution<
                        std::size_t>(0, candidates.size() - 1)(rng)];
                } else if (may_grow) {
                    target = add_place(target_code);
                } else {
                    continue;  // cannot close consistently; skip this edge
                }
                const bool rising = ((places[p].code >> z) & 1u) == 0;
                const std::string label =
                    signals[static_cast<std::size_t>(z)] +
                    (rising ? "+" : "-") + "/" +
                    std::to_string(edge_counter++);
                b.arc(places[p].name, label);
                if (coin(dummy_probability)) {
                    // label -> mid -> tau -> target; `mid` stays out of the
                    // reuse pool so the dummy remains its only consumer.
                    const std::string mid =
                        mp + "mid" + std::to_string(dummy_counter);
                    const std::string tau =
                        mp + "tau" + std::to_string(dummy_counter++);
                    b.place(mid, 0).dummy(tau);
                    b.arc(label, mid).arc(mid, tau);
                    b.arc(tau, places[target].name);
                } else {
                    b.arc(label, places[target].name);
                }
            }
        }
    }

    // Cross-machine synchronisation: consume a place of machine A and one
    // of B, toggle a signal of A, produce code-compatible successors.
    int added_syncs = 0;
    for (int attempt = 0;
         attempt < kSyncTransitions * 10 && added_syncs < kSyncTransitions;
         ++attempt) {
        const int ma =
            std::uniform_int_distribution<>(0, kMachines - 1)(rng);
        int mb = std::uniform_int_distribution<>(0, kMachines - 2)(rng);
        if (mb >= ma) ++mb;
        auto& pa = machine_places[ma];
        auto& pb = machine_places[mb];
        const std::size_t ia =
            std::uniform_int_distribution<std::size_t>(0, pa.size() - 1)(rng);
        const std::size_t ib =
            std::uniform_int_distribution<std::size_t>(0, pb.size() - 1)(rng);
        const int z = std::uniform_int_distribution<>(
            0, kSignalsPerMachine - 1)(rng);
        const unsigned target_code = pa[ia].code ^ (1u << z);
        std::vector<std::size_t> a_targets;
        for (std::size_t q = 0; q < pa.size(); ++q)
            if (pa[q].code == target_code) a_targets.push_back(q);
        if (a_targets.empty()) continue;
        const std::size_t qa =
            a_targets[std::uniform_int_distribution<std::size_t>(
                0, a_targets.size() - 1)(rng)];
        std::vector<std::size_t> b_targets;
        for (std::size_t q = 0; q < pb.size(); ++q)
            if (pb[q].code == pb[ib].code) b_targets.push_back(q);
        const std::size_t qb =
            b_targets[std::uniform_int_distribution<std::size_t>(
                0, b_targets.size() - 1)(rng)];
        const bool rising = ((pa[ia].code >> z) & 1u) == 0;
        const std::string label =
            machine_signals[ma][static_cast<std::size_t>(z)] +
            (rising ? "+" : "-") + "/" + std::to_string(900000 + added_syncs);
        b.arc(pa[ia].name, label);
        b.arc(pb[ib].name, label);
        b.arc(label, pa[qa].name);
        b.arc(label, pb[qb].name);
        ++added_syncs;
    }
    return b.build();
}

std::vector<int> jittered_sweep(std::mt19937_64& rng, int lo, int hi, int k,
                                int jitter) {
    if (k < 2 || jitter < 0 || hi - jitter - lo < k - 1)
        throw std::invalid_argument("jittered_sweep: bad range");
    std::vector<int> out;
    for (int i = 0; i < k; ++i)
        out.push_back(lo + i * (hi - jitter - lo) / (k - 1) +
                      std::uniform_int_distribution<int>(0, jitter)(rng));
    return out;
}

std::string respell(const std::string& astg, double fraction) {
    std::istringstream in(astg);
    std::vector<std::string> head, graph, tail;
    enum { Head, Graph, Tail } part = Head;
    for (std::string line; std::getline(in, line);) {
        if (part == Graph && !line.empty() && line[0] == '.') part = Tail;
        (part == Head ? head : part == Graph ? graph : tail).push_back(line);
        if (part == Head && line == ".graph") part = Graph;
    }
    if (graph.size() >= 2) {
        const auto n = static_cast<double>(graph.size() - 1);
        const auto by = 1 + std::min(static_cast<std::ptrdiff_t>(fraction * n),
                                     static_cast<std::ptrdiff_t>(n) - 1);
        std::rotate(graph.begin(), graph.begin() + by, graph.end());
    }
    std::string out;
    for (const auto* lines : {&head, &graph, &tail})
        for (const std::string& line : *lines) out += line + "\n";
    return out;
}

namespace {

Model from_stg(const Stg& stg) {
    std::string text = stgcc::stg::write_astg_string(stg);
    return {stg.name(), text, text};
}

/// models/*.g in name order, keeping those whose CF-row membership is
/// `cf_rows` (file names starting with "cf_").
std::vector<Model> corpus_rows(const std::string& dir, bool cf_rows) {
    std::vector<fs::path> files;
    for (const auto& entry : fs::directory_iterator(dir))
        if (entry.path().extension() == ".g" &&
            (entry.path().filename().string().rfind("cf_", 0) == 0) == cf_rows)
            files.push_back(entry.path());
    std::sort(files.begin(), files.end());
    std::vector<Model> out;
    for (const fs::path& f : files) {
        std::ifstream in(f);
        std::ostringstream text;
        text << in.rdbuf();
        if (!in) throw std::runtime_error("cannot read " + f.string());
        out.push_back({f.stem().string(), text.str(), text.str()});
    }
    return out;
}

}  // namespace

std::vector<Model> exhaustive_models(const std::string& models_dir,
                                     std::uint64_t seed) {
    std::vector<Model> out = corpus_rows(models_dir, true);
    if (out.size() != 6)
        throw std::runtime_error("expected the six CF-*-CSC rows in " +
                                 models_dir);
    // Exponential families take a fixed sweep: one more stage or client
    // doubles a check's cost, so a seeded size would make the medians
    // depend on the seed.  counterflow(5, *) is CF-SYM-D / CF-ASYM-A,
    // already among the rows.
    for (int stages = 2; stages <= 4; ++stages)
        for (bool symmetric : {false, true})
            out.push_back(from_stg(bench::counterflow(stages, symmetric)));
    for (int n : {4, 6, 8, 10}) out.push_back(from_stg(bench::muller_pipeline(n)));
    for (int n : {2, 4, 6}) out.push_back(from_stg(bench::mutex_arbiter(n)));
    for (int n : {2, 3, 4, 5})
        out.push_back(from_stg(bench::parallel_handshakes(n)));
    // USC fails but CSC holds: the per-signal CSC fan-out must exhaust.
    // Fixed too: the cost grows as n^3.9, and the larger instances set the
    // 90th percentile.
    for (int n : {12, 17, 22, 27, 32})
        out.push_back(from_stg(bench::sequential_handshakes(n)));
    std::mt19937_64 rng(seed);
    for (int n : jittered_sweep(rng, 4, 16, 4, 2))
        out.push_back(from_stg(bench::johnson_counter(n)));
    return out;
}

std::vector<Model> conflict_models(const std::string& models_dir,
                                   std::uint64_t seed) {
    std::vector<Model> out = corpus_rows(models_dir, false);
    if (out.size() != 16)
        throw std::runtime_error("expected the 16 non-CF rows in " +
                                 models_dir);
    // Few seeded instances, all costlier than the rows, so that the median
    // check is one of the rows whatever the seed.  The three largest are
    // envelopes of 208-256 rounds: the 90th percentile sits on the third,
    // and a check that long varies less from pass to pass than a shorter one.
    std::mt19937_64 rng(seed ^ 0xc0f1c7u);
    const std::vector<int> bits = jittered_sweep(rng, 32, 128, 2, 4);
    for (std::size_t i = 0; i < bits.size(); ++i)
        out.push_back(from_stg(bench::duplex_channel(bits[i], false, i % 2)));
    std::vector<int> rounds = jittered_sweep(rng, 64, 160, 2, 4);
    for (int r : jittered_sweep(rng, 208, 256, 3, 4)) rounds.push_back(r);
    for (int r : rounds) out.push_back(from_stg(bench::phase_envelope(r)));
    for (int stations : jittered_sweep(rng, 8, 24, 2, 2))
        out.push_back(from_stg(bench::token_ring(stations)));
    for (int i = 0; i < 2; ++i) {
        const auto net_seed = static_cast<unsigned>(rng());
        Model m = from_stg(random_stg(net_seed, true));
        m.oracle_text = stgcc::stg::write_astg_string(random_stg(net_seed, false));
        out.push_back(std::move(m));
    }
    return out;
}

}  // namespace perfbench
