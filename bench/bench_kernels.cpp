// CompatSolver kernel microbench: the three costs a search node or leaf is
// made of, on the two exhaustive Table 1 rows that dominate the search.
//
//  * assign_undo   -- one CompatKernel::assign() (Theorem 1 closure plus
//    interval propagation) and the undo_to() that retracts it, cycling over
//    every variable and value of both sides.  The state underneath is the
//    first-difference root of the middle index d = q/2, reached by the
//    solver's own outer-loop assignment.
//  * branch_select -- one CompatKernel::next_unassigned() word scan, on the
//    state halfway down a greedy descent (the lowest unassigned variable
//    sits mid-vector, so the scan crosses words).
//  * leaf_usc / leaf_csc / leaf_normalcy -- one leaf predicate of each
//    check (core::LeafPredicates: place sets, then the marking, Out-set or
//    Nxt comparison), cycling over the
//    first kLeaves leaves of a real search (Equal relation; LessEq for
//    normalcy).
//
// Prints a ns/op table, writes BENCH_kernels.json, then runs the same
// operations as Google Benchmark loops (skip those with
// --benchmark_filter=NONE).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "core/checkers.hpp"
#include "stg/benchmarks.hpp"
#include "util/stopwatch.hpp"

using namespace stgcc;

namespace {

constexpr std::size_t kLeaves = 256;

struct Op {
    std::string name;
    std::function<std::size_t()> run;  ///< one operation; returns its result
};

/// Everything one model's operations read: artifacts, a kernel parked in
/// the measured state, and a sample of leaves.
struct Fixture {
    std::string model;
    stg::Stg stg;
    std::unique_ptr<cache::PrefixArtifacts> artifacts;
    core::CompatKernel root, deep;  ///< assign_undo / branch_select states
    std::vector<core::VarRef> vars;
    std::vector<std::pair<BitVec, BitVec>> equal_leaves, less_eq_leaves;
    std::vector<stg::SignalId> outputs;
    std::unique_ptr<core::LeafPredicates> leaf;
    std::size_t next = 0;  ///< rotates through variables and leaves

    Fixture(std::string name, stg::Stg model)
        : model(std::move(name)), stg(std::move(model)) {
        artifacts = std::make_unique<cache::PrefixArtifacts>(stg);
        const core::CodingProblem& problem = artifacts->problem();
        const std::size_t q = problem.size();
        const bool cf = problem.dynamically_conflict_free();
        outputs = stg.circuit_driven_signals();
        leaf = std::make_unique<core::LeafPredicates>(*artifacts);

        root.reset(problem, core::CodeRelation::Equal, cf);
        root.set_first_diff(q / 2);
        (void)root.assign(0, q / 2, 0);
        (void)root.assign(1, q / 2, 1);
        for (std::uint32_t i = 0; i < q; ++i)
            for (std::uint8_t s = 0; s < 2; ++s) vars.push_back({s, i});

        // Greedy descent below the first-difference root of d = 0, stopped
        // halfway to its leaf.
        deep.reset(problem, core::CodeRelation::Equal, cf);
        (void)deep.assign(0, 0, 0);
        (void)deep.assign(1, 0, 1);
        std::vector<std::size_t> path;
        while (true) {
            int side = 0;
            std::size_t idx = 0;
            if (!deep.next_unassigned(side, idx)) break;
            const std::size_t mark = deep.mark();
            path.push_back(mark);
            if (!deep.assign(side, idx, 0)) {
                deep.undo_to(mark);
                if (!deep.assign(side, idx, 1)) break;
            }
        }
        if (!path.empty()) deep.undo_to(path[path.size() / 2]);

        equal_leaves = sample_leaves(core::CodeRelation::Equal);
        less_eq_leaves = sample_leaves(core::CodeRelation::LessEq);
    }

    std::vector<std::pair<BitVec, BitVec>> sample_leaves(
        core::CodeRelation relation) const {
        std::vector<std::pair<BitVec, BitVec>> out;
        core::CompatSolver solver(artifacts->problem());
        (void)solver.solve(relation, [&](const BitVec& ca, const BitVec& cb) {
            out.emplace_back(ca, cb);
            return out.size() >= kLeaves;
        });
        return out;
    }

    std::vector<Op> ops() {
        std::vector<Op> out;
        out.push_back({"assign_undo", [this] {
                           // Every variable with value 0, then with 1.
                           const std::size_t k = next++;
                           const core::VarRef v = vars[k % vars.size()];
                           const int value = static_cast<int>((k / vars.size()) & 1);
                           const std::size_t mark = root.mark();
                           const bool ok = root.assign(v.side, v.idx, value);
                           root.undo_to(mark);
                           return static_cast<std::size_t>(ok);
                       }});
        out.push_back({"branch_select", [this] {
                           std::size_t idx = 0;
                           int side = 0;
                           const bool open = deep.next_unassigned(side, idx);
                           return open ? idx : SIZE_MAX;
                       }});
        auto leaf_op = [this](auto&& predicate, bool less_eq) {
            return [this, predicate, less_eq] {
                const auto& leaves = less_eq ? less_eq_leaves : equal_leaves;
                const auto& [ca, cb] = leaves[next++ % leaves.size()];
                return static_cast<std::size_t>(predicate(ca, cb));
            };
        };
        out.push_back({"leaf_usc", leaf_op(
                                       [this](const BitVec& ca, const BitVec& cb) {
                                           leaf->load(ca, cb);
                                           return leaf->markings_differ();
                                       },
                                       false)});
        out.push_back({"leaf_csc", leaf_op(
                                       [this](const BitVec& ca, const BitVec& cb) {
                                           leaf->load(ca, cb);
                                           return leaf->out_sets_differ(outputs);
                                       },
                                       false)});
        out.push_back({"leaf_normalcy",
                       leaf_op(
                           [this](const BitVec& ca, const BitVec& cb) {
                               leaf->load_with_codes(ca, cb);
                               std::size_t flips = 0;
                               for (const stg::SignalId z : outputs)
                                   flips += leaf->nxt(0, z) != leaf->nxt(1, z);
                               return flips > 0;
                           },
                           true)});
        return out;
    }
};

/// Nanoseconds per call of `op`, timed over at least 0.2 s.
double ns_per_op(const std::function<std::size_t()>& op) {
    std::size_t n = 1024;
    while (true) {
        Stopwatch timer;
        for (std::size_t i = 0; i < n; ++i) benchmark::DoNotOptimize(op());
        const double s = timer.seconds();
        if (s >= 0.2) return s * 1e9 / static_cast<double>(n);
        n *= 2;
    }
}

std::vector<std::unique_ptr<Fixture>>& fixtures() {
    static std::vector<std::unique_ptr<Fixture>> all;
    return all;
}

void BM_Op(benchmark::State& state, std::function<std::size_t()> op) {
    for (auto _ : state) benchmark::DoNotOptimize(op());
}

}  // namespace

int main(int argc, char** argv) {
    fixtures().push_back(std::make_unique<Fixture>(
        "CF-ASYM-B-CSC", stg::bench::counterflow(7, false)));
    fixtures().push_back(std::make_unique<Fixture>(
        "CF-SYM-D-CSC", stg::bench::counterflow(5, true)));

    benchutil::BenchReport report("kernels");
    std::printf("CompatSolver kernel operations (ns per op)\n");
    benchutil::rule(72);
    std::printf("  %-16s %6s %16s %12s\n", "model", "q", "op", "ns/op");
    for (auto& fx : fixtures()) {
        const std::size_t q = fx->artifacts->problem().size();
        for (const Op& op : fx->ops()) {
            const double ns = ns_per_op(op.run);
            std::printf("  %-16s %6zu %16s %12.1f\n", fx->model.c_str(), q,
                        op.name.c_str(), ns);
            report.add_row(obs::Json::object()
                               .set("benchmark", "kernel_op")
                               .set("model", fx->model)
                               .set("q", q)
                               .set("op", op.name)
                               .set("ns_per_op", ns));
            benchmark::RegisterBenchmark((op.name + "/" + fx->model).c_str(),
                                         BM_Op, op.run);
        }
    }
    std::printf("\n");
    report.write();

    std::fflush(stdout);  // keep table output ordered before gbench
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
