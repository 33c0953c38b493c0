#include "harness.hpp"

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <stdexcept>

#include "cache/prefix_artifacts.hpp"
#include "cache/result_cache.hpp"
#include "core/checkers.hpp"
#include "core/report_codec.hpp"
#include "core/verifier.hpp"
#include "inputs.hpp"
#include "obs/metrics.hpp"
#include "sched/parallel.hpp"
#include "stg/astg.hpp"
#include "stg/reduce/reduce.hpp"
#include "stg/simulator.hpp"
#include "stg/state_checks.hpp"
#include "stg/state_graph.hpp"
#include "unfolding/unfolder.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using namespace stgcc;

/// Re-checks per warm_recheck pass.
constexpr std::size_t kWarmRechecks = 500;
/// Untimed parallel passes that peak_rss_mb is the median peak of.
constexpr int kMemoryPasses = 3;
/// At most this many failure reasons are kept for printing.
constexpr std::size_t kKeptFailures = 10;

double now_s() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// report_json without its volatile members -- wall-clock "seconds",
/// schedule-dependent "stats", "jobs" and "metrics" -- i.e. the surface
/// docs/PARALLELISM.md promises byte-stable across job counts.
void canonical_json(const obs::Json& j, std::string& out) {
    using Kind = obs::Json::Kind;
    switch (j.kind()) {
        case Kind::Object:
            out += '{';
            for (std::size_t i = 0; i < j.size(); ++i) {
                const auto& [key, value] = j.member(i);
                if (key == "seconds" || key == "stats" || key == "jobs" ||
                    key == "metrics")
                    continue;
                out += '"' + key + "\":";
                canonical_json(value, out);
                out += ',';
            }
            out += '}';
            break;
        case Kind::Array:
            out += '[';
            for (std::size_t i = 0; i < j.size(); ++i) {
                canonical_json(j.at(i), out);
                out += ',';
            }
            out += ']';
            break;
        default:
            out += j.dump();
    }
}

/// The verdicts of one model on its explicit state graph.
struct Oracle {
    std::shared_ptr<const stg::Stg> net;  ///< the net the state graph judged
    stg::Code initial_code;               ///< v0 on `net`
    bool usc = true;
    bool csc = true;
    stg::NormalcyResult normalcy;
};

/// One verification request: a model's index and the ASTG text sent.
struct Check {
    std::size_t model = 0;
    std::string text;
};

/// What a check returned.  The report keeps verdicts and witnesses only
/// (artifacts and the reduced net are released inside the timed call, as a
/// caller that keeps many reports does), so the harness's own memory stays
/// small next to peak_rss_mb.
struct Outcome {
    core::VerificationReport report;
    std::string text;                 ///< format_report
    obs::Json json;                   ///< report_json
    bool hit = false;                 ///< verdict came from the result cache
    std::string error;
    double seconds = 0.0;  ///< parse -> rendered report

    [[nodiscard]] std::string rendered() const {
        std::string out = text;
        canonical_json(json, out);
        return out;
    }
};

/// Search counts of one check kind, summed over a pass.
struct SearchCounts {
    std::size_t nodes = 0, leaves = 0, propagations = 0;
    void add(const stg::CheckStats& s) {
        nodes += s.search_nodes;
        leaves += s.leaves;
        propagations += s.propagations;
    }
};

/// Counts of one traced pass, taken from the returned reports and prefixes.
struct PassCounts {
    std::size_t transitions_removed = 0, places_removed = 0;
    std::size_t events = 0, conditions = 0, cutoffs = 0;
    std::size_t lookups = 0, hits = 0;
    SearchCounts usc, csc, normalcy;
};

/// The layers a traced check is split into, each one public call (or the
/// pair of calls named in README.md) timed from outside.
const std::vector<std::string> kLayers = {
    "stg.parse",          "stg.reduce",         "stg.hash",
    "cache.result.load",  "unfolding.unfold",   "cache.artifacts",
    "core.usc",           "core.csc",           "core.normalcy",
    "cache.result.store", "core.translate",     "core.render"};

/// In-memory span store of the traced run, written out when it ends.
class Tracer {
public:
    struct Span {
        std::string model;
        std::string layer;
        double start = 0.0, end = 0.0;
        std::ptrdiff_t parent = -1;
    };

    std::size_t open(std::string model, std::string layer,
                     std::ptrdiff_t parent) {
        spans_.push_back({std::move(model), std::move(layer), now_s(), 0.0,
                          parent});
        return spans_.size() - 1;
    }
    void close(std::size_t id) { spans_[id].end = now_s(); }

    /// Run f() inside a child span of `parent`, closed even when f throws.
    template <class F>
    decltype(auto) time(std::size_t parent, const char* layer, F&& f) {
        struct Closer {
            Tracer& t;
            std::size_t id;
            ~Closer() { t.close(id); }
        } closer{*this, open(spans_[parent].model, layer,
                             static_cast<std::ptrdiff_t>(parent))};
        return f();
    }

    [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

    void write(const std::string& path, std::string_view workload) const {
        std::ofstream out(path);
        const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            out << obs::Json::object()
                       .set("id", static_cast<std::int64_t>(i))
                       .set("workload", std::string(workload))
                       .set("model", s.model)
                       .set("layer", s.layer)
                       .set("start_s", s.start - t0)
                       .set("end_s", s.end - t0)
                       .set("parent", static_cast<std::int64_t>(s.parent))
                       .dump()
                << "\n";
        }
        if (!out) throw std::runtime_error("cannot write trace " + path);
    }

private:
    std::vector<Span> spans_;
};

std::string replay_state(const stg::Stg& in, const stg::Code& v0,
                         const std::vector<petri::TransitionId>& trace,
                         const petri::Marking& marking, const stg::Code& code) {
    stg::Simulator sim(in, v0);
    try {
        if (sim.replay(trace) != trace.size()) return "trace does not fire";
    } catch (const std::exception& e) {
        return std::string("trace is inconsistent: ") + e.what();
    }
    if (!(sim.marking() == marking))
        return "trace does not reach the claimed marking";
    if (!(sim.code() == code)) return "claimed code is not the code reached";
    return {};
}

std::string replay_conflict(const stg::Stg& in, const stg::Code& v0,
                            const stg::ConflictWitness& w, bool csc) {
    for (auto [trace, m, out] : {std::tie(w.trace1, w.m1, w.out1),
                                 std::tie(w.trace2, w.m2, w.out2)}) {
        if (std::string e = replay_state(in, v0, trace, m, w.code); !e.empty())
            return e;
        if (!(in.out_signals(m) == out))
            return "claimed Out set is not the one enabled";
    }
    if (w.m1 == w.m2) return "the two markings are equal";
    if (csc && w.out1 == w.out2) return "the two Out sets are equal";
    return {};
}

std::string replay_normalcy(const stg::Stg& in, const stg::Code& v0,
                            const stg::NormalcyWitness& w) {
    for (auto [trace, m, code, nxt] :
         {std::tie(w.trace1, w.m1, w.code1, w.nxt1),
          std::tie(w.trace2, w.m2, w.code2, w.nxt2)}) {
        if (std::string e = replay_state(in, v0, trace, m, code); !e.empty())
            return e;
        if (in.nxt(m, code, w.signal) != nxt)
            return "claimed Nxt is not the one reached";
    }
    if (!w.code1.subset_of(w.code2)) return "codes are not ordered";
    return {};
}

bool same(const stg::ConflictWitness& a, const stg::ConflictWitness& b) {
    return a.code == b.code && a.m1 == b.m1 && a.m2 == b.m2 &&
           a.out1 == b.out1 && a.out2 == b.out2 && a.trace1 == b.trace1 &&
           a.trace2 == b.trace2;
}

bool same(const stg::NormalcyWitness& a, const stg::NormalcyWitness& b) {
    return a.signal == b.signal && a.m1 == b.m1 && a.m2 == b.m2 &&
           a.code1 == b.code1 && a.code2 == b.code2 && a.nxt1 == b.nxt1 &&
           a.nxt2 == b.nxt2 && a.trace1 == b.trace1 && a.trace2 == b.trace2;
}

template <class W>
bool same(const std::optional<W>& a, const std::optional<W>& b) {
    return a.has_value() == b.has_value() && (!a || same(*a, *b));
}

/// Equal in everything validation inspects: verdicts and witnesses.
bool same_answer(const core::VerificationReport& a,
                 const core::VerificationReport& b) {
    if (a.consistent != b.consistent || a.usc.holds != b.usc.holds ||
        a.csc.holds != b.csc.holds || !same(a.usc.witness, b.usc.witness) ||
        !same(a.csc.witness, b.csc.witness) ||
        a.normalcy_checked != b.normalcy_checked ||
        a.normalcy.normal != b.normalcy.normal ||
        a.normalcy.per_signal.size() != b.normalcy.per_signal.size())
        return false;
    for (std::size_t i = 0; i < a.normalcy.per_signal.size(); ++i) {
        const stg::SignalNormalcy& x = a.normalcy.per_signal[i];
        const stg::SignalNormalcy& y = b.normalcy.per_signal[i];
        if (x.signal != y.signal || x.p_normal != y.p_normal ||
            x.n_normal != y.n_normal || !same(x.p_violation, y.p_violation) ||
            !same(x.n_violation, y.n_violation))
            return false;
    }
    return true;
}

class Bench {
public:
    explicit Bench(const RunConfig& cfg)
        : cfg_(cfg), rcache_((fs::path(cfg.work_dir) / "cache").string()) {
        if (cfg_.work_dir.empty())
            throw std::invalid_argument("perfbench needs a work directory");
        if (cfg_.workload != Workload::ExhaustiveSearch) {
            // USC+CSC only, as in the paper's table, with every reduction.
            opts_.check_normalcy = false;
            opts_.reduce = stg::reduce::Options::all();
        }
    }

    [[nodiscard]] bool cached() const {
        return cfg_.workload != Workload::ExhaustiveSearch;
    }
    [[nodiscard]] unsigned jobs() const { return pool_->jobs(); }
    [[nodiscard]] std::size_t num_checks() const { return checks_.size(); }

    /// Model generation + pool creation + one untimed warm-up pass on the
    /// pool (for warm_recheck the cold pass that fills the cache).  Returns
    /// seconds.
    double setup() {
        const double t0 = now_s();
        pool_.reset();
        models_ = cfg_.workload == Workload::ExhaustiveSearch
                      ? exhaustive_models(cfg_.models_dir, cfg_.seed)
                      : conflict_models(cfg_.models_dir, cfg_.seed);
        checks_.clear();
        if (cfg_.workload == Workload::WarmRecheck) {
            // The j-th re-check of a model rotates by a seeded point of the
            // j-th of `per_model` equal strata: a respelling's cost varies
            // by about 10% with the rotation, and stratified rotations keep
            // each model's spread of costs, hence the percentiles, nearly
            // the same for every seed.
            std::mt19937_64 rng(cfg_.seed ^ 0x5eedu);
            std::uniform_real_distribution<double> offset(0.0, 1.0);
            const std::size_t per_model =
                (kWarmRechecks + models_.size() - 1) / models_.size();
            for (std::size_t k = 0; k < kWarmRechecks; ++k) {
                const std::size_t i = k % models_.size();
                const double j = static_cast<double>(k / models_.size());
                checks_.push_back(
                    {i, respell(models_[i].text,
                                (j + offset(rng)) /
                                    static_cast<double>(per_model))});
            }
        } else {
            for (std::size_t i = 0; i < models_.size(); ++i)
                checks_.push_back({i, models_[i].text});
        }
        pool_ = std::make_unique<sched::Executor>(
            sched::Executor::hardware_jobs());
        if (cached()) clear_cache();
        warmup_ = pass(true);
        return now_s() - t0;
    }

    /// Entries in the result cache: after a cold pass, one per model when
    /// the semantic key ignores spelling.
    [[nodiscard]] std::size_t cache_entries() const {
        std::size_t n = 0;
        std::error_code ec;
        for (const auto& e : fs::directory_iterator(rcache_.dir(), ec))
            n += e.path().extension() == ".json";
        return n;
    }

    /// The state-graph oracle of every model.  Returns seconds.
    double build_oracle() {
        const double t0 = now_s();
        oracles_.clear();
        for (const Model& m : models_) {
            Oracle o;
            o.net = std::make_shared<const stg::Stg>(
                stg::parse_astg_string(m.oracle_text));
            const stg::StateGraph sg(*o.net);
            if (!sg.consistent())
                throw std::runtime_error("oracle: model '" + m.name +
                                         "' is inconsistent");
            o.initial_code = sg.initial_code();
            o.usc = stg::check_usc_sg(sg).holds;
            o.csc = stg::check_csc_sg(sg).holds;
            if (opts_.check_normalcy) o.normalcy = stg::check_normalcy_sg(sg);
            oracles_.push_back(std::move(o));
        }
        if (cfg_.inject_oracle_fault) oracles_.front().usc = !oracles_.front().usc;
        judged_.assign(checks_.size(), std::nullopt);
        return now_s() - t0;
    }

    void clear_cache() const { fs::remove_all(rcache_.dir()); }

    /// One pass of the measured checks, serial on Executor(1) or with every
    /// model on the shared pool.
    std::vector<Outcome> pass(bool parallel) {
        std::vector<Outcome> out(checks_.size());
        if (parallel)
            sched::parallel_for(*pool_, checks_.size(), [&](std::size_t i) {
                out[i] = check(checks_[i], *pool_);
            });
        else
            for (std::size_t i = 0; i < checks_.size(); ++i)
                out[i] = check(checks_[i], serial_);
        return out;
    }

    /// The same pass, split into the public calls the facade makes, each
    /// timed as a span.  Always serial.
    std::vector<Outcome> traced_pass(Tracer& tr, PassCounts& n) {
        std::vector<Outcome> out;
        const std::size_t ps = tr.open("", "pass", -1);
        for (const Check& c : checks_) out.push_back(traced_check(c, tr, ps, n));
        tr.close(ps);
        return out;
    }

    /// The last set-up's warm-up pass (handed over once).
    [[nodiscard]] std::vector<Outcome> take_warmup() { return std::move(warmup_); }
    [[nodiscard]] std::size_t num_models() const { return models_.size(); }

    /// Empty when `o` is a right answer for check `i`, else the reason.
    /// `rendered` is o.rendered().  `expect_hit`: the verdict must come from
    /// the result cache (true), must not (false), or either (nullopt).  An
    /// outcome with the same answer and rendering as one already judged
    /// right is right too, so the oracle and the witness replays run once
    /// per distinct outcome, not once per pass.
    [[nodiscard]] std::string validate(std::size_t i, const Outcome& o,
                                       const std::string& rendered,
                                       std::optional<bool> expect_hit) {
        if (!o.error.empty()) return "threw: " + o.error;
        if (expect_hit == true && !o.hit) return "missed the result cache";
        if (expect_hit == false && o.hit)
            return "hit the result cache emptied before the pass";
        std::optional<Judged>& seen = judged_.at(i);
        if (seen && seen->rendered == rendered && same_answer(seen->report, o.report))
            return {};
        std::string reason = judge(checks_[i], o.report);
        if (reason.empty() && !seen) seen = Judged{o.report, rendered};
        return reason;
    }

private:
    /// Empty when `r` is a right answer for check `c`, else the reason:
    /// verdicts against the state-graph oracle, witnesses replayed on the
    /// input net.
    [[nodiscard]] std::string judge(const Check& c,
                                    const core::VerificationReport& r) const {
        const Oracle& orc = oracles_.at(c.model);
        const stg::Stg in = stg::parse_astg_string(c.text);
        if (!r.consistent) return "reported inconsistent";
        if (r.usc.holds != orc.usc)
            return "USC verdict disagrees with the state-graph oracle";
        if (r.csc.holds != orc.csc)
            return "CSC verdict disagrees with the state-graph oracle";
        stg::Code v0(in.num_signals());
        for (stg::SignalId z = 0; z < in.num_signals(); ++z) {
            const stg::SignalId zo = orc.net->find_signal(in.signal_name(z));
            if (zo != stg::kNoSignal && orc.initial_code.test(zo)) v0.set(z);
        }
        for (const auto& [result, csc] :
             {std::pair{&r.usc, false}, std::pair{&r.csc, true}}) {
            if (result->holds) continue;
            if (!result->witness) return "violation without a witness";
            if (std::string e = replay_conflict(in, v0, *result->witness, csc);
                !e.empty())
                return (csc ? "CSC witness: " : "USC witness: ") + e;
        }
        if (r.normalcy_checked != opts_.check_normalcy)
            return "normalcy_checked does not match the options";
        if (r.normalcy_checked) {
            if (r.normalcy.normal != orc.normalcy.normal)
                return "normalcy verdict disagrees with the state-graph oracle";
            for (const stg::SignalNormalcy& sn : r.normalcy.per_signal) {
                const stg::SignalNormalcy* os = orc.normalcy.find(
                    orc.net->find_signal(in.signal_name(sn.signal)));
                if (!os || os->p_normal != sn.p_normal ||
                    os->n_normal != sn.n_normal)
                    return "normalcy of " + in.signal_name(sn.signal) +
                           " disagrees with the state-graph oracle";
                for (const auto* w : {&sn.p_violation, &sn.n_violation})
                    if (w->has_value())
                        if (std::string e = replay_normalcy(in, v0, **w);
                            !e.empty())
                            return "normalcy witness: " + e;
            }
        }
        return {};
    }

    /// One request through the public facade, parse to rendered report.
    /// verify_stg_cached has no executor parameter; with jobs = 1 it runs
    /// its checks serially inside whichever pool task called it.
    Outcome check(const Check& c, sched::Executor& ex) const {
        Outcome o;
        const double t0 = now_s();
        try {
            stg::Stg input = stg::parse_astg_string(c.text);
            o.report = cached()
                           ? core::verify_stg_cached(input, opts_, rcache_, &o.hit)
                           : core::verify_stg(input, opts_, ex);
            o.text = core::format_report(input, o.report);
            o.json = core::report_json(input, o.report);
            o.report.artifacts.reset();
            o.report.reduced_stg.reset();
        } catch (const std::exception& e) {
            o.error = e.what();
        }
        o.seconds = now_s() - t0;
        return o;
    }

    /// verify_stg / verify_stg_cached call by call, in their order.
    Outcome traced_check(const Check& c, Tracer& tr, std::size_t pass_span,
                         PassCounts& n) {
        Outcome o;
        const std::size_t chk = tr.open(models_[c.model].name, "check",
                                        static_cast<std::ptrdiff_t>(pass_span));
        const double t0 = now_s();
        try {
            stg::Stg input = tr.time(
                chk, "stg.parse", [&] { return stg::parse_astg_string(c.text); });
            core::VerificationReport report;
            stg::reduce::ReduceResult red;
            const stg::reduce::Options ropts = opts_.effective_reduce();
            if (ropts.enabled) {
                red = tr.time(chk, "stg.reduce", [&] {
                    return stg::reduce::run_passes(
                        std::make_shared<const stg::Stg>(input), ropts);
                });
                report.reduction = red.summary;
                report.dummies_contracted = red.summary.transitions_removed();
                if (red.summary.any()) report.reduced_stg = *red.stg;
                n.transitions_removed += red.summary.transitions_removed();
                n.places_removed += red.summary.places_removed();
            }
            const stg::Stg& checked = red.stg ? *red.stg : input;
            bool decoded_hit = false;
            std::uint64_t key = 0;
            const std::string entry_opts = core::semantic_entry_options(opts_);
            if (cached()) {
                key = tr.time(chk, "stg.hash",
                              [&] { return stg::reduce::semantic_hash(checked); });
                auto decoded = tr.time(
                    chk, "cache.result.load",
                    [&]() -> std::optional<core::VerificationReport> {
                        auto payload = rcache_.load("stgcore", key, entry_opts);
                        if (!payload) return std::nullopt;
                        return core::decode_report(*payload, checked);
                    });
                ++n.lookups;
                if (decoded) {
                    ++n.hits;
                    decoded_hit = true;
                    decoded->jobs = opts_.jobs;
                    decoded->reduction = report.reduction;
                    decoded->dummies_contracted = report.dummies_contracted;
                    decoded->reduced_stg = std::move(report.reduced_stg);
                    report = *std::move(decoded);
                    if (!red.chain.empty())
                        tr.time(chk, "core.translate", [&] {
                            core::translate_report(report, input, red.chain);
                        });
                }
            }
            if (!decoded_hit) {
                unf::Prefix prefix = tr.time(chk, "unfolding.unfold", [&] {
                    return unf::unfold(checked.system(), opts_.unfold);
                });
                n.events += prefix.num_events();
                n.conditions += prefix.num_conditions();
                n.cutoffs += prefix.num_cutoffs();
                report.artifacts = tr.time(chk, "cache.artifacts", [&] {
                    return std::make_shared<const cache::PrefixArtifacts>(
                        checked, std::move(prefix));
                });
                run_checks(report, tr, chk, n);
                if (cached())
                    tr.time(chk, "cache.result.store", [&] {
                        rcache_.store("stgcore", key, entry_opts,
                                      core::encode_report(report, checked));
                    });
                tr.time(chk, "core.translate", [&] {
                    core::translate_report(report, input, red.chain);
                });
            }
            tr.time(chk, "core.render", [&] {
                o.text = core::format_report(input, report);
                o.json = core::report_json(input, report);
            });
            o.hit = decoded_hit;
            report.artifacts.reset();
            report.reduced_stg.reset();
            o.report = std::move(report);
        } catch (const std::exception& e) {
            o.error = e.what();
        }
        tr.close(chk);
        o.seconds = now_s() - t0;
        return o;
    }

    /// The checking phases of verify_stg on Executor(1): USC then CSC, then
    /// normalcy.
    void run_checks(core::VerificationReport& report, Tracer& tr,
                    std::size_t chk, PassCounts& n) {
        const cache::PrefixArtifacts& art = *report.artifacts;
        report.prefix = {art.prefix().num_conditions(), art.prefix().num_events(),
                         art.prefix().num_cutoffs()};
        report.consistent = art.consistency().consistent;
        report.inconsistency_reason = art.consistency().reason;
        if (!report.consistent) return;
        report.initial_code = art.consistency().initial_code;
        const core::UnfoldingChecker checker(report.artifacts);
        report.jobs = serial_.jobs();
        report.usc = tr.time(chk, "core.usc",
                             [&] { return checker.check_usc(opts_.search); });
        report.csc = tr.time(chk, "core.csc", [&] {
            return checker.check_csc(opts_.search, serial_);
        });
        n.usc.add(report.usc.stats);
        n.csc.add(report.csc.stats);
        if (opts_.check_normalcy) {
            report.normalcy_checked = true;
            report.normalcy = tr.time(chk, "core.normalcy", [&] {
                return checker.check_normalcy(opts_.search, serial_);
            });
            n.normalcy.add(report.normalcy.stats);
        }
        if (opts_.search.use_learned_clauses)
            report.cuts = art.clauses().efficacy();
    }

    const RunConfig& cfg_;
    core::VerifyOptions opts_;
    cache::ResultCache rcache_;
    std::vector<Model> models_;
    std::vector<Check> checks_;  ///< the measured checks
    std::vector<Outcome> warmup_;
    std::vector<Oracle> oracles_;
    /// An outcome of each check that validate() judged right.
    struct Judged {
        core::VerificationReport report;
        std::string rendered;
    };
    std::vector<std::optional<Judged>> judged_;
    sched::Executor serial_{1};
    std::unique_ptr<sched::Executor> pool_;
};

/// Validates a pass and tallies it.  With `reference`, each report must
/// also render byte-identically to the reference pass's.
void tally(Bench& bench, const std::vector<Outcome>& outcomes,
           const std::vector<Outcome>* reference,
           std::optional<bool> expect_hit, std::string_view what,
           RunResult& res) {
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const std::string rendered = outcomes[i].rendered();
        std::string reason = bench.validate(i, outcomes[i], rendered, expect_hit);
        if (reason.empty() && reference && rendered != (*reference)[i].rendered())
            reason = "report differs from the serial pass";
        ++res.attempted;
        if (reason.empty()) continue;
        ++res.failed;
        if (res.failures.size() < kKeptFailures)
            res.failures.push_back(std::string(what) + " check " +
                                   std::to_string(i) + ": " + reason);
    }
}

/// Return free heap memory to the system and restart the process's peak
/// resident set (VmHWM) from its current size.
void reset_peak_rss() {
    malloc_trim(0);
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
    if (!clear.flush())
        throw std::runtime_error("cannot reset the peak RSS");
}

/// Peak resident set in MiB since the last reset_peak_rss().
double peak_rss_mb() {
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);)
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;  // kB
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::string fmt(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return buf;
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
    for (Workload w : {Workload::ExhaustiveSearch, Workload::ConflictDetect,
                       Workload::WarmRecheck})
        if (workload_name(w) == name) return w;
    return std::nullopt;
}

std::string_view workload_name(Workload w) {
    switch (w) {
        case Workload::ExhaustiveSearch: return "exhaustive_search";
        case Workload::ConflictDetect: return "conflict_detect";
        case Workload::WarmRecheck: return "warm_recheck";
    }
    return "?";
}

const Metric* RunResult::find(std::string_view name) const {
    for (const Metric& m : metrics)
        if (m.name == name) return &m;
    return nullptr;
}

std::size_t nearest_rank(std::size_t n, unsigned percent) {
    if (n == 0) return 0;
    const std::size_t rank = (n * percent + 99) / 100;  // ceil(n * p / 100)
    return rank == 0 ? 0 : rank - 1;
}

const std::vector<std::pair<std::string, std::vector<std::string>>>&
ratio_bases() {
    static const std::vector<std::pair<std::string, std::vector<std::string>>>
        bases = {
            {"cache.result.hit_ratio", {"cache.result.hits", "cache.result.lookups"}},
            {"core.search.nodes_per_s", {"core.search.nodes", "core.search_s"}},
            {"core.search.leaf_ratio", {"core.search.leaves", "core.search.nodes"}},
            {"sched.parallel_efficiency",
             {"obs.untraced_pass_s", "sched.parallel_pass_s", "sched.jobs"}},
            {"sched.span_bound", {"sched.slowest_check_s", "sched.parallel_pass_s"}},
            {"obs.trace_overhead", {"obs.traced_pass_s", "obs.untraced_pass_s"}},
            {"obs.unattributed_share", {"obs.attributed_s", "obs.traced_pass_s"}},
        };
    return bases;
}

RunResult run(const RunConfig& cfg) {
    RunResult res;
    Bench bench(cfg);
    std::vector<double> setup_times;
    for (int i = 0; i < std::max(1, cfg.trace ? 1 : cfg.setups); ++i)
        setup_times.push_back(bench.setup());
    res.num_checks = bench.num_checks();
    const double oracle_s = bench.build_oracle();
    res.notes.push_back("oracle (state graphs of " +
                        std::to_string(bench.num_models()) +
                        " models) built in " + fmt(oracle_s) +
                        " s, outside setup_s");
    tally(bench, bench.take_warmup(), nullptr, std::nullopt,
          "warm-up", res);
    const std::size_t cache_entries = bench.cache_entries();
    if (bench.cached())
        res.notes.push_back("result cache after the set-up pass: " +
                            std::to_string(cache_entries) + " entries for " +
                            std::to_string(bench.num_models()) + " models");
    const bool warm = cfg.workload == Workload::WarmRecheck;
    const bool emptied = cfg.workload == Workload::ConflictDetect;

    std::vector<double> serial_s, parallel_s, traced_s, samples_ms;
    std::vector<std::vector<double>> per_check(bench.num_checks());
    std::vector<std::map<std::string, double>> layer_sums;  ///< per traced pass
    PassCounts counts;
    Tracer tracer;
    const double deadline = now_s() + cfg.seconds;
    while (now_s() < deadline || samples_ms.size() < cfg.min_serial_checks ||
           (cfg.trace && traced_s.size() < 3)) {
        if (emptied) bench.clear_cache();
        double t0 = now_s();
        const std::vector<Outcome> serial = bench.pass(false);
        serial_s.push_back(now_s() - t0);
        for (std::size_t i = 0; i < serial.size(); ++i) {
            samples_ms.push_back(serial[i].seconds * 1e3);
            per_check[i].push_back(serial[i].seconds);
        }
        tally(bench, serial, nullptr, warm, "serial", res);

        if (emptied) bench.clear_cache();
        t0 = now_s();
        const std::vector<Outcome> parallel = bench.pass(true);
        parallel_s.push_back(now_s() - t0);
        tally(bench, parallel, &serial, warm, "parallel", res);

        if (!cfg.trace) continue;
        if (emptied) bench.clear_cache();
        const std::size_t first = tracer.spans().size();
        counts = {};
        t0 = now_s();
        const std::vector<Outcome> traced = bench.traced_pass(tracer, counts);
        traced_s.push_back(now_s() - t0);
        tally(bench, traced, &serial, warm, "traced", res);
        std::map<std::string, double>& sums = layer_sums.emplace_back();
        for (std::size_t i = first; i < tracer.spans().size(); ++i) {
            const Tracer::Span& s = tracer.spans()[i];
            if (s.layer != "pass" && s.layer != "check")
                sums[s.layer] += s.end - s.start;
        }
    }

    const double serial_med = median(serial_s);
    const double parallel_med = median(parallel_s);
    const auto list = [](const std::vector<double>& v) {
        std::string out;
        for (double x : v) {
            if (!out.empty()) out += ' ';
            out += fmt(x);
        }
        return out;
    };
    res.notes.push_back("serial passes (s): " + list(serial_s));
    res.notes.push_back("parallel passes (s): " + list(parallel_s));
    const std::string passes = "median of " + std::to_string(serial_s.size()) +
                               " passes of " +
                               std::to_string(bench.num_checks()) + " checks";
    if (!cfg.trace) {
        // Untimed parallel passes, each from a trimmed heap with the peak
        // reset, so that peak_rss_mb covers models running at once, as in
        // stgbatch.  Trimming before a timed pass would make it pay page
        // faults the others do not.
        std::vector<double> rss_mb;
        for (int k = 0; k < kMemoryPasses; ++k) {
            if (emptied) bench.clear_cache();
            reset_peak_rss();
            tally(bench, bench.pass(true), nullptr, warm, "memory", res);
            rss_mb.push_back(peak_rss_mb());
        }
        std::sort(samples_ms.begin(), samples_ms.end());
        const std::string n = "n=" + std::to_string(samples_ms.size()) +
                              " serial checks";
        res.metrics = {
            {"serial_s", serial_med, "s", passes},
            {"parallel_s", parallel_med, "s",
             passes + " on " + std::to_string(bench.jobs()) + " workers"},
            {"check_ms.p50", samples_ms[nearest_rank(samples_ms.size(), 50)],
             "ms", n},
            {"check_ms.p90", samples_ms[nearest_rank(samples_ms.size(), 90)],
             "ms", n},
            {"peak_rss_mb", median(rss_mb), "MiB",
             "median peak of " + std::to_string(kMemoryPasses) +
                 " more parallel passes, each from a trimmed heap"},
            {"setup_s", median(setup_times), "s",
             "median of " + std::to_string(setup_times.size()) + " set-ups"},
        };
        return res;
    }

    if (!cfg.trace_out.empty()) tracer.write(cfg.trace_out, workload_name(cfg.workload));
    // Median over the traced passes of the time a pass spent in `layers`.
    const auto L = [&](const std::vector<std::string>& layers) {
        std::vector<double> per_pass;
        for (std::map<std::string, double>& sums : layer_sums) {
            double t = 0.0;
            for (const std::string& layer : layers) t += sums[layer];
            per_pass.push_back(t);
        }
        return median(per_pass);
    };
    const double traced_med = median(traced_s);
    const double search_s = L({"core.usc", "core.csc", "core.normalcy"});
    const double attributed_s = L(kLayers);
    const SearchCounts all{
        counts.usc.nodes + counts.csc.nodes + counts.normalcy.nodes,
        counts.usc.leaves + counts.csc.leaves + counts.normalcy.leaves,
        counts.usc.propagations + counts.csc.propagations +
            counts.normalcy.propagations};
    double slowest = 0.0;
    for (const std::vector<double>& v : per_check) slowest = std::max(slowest, median(v));
    const auto count = [](std::size_t v) { return static_cast<double>(v); };
    const std::string traced = "median of " + std::to_string(traced_s.size()) +
                               " traced passes";
    res.metrics = {
        {"stg.parse_s", L({"stg.parse"}), "s", traced},
        {"stg.reduce_s", L({"stg.reduce"}), "s", traced},
        {"stg.reduce.transitions_removed", count(counts.transitions_removed), "count", "per pass"},
        {"stg.reduce.places_removed", count(counts.places_removed), "count", "per pass"},
        {"stg.hash_s", L({"stg.hash"}), "s", traced},
        {"unfolding.unfold_s", L({"unfolding.unfold"}), "s", traced},
        {"unfolding.events", count(counts.events), "count", "per pass"},
        {"unfolding.conditions", count(counts.conditions), "count", "per pass"},
        {"unfolding.cutoffs", count(counts.cutoffs), "count", "per pass"},
        {"cache.artifacts_s", L({"cache.artifacts"}), "s", traced},
        {"cache.result.load_s", L({"cache.result.load"}), "s", traced},
        {"cache.result.store_s", L({"cache.result.store"}), "s", traced},
        {"cache.result.entries", count(cache_entries), "count",
         "after the set-up pass over " + std::to_string(bench.num_models()) +
             " models"},
        {"cache.result.hits", count(counts.hits), "count", "per pass"},
        {"cache.result.lookups", count(counts.lookups), "count", "per pass"},
        {"cache.result.hit_ratio", ratio(count(counts.hits), count(counts.lookups)), "ratio",
         std::to_string(counts.hits) + "/" + std::to_string(counts.lookups) + " lookups"},
        {"core.usc_s", L({"core.usc"}), "s", traced},
        {"core.usc.nodes", count(counts.usc.nodes), "count", "per pass"},
        {"core.usc.leaves", count(counts.usc.leaves), "count", "per pass"},
        {"core.usc.propagations", count(counts.usc.propagations), "count", "per pass"},
        {"core.csc_s", L({"core.csc"}), "s", traced},
        {"core.csc.nodes", count(counts.csc.nodes), "count", "per pass"},
        {"core.csc.leaves", count(counts.csc.leaves), "count", "per pass"},
        {"core.csc.propagations", count(counts.csc.propagations), "count", "per pass"},
        {"core.normalcy_s", L({"core.normalcy"}), "s", traced},
        {"core.normalcy.nodes", count(counts.normalcy.nodes), "count", "per pass"},
        {"core.normalcy.leaves", count(counts.normalcy.leaves), "count", "per pass"},
        {"core.normalcy.propagations", count(counts.normalcy.propagations), "count", "per pass"},
        {"core.search_s", search_s, "s", "usc + csc + normalcy"},
        {"core.search.nodes", count(all.nodes), "count", "per pass"},
        {"core.search.leaves", count(all.leaves), "count", "per pass"},
        {"core.search.nodes_per_s", ratio(count(all.nodes), search_s), "1/s",
         std::to_string(all.nodes) + " nodes / " + fmt(search_s) + " s"},
        {"core.search.leaf_ratio", ratio(count(all.leaves), count(all.nodes)), "ratio",
         std::to_string(all.leaves) + " leaves / " + std::to_string(all.nodes) + " nodes"},
        {"core.translate_s", L({"core.translate"}), "s", traced},
        {"core.render_s", L({"core.render"}), "s", traced},
        {"sched.jobs", count(bench.jobs()), "count", "pool workers"},
        {"sched.parallel_pass_s", parallel_med, "s", passes},
        {"sched.slowest_check_s", slowest, "s", "median over serial passes"},
        {"sched.parallel_efficiency", ratio(serial_med, bench.jobs() * parallel_med), "ratio",
         fmt(serial_med) + " s / (" + std::to_string(bench.jobs()) + " x " + fmt(parallel_med) + " s)"},
        {"sched.span_bound", ratio(slowest, parallel_med), "ratio",
         fmt(slowest) + " s / " + fmt(parallel_med) + " s"},
        {"mem.arena_peak_bytes",
         count(static_cast<std::size_t>(obs::gauge("mem.arena_peak_bytes").value())),
         "bytes", "process high-water mark after the traced passes"},
        {"obs.untraced_pass_s", serial_med, "s", passes},
        {"obs.traced_pass_s", traced_med, "s", traced},
        {"obs.attributed_s", attributed_s, "s", "inside a timed call"},
        {"obs.trace_overhead", ratio(traced_med, serial_med) - 1.0, "ratio",
         fmt(traced_med) + " s traced / " + fmt(serial_med) + " s untraced"},
        {"obs.unattributed_share", 1.0 - ratio(attributed_s, traced_med), "ratio",
         fmt(attributed_s) + " s attributed / " + fmt(traced_med) + " s"},
    };

    const auto claim = [&](const std::string& what, bool met, double share) {
        res.notes.push_back("claim " + what + ": " + (met ? "met" : "NOT MET") +
                            " (" + fmt(share) + ")");
    };
    switch (cfg.workload) {
        case Workload::ExhaustiveSearch:
            claim("core.* search >= 90% of the traced pass",
                  search_s >= 0.9 * traced_med, ratio(search_s, traced_med));
            break;
        case Workload::ConflictDetect: {
            const double front = L({"stg.reduce", "unfolding.unfold",
                                    "cache.artifacts", "cache.result.store"});
            claim("reduce + unfold + artifacts + store > 50% of the traced pass",
                  front > 0.5 * traced_med, ratio(front, traced_med));
            break;
        }
        case Workload::WarmRecheck: {
            const bool none = counts.events == 0 && all.nodes == 0 &&
                              L({"unfolding.unfold", "cache.artifacts"}) == 0.0 &&
                              search_s == 0.0;
            claim("no unfold, artifact or search call, hit ratio 1.0",
                  none && counts.hits == counts.lookups,
                  ratio(count(counts.hits), count(counts.lookups)));
            break;
        }
    }
    return res;
}

}  // namespace perfbench
