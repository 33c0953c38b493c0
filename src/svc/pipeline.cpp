#include "svc/pipeline.hpp"

#include "core/extended_checks.hpp"
#include "core/persistency.hpp"
#include "core/report_codec.hpp"
#include "obs/expo.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "stg/astg.hpp"

namespace stgcc::svc {

namespace {

constexpr const char* kRenderedTier = "rendered";

/// Run every checking phase against report.artifacts (already set).
void run_checks(core::VerificationReport& report,
                const core::VerifyOptions& opts, sched::Executor& ex) {
    const cache::PrefixArtifacts& artifacts = *report.artifacts;
    const stg::Stg& stg = artifacts.stg();
    report.prefix.conditions = artifacts.prefix().num_conditions();
    report.prefix.events = artifacts.prefix().num_events();
    report.prefix.cutoffs = artifacts.prefix().num_cutoffs();
    report.consistent = artifacts.consistency().consistent;
    report.inconsistency_reason = artifacts.consistency().reason;
    if (!report.consistent) return;
    report.initial_code = artifacts.consistency().initial_code;

    core::UnfoldingChecker checker(report.artifacts);
    // Phase plan: the parallel decomposition must not *create* work the
    // serial order avoids (docs/PARALLELISM.md, "scaling study").  USC and
    // CSC form one ordered chain -- the USC result lets the checker settle
    // CSC without searching when USC holds or its witness is already a CSC
    // conflict, and running them concurrently would forfeit that.
    // Normalcy is an independent chain (LessEq pass, then GreaterEq only
    // for unresolved flags).  The two chains run concurrently, and every
    // solve spreads its own subproblems over the pool.  The serial
    // executor runs the identical chains in order -- results are the same
    // at any jobs value.
    report.jobs = ex.jobs();
    std::vector<std::function<void()>> phases;
    phases.emplace_back([&] {
        report.usc = checker.check_usc(opts.search, ex);
        report.csc = checker.check_csc(opts.search, ex);
    });
    if (opts.check_normalcy) {
        report.normalcy_checked = true;
        phases.emplace_back(
            [&] { report.normalcy = checker.check_normalcy(opts.search, ex); });
    }
    sched::parallel_invoke(ex, std::move(phases));
    if (opts.search.use_learned_clauses)
        report.cuts = report.artifacts->clauses().efficacy();
    if (opts.check_deadlock) {
        obs::Span phase("solve.deadlock");
        report.deadlock_checked = true;
        auto deadlock = core::check_deadlock(checker.problem());
        report.deadlock_free = !deadlock.found;
        if (deadlock.found) report.deadlock_trace = deadlock.witness->trace;
    }
    if (opts.check_persistency) {
        obs::Span phase("solve.persistency");
        report.persistency_checked = true;
        auto persistency = core::check_persistency(checker.problem());
        report.persistent = persistency.persistent;
        if (!persistency.persistent) {
            const auto& v = *persistency.violation;
            report.persistency_violation =
                core::VerificationReport::PersistencyViolation{
                    v.output, v.disabler, v.trace};
            // On the checked net; translate_report re-renders on the input
            // when a reduction ran.
            report.persistency_note =
                core::persistency_note_text(stg, *report.persistency_violation);
        }
    }
}

}  // namespace

core::VerifyOptions verify_options(const CheckOptions& copts) {
    core::VerifyOptions opts;
    opts.check_normalcy = copts.normalcy;
    opts.reduce = stg::reduce::Options::parse(copts.reduce);
    opts.check_deadlock = copts.deadlock;
    opts.check_persistency = copts.persistency;
    opts.search.use_learned_clauses = copts.use_cache;
    return opts;
}

PreparedModel::PreparedModel(std::shared_ptr<const stg::Stg> model,
                             const core::VerifyOptions& opts)
    : model_(std::move(model)), unfold_(opts.unfold) {
    stg::reduce::ReduceResult red =
        stg::reduce::run_passes(model_, opts.effective_reduce());
    checked_ = std::move(red.stg);
    reduction_ = std::move(red.summary);
    chain_ = std::move(red.chain);
}

std::uint64_t PreparedModel::semantic_key() const {
    std::call_once(key_once_,
                   [&] { semantic_key_ = stg::reduce::semantic_hash(*checked_); });
    return semantic_key_;
}

cache::PrefixArtifactsPtr PreparedModel::artifacts() const {
    std::call_once(artifacts_once_, [&] {
        artifacts_ =
            std::make_shared<const cache::PrefixArtifacts>(checked_, unfold_);
    });
    return artifacts_;
}

core::VerificationReport check(const PreparedModel& model,
                               const core::VerifyOptions& opts,
                               const cache::ResultCache* semantic_tier,
                               sched::Executor* ex, bool* semantic_hit) {
    obs::Span span("verify");
    span.attr("stg", model.model().name());
    const bool tier = semantic_tier && semantic_tier->enabled();
    std::uint64_t key = 0;
    std::string entry_opts;
    core::VerificationReport report;
    bool hit = false;
    if (tier) {
        key = model.semantic_key();
        entry_opts = core::semantic_entry_options(opts);
        if (auto payload = semantic_tier->load("stgcore", key, entry_opts)) {
            if (auto decoded = core::decode_report(*payload, model.checked())) {
                report = *std::move(decoded);
                hit = true;
            }
        }
    }
    if (semantic_hit) *semantic_hit = hit;
    if (hit) {
        obs::counter("cache.result.semantic_hits").add(1);
        span.attr("semantic_hit", true);
        report.jobs = ex ? ex->jobs() : opts.jobs;
    } else {
        std::optional<sched::Executor> local;
        if (!ex) ex = &local.emplace(opts.jobs);
        report.artifacts = model.artifacts();
        run_checks(report, opts, *ex);
        if (opts.search.cancel.cancelled()) return report;
        if (tier)
            semantic_tier->store("stgcore", key, entry_opts,
                                 core::encode_report(report, model.checked()));
    }
    // Every removed transition is a dummy, so the legacy `dummies
    // contracted` count is the summary's transition total.
    report.reduction = model.reduction();
    report.dummies_contracted = model.reduction().transitions_removed();
    if (model.reduction().any()) report.reduced_stg = model.checked();
    if (!model.chain().empty())
        core::translate_report(report, model.model(), model.chain());
    else if (hit && report.persistency_violation)
        report.persistency_note = core::persistency_note_text(
            model.model(), *report.persistency_violation);
    return report;
}

bool all_hold(const core::VerificationReport& r) {
    return r.consistent && r.usc.holds && r.csc.holds &&
           (!r.normalcy_checked || r.normalcy.normal) &&
           (!r.deadlock_checked || r.deadlock_free) &&
           (!r.persistency_checked || r.persistent);
}

std::string verdict_line(const core::VerificationReport& r) {
    if (!r.consistent) return "inconsistent (" + r.inconsistency_reason + ")";
    std::string out;
    out += r.usc.holds ? "USC:ok" : "USC:VIOLATED";
    out += r.csc.holds ? " CSC:ok" : " CSC:VIOLATED";
    if (r.normalcy_checked)
        out += r.normalcy.normal ? " normalcy:ok" : " normalcy:VIOLATED";
    if (r.deadlock_checked)
        out += r.deadlock_free ? " deadlock:none" : " deadlock:REACHABLE";
    if (r.persistency_checked)
        out += r.persistent ? " persistency:ok" : " persistency:VIOLATED";
    return out;
}

Rendered render(const stg::Stg& model, const core::VerificationReport& r) {
    Rendered out;
    out.report = core::format_report(model, r);
    if (r.deadlock_checked && !r.deadlock_free)
        out.deadlock_via = "deadlock via: " + model.sequence_text(r.deadlock_trace);
    out.all_hold = all_hold(r);
    out.exit_code = out.all_hold ? 0 : 1;
    out.verdict = verdict_line(r);
    // The row is content-addressed: the same stored row serves clients that
    // know the model under different paths, and each prepends its "file".
    obs::Json row = obs::Json::object();
    row.set("name", model.name());
    row.set("status", out.all_hold ? "ok" : "violated");
    obs::Json verdicts = obs::Json::object();
    verdicts.set("consistent", r.consistent);
    if (r.consistent) {
        verdicts.set("usc", r.usc.holds);
        verdicts.set("csc", r.csc.holds);
        if (r.normalcy_checked) verdicts.set("normalcy", r.normalcy.normal);
        if (r.deadlock_checked) verdicts.set("deadlock_free", r.deadlock_free);
    }
    row.set("verdicts", std::move(verdicts));
    row.set("prefix", obs::Json::object()
                          .set("conditions", r.prefix.conditions)
                          .set("events", r.prefix.events)
                          .set("cutoffs", r.prefix.cutoffs));
    if (r.reduction.rounds > 0)
        row.set("reduction", core::reduction_json(r.reduction));
    out.row = std::move(row);
    out.json = core::report_json(model, r);
    out.json.set("jobs", r.jobs);
    return out;
}

obs::Json rendered_payload(const Rendered& r) {
    obs::Json v = obs::Json::object()
                      .set("exit", r.exit_code)
                      .set("all_hold", r.all_hold)
                      .set("verdict", r.verdict)
                      .set("report", r.report);
    if (!r.deadlock_via.empty()) v.set("deadlock_via", r.deadlock_via);
    v.set("row", r.row);
    v.set("json", r.json);
    return v;
}

std::optional<Rendered> rendered_from_payload(const obs::Json& v) {
    const obs::Json* exit_code = v.find("exit");
    const obs::Json* all_hold = v.find("all_hold");
    const obs::Json* verdict = v.find("verdict");
    const obs::Json* report = v.find("report");
    const obs::Json* row = v.find("row");
    const obs::Json* json = v.find("json");
    if (!exit_code || !all_hold || !verdict || !report || !row || !json)
        return std::nullopt;
    Rendered out;
    out.exit_code = static_cast<int>(exit_code->as_int());
    out.all_hold = all_hold->as_bool();
    out.verdict = verdict->as_string();
    out.report = report->as_string();
    if (const obs::Json* dl = v.find("deadlock_via"))
        out.deadlock_via = dl->as_string();
    out.row = *row;
    out.json = *json;
    return out;
}

ModelCheck check_model(const std::string& text, const CheckOptions& copts,
                       const cache::ResultCache& rcache, sched::Executor* ex,
                       unsigned jobs, const sched::CancellationToken& cancel,
                       const Prepare& prepare) {
    // Every report that carries the metrics registry measures the resident
    // set once the check is over, on every return path.
    struct NoteRss {
        ~NoteRss() {
            if (obs::enabled())
                obs::gauge("mem.rss_bytes")
                    .set(static_cast<std::int64_t>(obs::process_rss_bytes()));
        }
    } note_rss;
    core::VerifyOptions vopts = verify_options(copts);
    vopts.jobs = jobs;
    vopts.search.cancel = cancel;
    ModelCheck out;
    const bool cached = copts.use_cache && rcache.enabled();
    std::uint64_t hash = 0;
    std::string sig;
    if (cached) {
        hash = cache::fnv1a64(text);
        sig = copts.signature();
        if (const auto payload = rcache.load(kRenderedTier, hash, sig)) {
            if (auto r = rendered_from_payload(*payload)) {
                out.rendered = *std::move(r);
                out.tier = "disk";
                return out;
            }
        }
    }
    if (cancel.cancelled()) {
        out.cancelled = true;
        return out;
    }
    std::shared_ptr<const PreparedModel> model;
    if (prepare) {
        model = prepare(vopts);
    } else {
        std::shared_ptr<const stg::Stg> parsed;
        {
            obs::Span parse("parse");
            parsed = std::make_shared<const stg::Stg>(stg::parse_astg_string(text));
        }
        model = std::make_shared<const PreparedModel>(std::move(parsed), vopts);
    }
    bool semantic = false;
    out.report = check(*model, vopts, cached ? &rcache : nullptr, ex, &semantic);
    if (cancel.cancelled()) {
        out.cancelled = true;
        return out;
    }
    if (semantic) out.tier = "semantic";
    out.rendered = render(model->model(), out.report);
    if (cached)
        rcache.store(kRenderedTier, hash, sig, rendered_payload(out.rendered));
    return out;
}

}  // namespace stgcc::svc
