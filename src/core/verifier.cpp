#include "core/verifier.hpp"

#include <sstream>

#include "core/report_codec.hpp"
#include "svc/pipeline.hpp"

namespace stgcc::core {

namespace {

/// A non-owning handle on the caller's net: verify_stg neither copies nor
/// keeps it (the report's artifacts reference it when no reduction changed
/// the net, so the caller keeps it alive while using them).
std::shared_ptr<const stg::Stg> borrow(const stg::Stg& input) {
    return std::shared_ptr<const stg::Stg>(std::shared_ptr<const stg::Stg>(),
                                           &input);
}

}  // namespace

std::string persistency_note_text(
    const stg::Stg& stg, const VerificationReport::PersistencyViolation& v) {
    return "output " + stg.net().transition_name(v.output) + " disabled by " +
           stg.net().transition_name(v.disabler) +
           " via: " + stg.sequence_text(v.trace);
}

std::string semantic_entry_options(const VerifyOptions& opts) {
    return std::string("stgcore/") + std::to_string(kReportCodecVersion) +
           ";normalcy=" + (opts.check_normalcy ? "1" : "0") +
           ";deadlock=" + (opts.check_deadlock ? "1" : "0") +
           ";persistency=" + (opts.check_persistency ? "1" : "0");
}

VerificationReport verify_stg(const stg::Stg& input, VerifyOptions opts) {
    sched::Executor ex(opts.jobs);
    return verify_stg(input, std::move(opts), ex);
}

VerificationReport verify_stg(const stg::Stg& input, VerifyOptions opts,
                              sched::Executor& ex) {
    return svc::check(svc::PreparedModel(borrow(input), opts), opts, nullptr,
                      &ex);
}

VerificationReport verify_stg_cached(const stg::Stg& input, VerifyOptions opts,
                                     const cache::ResultCache& rcache,
                                     bool* semantic_hit) {
    return svc::check(svc::PreparedModel(borrow(input), opts), opts, &rcache,
                      nullptr, semantic_hit);
}

void translate_report(VerificationReport& r, const stg::Stg& input,
                      const stg::reduce::WitnessChain& chain) {
    if (chain.empty()) return;
    const auto lift = [&](std::vector<petri::TransitionId>& trace,
                          petri::Marking* m) {
        auto translated = chain.translate(trace);
        if (!translated)
            throw ModelError(
                "witness back-translation failed on '" + input.name() +
                "' (reduction soundness bug; re-run with --no-reduce)");
        trace = std::move(translated->trace);
        if (m) *m = std::move(translated->marking);
    };
    const auto lift_conflict = [&](std::optional<stg::ConflictWitness>& w) {
        if (!w) return;
        lift(w->trace1, &w->m1);
        lift(w->trace2, &w->m2);
    };
    lift_conflict(r.usc.witness);
    lift_conflict(r.csc.witness);
    for (stg::SignalNormalcy& sn : r.normalcy.per_signal) {
        for (std::optional<stg::NormalcyWitness>* v :
             {&sn.p_violation, &sn.n_violation}) {
            if (!v->has_value()) continue;
            lift((*v)->trace1, &(*v)->m1);
            lift((*v)->trace2, &(*v)->m2);
        }
    }
    if (r.deadlock_checked && !r.deadlock_free) lift(r.deadlock_trace, nullptr);
    if (r.persistency_violation) {
        auto& v = *r.persistency_violation;
        v.output = chain.translate_transition(v.output);
        v.disabler = chain.translate_transition(v.disabler);
        lift(v.trace, nullptr);
        r.persistency_note = persistency_note_text(input, v);
    }
}

namespace {

std::string signal_set_text(const stg::Stg& stg, const BitVec& set) {
    std::string out = "{";
    bool first = true;
    set.for_each([&](std::size_t z) {
        if (!first) out += ", ";
        first = false;
        out += stg.signal_name(static_cast<stg::SignalId>(z));
    });
    return out + "}";
}

}  // namespace

std::string format_witness(const stg::Stg& stg,
                           const stg::ConflictWitness& witness) {
    std::ostringstream out;
    out << "  shared code: " << witness.code.to_string() << "\n"
        << "  M'  = " << witness.m1.to_string(stg.net())
        << "  Out = " << signal_set_text(stg, witness.out1) << "\n"
        << "    via: " << stg.sequence_text(witness.trace1) << "\n"
        << "  M'' = " << witness.m2.to_string(stg.net())
        << "  Out = " << signal_set_text(stg, witness.out2) << "\n"
        << "    via: " << stg.sequence_text(witness.trace2) << "\n";
    return out.str();
}

std::string format_normalcy_witness(const stg::Stg& stg,
                                    const stg::NormalcyWitness& w) {
    std::ostringstream out;
    out << "  signal " << stg.signal_name(w.signal) << ":\n"
        << "  Code(M')  = " << w.code1.to_string() << "  Nxt = " << w.nxt1
        << "  via: " << stg.sequence_text(w.trace1) << "\n"
        << "  Code(M'') = " << w.code2.to_string() << "  Nxt = " << w.nxt2
        << "  via: " << stg.sequence_text(w.trace2) << "\n";
    return out.str();
}

namespace {

obs::Json stats_json(const stg::CheckStats& s) {
    return obs::Json::object()
        .set("states", s.states)
        .set("search_nodes", s.search_nodes)
        .set("leaves", s.leaves)
        .set("propagations", s.propagations)
        .set("max_depth", s.max_depth)
        .set("seconds", s.seconds)
        .set("bound_seconds", s.bound_seconds);
}

}  // namespace

obs::Json reduction_json(const stg::reduce::Summary& s) {
    obs::Json passes = obs::Json::array();
    for (const stg::reduce::PassStats& p : s.passes)
        passes.push(obs::Json::object()
                        .set("pass", p.pass)
                        .set("applications", p.applications)
                        .set("places_removed", p.places_removed)
                        .set("transitions_removed", p.transitions_removed));
    obs::Json remaining = obs::Json::array();
    for (const std::string& d : s.remaining_dummies) remaining.push(d);
    return obs::Json::object()
        .set("rounds", s.rounds)
        .set("places_removed", s.places_removed())
        .set("transitions_removed", s.transitions_removed())
        .set("remaining_dummies", std::move(remaining))
        .set("passes", std::move(passes));
}

obs::Json report_json(const stg::Stg& input, const VerificationReport& r) {
    // Witnesses (and therefore sizes too) are reported on the original
    // input net; reduction work is accounted separately below.
    const stg::Stg& stg = input;
    obs::Json model = obs::Json::object()
                          .set("name", stg.name())
                          .set("places", stg.net().num_places())
                          .set("transitions", stg.net().num_transitions())
                          .set("signals", stg.num_signals());
    obs::Json prefix = obs::Json::object()
                           .set("conditions", r.prefix.conditions)
                           .set("events", r.prefix.events)
                           .set("cutoffs", r.prefix.cutoffs);

    obs::Json results = obs::Json::object();
    results.set("consistent", r.consistent);
    results.set("jobs", r.jobs);
    if (!r.consistent) {
        results.set("inconsistency_reason", r.inconsistency_reason);
    } else {
        results.set("initial_code", r.initial_code.to_string());
        results.set("usc", obs::Json::object().set("holds", r.usc.holds));
        results.set("csc", obs::Json::object().set("holds", r.csc.holds));
        if (r.normalcy_checked)
            results.set("normalcy",
                        obs::Json::object().set("normal", r.normalcy.normal));
        if (r.deadlock_checked)
            results.set("deadlock",
                        obs::Json::object().set("free", r.deadlock_free));
        if (r.persistency_checked)
            results.set("persistency",
                        obs::Json::object().set("persistent", r.persistent));
    }

    obs::Json stats = obs::Json::object();
    stats.set("usc", stats_json(r.usc.stats));
    stats.set("csc", stats_json(r.csc.stats));
    if (r.normalcy_checked) stats.set("normalcy", stats_json(r.normalcy.stats));
    stats.set("cuts", obs::Json::object()
                          .set("recorded", r.cuts.recorded)
                          .set("replayed", r.cuts.replayed)
                          .set("pruned_nodes", r.cuts.pruned_nodes));

    obs::Json out = obs::Json::object();
    out.set("model", std::move(model));
    if (r.dummies_contracted > 0)
        out.set("dummies_contracted", r.dummies_contracted);
    if (r.reduction.rounds > 0) out.set("reduction", reduction_json(r.reduction));
    out.set("prefix", std::move(prefix));
    out.set("results", std::move(results));
    out.set("stats", std::move(stats));
    return out;
}

std::string format_report(const stg::Stg& input, const VerificationReport& r) {
    std::ostringstream out;
    // Witness traces refer to the original input net: verify_stg (and
    // stgd's render path) translate them back through the reduction
    // witness chain before rendering.
    const stg::Stg& stg = input;
    const petri::Net& net = stg.net();
    out << "STG '" << stg.name() << "': |S|=" << net.num_places()
        << " |T|=" << net.num_transitions() << " |Z|=" << stg.num_signals()
        << "\n";
    if (r.dummies_contracted > 0)
        out << "dummies contracted: " << r.dummies_contracted << "\n";
    if (r.reduction.any()) {
        out << "reduction: -" << r.reduction.transitions_removed() << "t -"
            << r.reduction.places_removed() << "p (rounds="
            << r.reduction.rounds;
        for (const stg::reduce::PassStats& p : r.reduction.passes)
            if (p.applications > 0)
                out << "; " << p.pass << " x" << p.applications;
        out << ")\n";
    }
    out << "prefix: |B|=" << r.prefix.conditions << " |E|=" << r.prefix.events
        << " |E_cut|=" << r.prefix.cutoffs << "\n";
    if (!r.consistent) {
        out << "consistency: FAILED (" << r.inconsistency_reason << ")\n";
        return out.str();
    }
    out << "consistency: ok, v0 = " << r.initial_code.to_string() << "\n";
    out << "USC: " << (r.usc.holds ? "holds" : "VIOLATED") << "\n";
    if (r.usc.witness) out << format_witness(stg, *r.usc.witness);
    out << "CSC: " << (r.csc.holds ? "holds" : "VIOLATED") << "\n";
    if (r.csc.witness) out << format_witness(stg, *r.csc.witness);
    if (r.deadlock_checked)
        out << "deadlock: " << (r.deadlock_free ? "none" : "REACHABLE") << "\n";
    if (r.persistency_checked) {
        out << "output persistency: " << (r.persistent ? "holds" : "VIOLATED")
            << "\n";
        if (!r.persistent) out << "  " << r.persistency_note << "\n";
    }
    if (r.normalcy_checked) {
        out << "normalcy: " << (r.normalcy.normal ? "holds" : "VIOLATED") << "\n";
        for (const auto& sn : r.normalcy.per_signal) {
            out << "  " << stg.signal_name(sn.signal) << ": "
                << (sn.normal()
                        ? (sn.p_normal && sn.n_normal ? "p-normal and n-normal"
                           : sn.p_normal              ? "p-normal"
                                                      : "n-normal")
                        : "NOT normal")
                << "\n";
            if (!sn.normal()) {
                if (sn.p_violation)
                    out << format_normalcy_witness(stg, *sn.p_violation);
                if (sn.n_violation)
                    out << format_normalcy_witness(stg, *sn.n_violation);
            }
        }
    }
    return out.str();
}

}  // namespace stgcc::core
