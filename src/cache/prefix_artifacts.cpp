#include "cache/prefix_artifacts.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace stgcc::cache {

PrefixArtifacts::PrefixArtifacts(const stg::Stg& stg, unf::UnfoldOptions opts)
    : stg_(&stg), prefix_(unf::unfold(stg.system(), opts)) {
    build();
}

PrefixArtifacts::PrefixArtifacts(const stg::Stg& stg, unf::Prefix prefix)
    : stg_(&stg), prefix_(std::move(prefix)) {
    build();
}

PrefixArtifacts::PrefixArtifacts(std::shared_ptr<const stg::Stg> stg,
                                 unf::UnfoldOptions opts)
    : owned_stg_(std::move(stg)),
      stg_(owned_stg_.get()),
      prefix_(unf::unfold(stg_->system(), opts)) {
    build();
}

void PrefixArtifacts::build() {
    obs::Span span("artifacts");
    const std::size_t n = prefix_.num_events();

    // Co-relation rows: co(e) = E \ ([e] | successors(e) | conflicts(e)).
    // Both [e] and successors(e) contain e, so the diagonal is clear.
    co_rows_ = util::BitMatrix(arena_, n, n);
    for (unf::EventId e = 0; e < n; ++e) {
        MutBitSpan row = co_rows_.mut_row(e);
        row.set_all();
        row.subtract(prefix_.local_config(e));
        row.subtract(prefix_.successors(e));
        row.subtract(prefix_.conflicts(e));
    }

    {
        obs::Span cspan("consistency");
        consistency_ = unf::analyze_consistency(*stg_, prefix_, co_rows_);
    }
    span.attr("consistent", consistency_.consistent);
    if (!consistency_.consistent) return;

    problem_ = std::make_unique<core::CodingProblem>(*stg_, prefix_, consistency_);
    const std::size_t q = problem_->size();
    clauses_ = std::make_unique<ClauseStore>(q);

    // Toggle rows for places_of_dense / state_of_dense: the places whose
    // token count the event's transition changes, then its signal bit.
    const petri::Net& net = prefix_.system().net();
    initial_places_ = BitVec(net.num_places());
    for (unf::ConditionId b : prefix_.min_conditions())
        initial_places_.set(prefix_.condition(b).place);
    place_words_ = (net.num_places() + BitSpan::kWordBits - 1) / BitSpan::kWordBits;
    const std::size_t code_offset = place_words_ * BitSpan::kWordBits;
    toggles_ = util::BitMatrix(arena_, q, code_offset + stg_->num_signals());
    for (std::size_t i = 0; i < q; ++i) {
        const petri::TransitionId t = prefix_.event(problem_->event_of(i)).transition;
        MutBitSpan row = toggles_.mut_row(i);
        for (petri::PlaceId p : net.pre(t)) row.set(p);
        for (petri::PlaceId p : net.post(t)) {
            if (row.test(p))
                row.reset(p);  // a self-loop place keeps its token
            else
                row.set(p);
        }
        row.set(code_offset + problem_->signal(i));
    }

    // Per-signal preset index for signal_enabled(): a counting sort of the
    // labelled transitions by signal, ascending ids within a signal.
    const stg::Stg& stg = *stg_;
    signal_begin_.assign(stg.num_signals() + 1, 0);
    for (petri::TransitionId t = 0; t < net.num_transitions(); ++t)
        if (!stg.is_dummy(t)) ++signal_begin_[stg.label(t).signal + 1];
    for (std::size_t z = 0; z < stg.num_signals(); ++z)
        signal_begin_[z + 1] += signal_begin_[z];
    std::vector<std::uint32_t> by_signal(signal_begin_.back());
    std::vector<std::uint32_t> cursor(signal_begin_.begin(), signal_begin_.end() - 1);
    for (petri::TransitionId t = 0; t < net.num_transitions(); ++t)
        if (!stg.is_dummy(t)) by_signal[cursor[stg.label(t).signal]++] = t;
    enabling_.assign(1, 0);
    preset_places_.clear();
    for (const std::uint32_t t : by_signal) {
        for (petri::PlaceId p : net.pre(t)) preset_places_.push_back(p);
        enabling_.push_back(static_cast<std::uint32_t>(preset_places_.size()));
    }

    obs::counter("cache.artifacts.built").add();
    obs::gauge("mem.arena_bytes")
        .set(static_cast<std::int64_t>(util::Arena::process_live_bytes()));
    obs::gauge("mem.arena_peak_bytes")
        .set(static_cast<std::int64_t>(util::Arena::process_peak_bytes()));
    span.attr("dense_events", q);
}

const core::CodingProblem& PrefixArtifacts::problem() const {
    if (!problem_)
        throw ModelError("STG '" + stg_->name() +
                         "' is inconsistent: " + consistency_.reason);
    return *problem_;
}

void PrefixArtifacts::places_of_dense(BitSpan dense, BitVec& places) const {
    STGCC_ASSERT(problem_ != nullptr);
    places = initial_places_;
    BitSpan::Word* p = places.data();
    const std::size_t pw = place_words_;
    dense.for_each([&](std::size_t i) {
        const BitSpan::Word* r = toggles_.row(i).words();
        for (std::size_t w = 0; w < pw; ++w) p[w] ^= r[w];
    });
}

void PrefixArtifacts::state_of_dense(BitSpan dense, BitVec& places,
                                     stg::Code& code) const {
    STGCC_ASSERT(problem_ != nullptr);
    places = initial_places_;
    code = problem_->initial_code();
    BitSpan::Word* p = places.data();
    BitSpan::Word* c = code.data();
    const std::size_t pw = place_words_;
    const std::size_t cw = toggles_.stride() - pw;
    dense.for_each([&](std::size_t i) {
        const BitSpan::Word* r = toggles_.row(i).words();
        for (std::size_t w = 0; w < pw; ++w) p[w] ^= r[w];
        for (std::size_t w = 0; w < cw; ++w) c[w] ^= r[pw + w];
    });
}

petri::Marking PrefixArtifacts::marking_of_dense(const BitVec& dense) const {
    BitVec places;
    places_of_dense(dense, places);
    petri::Marking m(places.size());
    places.for_each([&](std::size_t p) { m.add(p); });
    return m;
}

bool PrefixArtifacts::signal_enabled(BitSpan places, stg::SignalId z) const {
    STGCC_ASSERT(problem_ != nullptr);
    for (std::uint32_t k = signal_begin_[z]; k < signal_begin_[z + 1]; ++k) {
        bool enabled = true;
        for (std::uint32_t i = enabling_[k]; i < enabling_[k + 1] && enabled; ++i)
            enabled = places.test(preset_places_[i]);
        if (enabled) return true;
    }
    return false;
}

}  // namespace stgcc::cache
