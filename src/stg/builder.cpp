#include "stg/builder.hpp"

namespace stgcc::stg {

namespace {

/// Strip an optional "/k" instance suffix: "a+/2" -> ("a+", true).
std::string strip_instance(const std::string& text) {
    const auto slash = text.rfind('/');
    if (slash == std::string::npos) return text;
    // Require digits after the slash.
    if (slash + 1 >= text.size()) return text;
    for (std::size_t i = slash + 1; i < text.size(); ++i)
        if (!std::isdigit(static_cast<unsigned char>(text[i]))) return text;
    return text.substr(0, slash);
}

}  // namespace

StgBuilder::StgBuilder(std::string model_name) {
    stg_.set_name(std::move(model_name));
}

StgBuilder& StgBuilder::signal(const std::string& name, SignalKind kind) {
    STGCC_REQUIRE(!built_);
    if (stg_.find_signal(name) != kNoSignal)
        throw ModelError("duplicate signal declaration: " + name);
    if (dummies_.count(name))
        throw ModelError("name declared both as signal and dummy: " + name);
    stg_.add_signal(name, kind);
    return *this;
}

StgBuilder& StgBuilder::dummy(const std::string& name) {
    STGCC_REQUIRE(!built_);
    if (stg_.find_signal(name) != kNoSignal)
        throw ModelError("name declared both as signal and dummy: " + name);
    dummies_[name] = true;
    return *this;
}

StgBuilder& StgBuilder::place(const std::string& name, std::uint32_t tokens) {
    STGCC_REQUIRE(!built_);
    if (stg_.net().find_place(name) != petri::kNoPlace)
        throw ModelError("duplicate place: " + name);
    const petri::PlaceId p = stg_.add_place(name);
    init_tokens_.resize(p + 1, 0);
    init_tokens_[p] = tokens;
    return *this;
}

petri::TransitionId StgBuilder::transition_for(const std::string& text) {
    if (const petri::TransitionId t = stg_.net().find_transition(text);
        t != petri::kNoTransition)
        return t;

    const std::string base = strip_instance(text);
    petri::TransitionId t;
    if (dummies_.count(base)) {
        t = stg_.add_dummy_transition(text);
    } else {
        const ParsedLabel parsed = parse_label_text(base);
        const SignalId z = stg_.find_signal(parsed.signal_name);
        if (z == kNoSignal)
            throw ModelError("transition '" + text + "' refers to undeclared signal '" +
                             parsed.signal_name + "'");
        t = stg_.add_transition(text, Label{z, parsed.polarity});
    }
    return t;
}

StgBuilder::Node StgBuilder::resolve(const std::string& text) {
    STGCC_REQUIRE(!text.empty());
    if (const petri::PlaceId p = stg_.net().find_place(text);
        p != petri::kNoPlace)
        return Node{NodeKind::Place, p};
    return Node{NodeKind::Transition, transition_for(text)};
}

petri::PlaceId StgBuilder::implicit_place(const std::string& from,
                                          const std::string& to) {
    const std::string name = "<" + from + "," + to + ">";
    const petri::PlaceId p = stg_.net().find_place(name);
    if (p == petri::kNoPlace) throw ModelError("no implicit place " + name);
    return p;
}

StgBuilder& StgBuilder::arc(const std::string& from, const std::string& to) {
    STGCC_REQUIRE(!built_);
    const Node a = resolve(from);
    const Node b = resolve(to);
    if (a.kind == NodeKind::Place && b.kind == NodeKind::Place)
        throw ModelError("arc between two places: " + from + " -> " + to);
    if (a.kind == NodeKind::Place) {
        if (stg_.net().has_arc_pt(a.id, b.id))
            throw ModelError("duplicate arc: " + from + " -> " + to);
        stg_.add_arc_pt(a.id, b.id);
    } else if (b.kind == NodeKind::Place) {
        if (stg_.net().has_arc_tp(a.id, b.id))
            throw ModelError("duplicate arc: " + from + " -> " + to);
        stg_.add_arc_tp(a.id, b.id);
    } else {
        // A repeated transition->transition arc re-creates the same implicit
        // place: reject it as a duplicate rather than tripping the net's
        // arc-uniqueness contract.
        std::string name = "<" + from + "," + to + ">";
        if (stg_.net().find_place(name) != petri::kNoPlace)
            throw ModelError("duplicate arc: " + from + " -> " + to);
        const petri::PlaceId p = stg_.add_place(std::move(name));
        init_tokens_.resize(p + 1, 0);
        stg_.add_arc_tp(a.id, p);
        stg_.add_arc_pt(p, b.id);
    }
    return *this;
}

StgBuilder& StgBuilder::chain(const std::vector<std::string>& nodes) {
    for (std::size_t i = 0; i + 1 < nodes.size(); ++i) arc(nodes[i], nodes[i + 1]);
    return *this;
}

StgBuilder& StgBuilder::token_between(const std::string& from, const std::string& to,
                                      std::uint32_t count) {
    STGCC_REQUIRE(!built_);
    const petri::PlaceId p = implicit_place(from, to);
    init_tokens_.resize(std::max<std::size_t>(init_tokens_.size(), p + 1), 0);
    // Saturate: a count that wrapped would turn a non-safe marking safe.
    std::uint32_t& held = init_tokens_[p];
    held = count > UINT32_MAX - held ? UINT32_MAX : held + count;
    return *this;
}

StgBuilder& StgBuilder::tokens(const std::string& place_name, std::uint32_t count) {
    STGCC_REQUIRE(!built_);
    const petri::PlaceId p = stg_.net().find_place(place_name);
    if (p == petri::kNoPlace) throw ModelError("unknown place: " + place_name);
    init_tokens_.resize(std::max<std::size_t>(init_tokens_.size(), p + 1), 0);
    init_tokens_[p] = count;
    return *this;
}

Stg StgBuilder::build() {
    STGCC_REQUIRE(!built_);
    built_ = true;
    const petri::Net& net = stg_.net();
    for (petri::TransitionId t = 0; t < net.num_transitions(); ++t) {
        if (net.pre(t).empty())
            throw ModelError("transition " + net.transition_name(t) +
                             " has an empty preset");
        if (net.post(t).empty())
            throw ModelError("transition " + net.transition_name(t) +
                             " has an empty postset");
    }
    petri::Marking m0(net.num_places());
    for (std::size_t p = 0; p < init_tokens_.size(); ++p) m0.set(p, init_tokens_[p]);
    stg_.set_initial_marking(std::move(m0));
    return std::move(stg_);
}

}  // namespace stgcc::stg
