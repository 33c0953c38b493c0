#include <algorithm>
#include <compare>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "stg/contraction.hpp"
#include "stg/reduce/reduce.hpp"

namespace stgcc::stg::reduce {

namespace {

/// Sorted copy of an arc span, for set comparisons.
template <typename Id>
std::vector<Id> sorted(std::span<const Id> s) {
    std::vector<Id> v(s.begin(), s.end());
    std::sort(v.begin(), v.end());
    return v;
}

/// Rebuild `in` without the places flagged in `kill`.  Transition order and
/// ids are preserved, so the witness map is the transition identity.
Stg remove_places(const Stg& in, const std::vector<bool>& kill) {
    Stg out;
    out.set_name(in.name());
    for (SignalId z = 0; z < in.num_signals(); ++z)
        out.add_signal(in.signal_name(z), in.signal_kind(z));
    const petri::Net& net = in.net();
    std::vector<petri::PlaceId> pmap(net.num_places(), petri::kNoPlace);
    for (petri::PlaceId p = 0; p < net.num_places(); ++p)
        if (!kill[p]) pmap[p] = out.add_place(net.place_name(p));
    for (petri::TransitionId t = 0; t < net.num_transitions(); ++t) {
        const petri::TransitionId nt =
            in.is_dummy(t) ? out.add_dummy_transition(net.transition_name(t))
                           : out.add_transition(net.transition_name(t),
                                                in.label(t));
        STGCC_REQUIRE(nt == t);
        for (petri::PlaceId p : net.pre(t))
            if (!kill[p]) out.add_arc_pt(pmap[p], t);
        for (petri::PlaceId p : net.post(t))
            if (!kill[p]) out.add_arc_tp(t, pmap[p]);
    }
    petri::Marking m0(out.net().num_places());
    for (petri::PlaceId p = 0; p < net.num_places(); ++p)
        if (!kill[p]) m0.set(pmap[p], in.system().initial_marking()[p]);
    out.set_initial_marking(std::move(m0));
    return out;
}

/// Identity-transition witness map (place-only passes).
WitnessMap identity_map(std::shared_ptr<const Stg> input) {
    std::vector<petri::TransitionId> tmap(input->net().num_transitions());
    for (std::size_t t = 0; t < tmap.size(); ++t)
        tmap[t] = static_cast<petri::TransitionId>(t);
    return WitnessMap(std::move(input), std::move(tmap), {});
}

/// Shared shape of the place-removal passes: `flag` marks removable places
/// given the input; the pass removes them all in one rebuild.
PassResult place_removal_pass(
    std::shared_ptr<const Stg> input,
    const std::function<std::vector<bool>(const Stg&)>& flag) {
    PassResult r;
    const std::vector<bool> kill = flag(*input);
    const std::size_t n =
        static_cast<std::size_t>(std::count(kill.begin(), kill.end(), true));
    if (n == 0) return r;
    r.changed = true;
    r.applications = n;
    r.places_removed = n;
    r.stg = remove_places(*input, kill);
    r.map = identity_map(std::move(input));
    return r;
}

/// Witness map of a contraction: surviving transitions keep their names
/// (products only rename places), so the table is a name lookup and the
/// removed set is the input dummies absent from the output.
WitnessMap contraction_map(std::shared_ptr<const Stg> input,
                           const Stg& output) {
    const petri::Net& in_net = input->net();
    const petri::Net& out_net = output.net();
    std::vector<petri::TransitionId> tmap(out_net.num_transitions());
    for (petri::TransitionId t = 0; t < out_net.num_transitions(); ++t) {
        tmap[t] = in_net.find_transition(out_net.transition_name(t));
        STGCC_REQUIRE(tmap[t] != petri::kNoTransition);
    }
    std::vector<petri::TransitionId> removed;
    for (petri::TransitionId t = 0; t < in_net.num_transitions(); ++t)
        if (out_net.find_transition(in_net.transition_name(t)) ==
            petri::kNoTransition)
            removed.push_back(t);
    return WitnessMap(std::move(input), std::move(tmap), std::move(removed));
}

class ContractPass final : public ReductionPass {
public:
    explicit ContractPass(bool series_only)
        : series_only_(series_only),
          name_(series_only ? "series" : "contract") {}
    [[nodiscard]] std::string_view name() const override { return name_; }
    [[nodiscard]] PassResult apply(
        std::shared_ptr<const Stg> input) const override {
        PassResult r;
        if (!input->has_dummies()) return r;
        ContractionResult c = contract_dummies(*input, series_only_);
        if (c.contracted == 0) return r;
        r.changed = true;
        r.applications = c.contracted;
        r.transitions_removed = c.contracted;
        // Product places may outnumber the merged ones (|P|x|Q| products
        // replace |P|+|Q| places); report the signed net as a saturating
        // count so the summary never claims negative removal.
        const std::size_t before = input->net().num_places();
        const std::size_t after = c.stg.net().num_places();
        r.places_removed = before > after ? before - after : 0;
        r.map = contraction_map(std::move(input), c.stg);
        r.stg = std::move(c.stg);
        return r;
    }

private:
    bool series_only_;
    std::string name_;
};

class DupPlacePass final : public ReductionPass {
public:
    [[nodiscard]] std::string_view name() const override { return "dup-place"; }
    [[nodiscard]] PassResult apply(
        std::shared_ptr<const Stg> input) const override {
        return place_removal_pass(std::move(input), [](const Stg& s) {
            const petri::Net& net = s.net();
            const petri::Marking& m0 = s.system().initial_marking();
            const std::size_t n = net.num_places();
            // Keep the lowest-id member of each (M0(p), •p, p•) class.  A
            // place duplicates another when preset, postset and initial
            // marking all agree: its token count then tracks the keeper's
            // in every reachable marking, so removal neither merges
            // distinct markings (USC-safe) nor changes enabling.  One sort
            // of the place ids by (key, id) puts each class in a run whose
            // first member is its lowest id: O(P log P * deg).
            struct Key {
                std::uint32_t tokens;
                std::vector<petri::TransitionId> pre, post;
                auto operator<=>(const Key&) const = default;
            };
            std::vector<Key> keys;
            keys.reserve(n);
            for (petri::PlaceId p = 0; p < n; ++p)
                keys.push_back(Key{m0[p], sorted(net.pre_of_place(p)),
                                   sorted(net.post_of_place(p))});
            std::vector<petri::PlaceId> order(n);
            for (petri::PlaceId p = 0; p < n; ++p) order[p] = p;
            std::sort(order.begin(), order.end(),
                      [&](petri::PlaceId a, petri::PlaceId b) {
                          const auto c = keys[a] <=> keys[b];
                          return c != 0 ? c < 0 : a < b;
                      });
            std::vector<bool> kill(n, false);
            for (std::size_t i = 1; i < n; ++i)
                kill[order[i]] = keys[order[i]] == keys[order[i - 1]];
            return kill;
        });
    }
};

class ConstPlacePass final : public ReductionPass {
public:
    [[nodiscard]] std::string_view name() const override {
        return "const-place";
    }
    [[nodiscard]] PassResult apply(
        std::shared_ptr<const Stg> input) const override {
        return place_removal_pass(std::move(input), [](const Stg& s) {
            const petri::Net& net = s.net();
            const petri::Marking& m0 = s.system().initial_marking();
            std::vector<bool> kill(net.num_places(), false);
            // A marked pure-self-loop place: every adjacent transition both
            // consumes and produces it, so M(p) == M0(p) >= 1 forever -- it
            // never disables a transition and never distinguishes two
            // reachable markings.  (A place with any pure producer or pure
            // consumer must stay: its varying count can encode state.)
            for (petri::PlaceId p = 0; p < net.num_places(); ++p) {
                if (m0[p] < 1) continue;
                const auto producers = sorted(net.pre_of_place(p));
                const auto consumers = sorted(net.post_of_place(p));
                if (producers.empty() && consumers.empty()) continue;
                if (producers == consumers) kill[p] = true;
            }
            return kill;
        });
    }
};

}  // namespace

const std::vector<std::string>& known_passes() {
    static const std::vector<std::string> names = {"contract", "series",
                                                   "dup-place", "const-place"};
    return names;
}

const ReductionPass* find_pass(std::string_view name) {
    static const ContractPass contract{false};
    static const ContractPass series{true};
    static const DupPlacePass dup;
    static const ConstPlacePass cst;
    if (name == "contract") return &contract;
    if (name == "series") return &series;
    if (name == "dup-place") return &dup;
    if (name == "const-place") return &cst;
    return nullptr;
}

Options Options::all() {
    Options o;
    o.enabled = true;
    o.passes = known_passes();
    return o;
}

Options Options::parse(std::string_view spec) {
    if (spec.empty() || spec == "all" || spec == "on") return all();
    if (spec == "none" || spec == "off") return none();
    Options o;
    o.enabled = true;
    std::size_t start = 0;
    while (start <= spec.size()) {
        const std::size_t comma = spec.find(',', start);
        const std::string_view name =
            spec.substr(start, comma == std::string_view::npos ? spec.size() - start
                                                               : comma - start);
        if (!name.empty()) {
            if (find_pass(name) == nullptr)
                throw ModelError("unknown reduction pass '" +
                                 std::string(name) + "'");
            o.passes.emplace_back(name);
        }
        if (comma == std::string_view::npos) break;
        start = comma + 1;
    }
    if (o.passes.empty())
        throw ModelError("empty reduction pass list '" + std::string(spec) +
                         "'");
    return o;
}

std::string Options::spec() const {
    if (!enabled) return "none";
    const std::vector<std::string>& list =
        passes.empty() ? known_passes() : passes;
    std::string out;
    for (const std::string& p : list) {
        if (!out.empty()) out += ',';
        out += p;
    }
    return out;
}

}  // namespace stgcc::stg::reduce
