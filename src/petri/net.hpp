// stgcc -- place/transition nets.
//
// A Net is the static structure (S, T, F) of a Petri net: places,
// transitions, and the flow relation stored as adjacency lists in both
// directions.  Arc weights are implicitly 1 (the paper deals with ordinary
// nets; STG benchmarks are ordinary and almost always safe).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/assert.hpp"

namespace stgcc::petri {

using PlaceId = std::uint32_t;
using TransitionId = std::uint32_t;

inline constexpr PlaceId kNoPlace = static_cast<PlaceId>(-1);
inline constexpr TransitionId kNoTransition = static_cast<TransitionId>(-1);

class Net {
public:
    /// Add a place; names must be unique and non-empty.
    PlaceId add_place(std::string name);

    /// Add a transition; names must be unique and non-empty.
    TransitionId add_transition(std::string name);

    /// Add an arc place -> transition.  Duplicate arcs are rejected.
    void add_arc_pt(PlaceId p, TransitionId t);

    /// Add an arc transition -> place.  Duplicate arcs are rejected.
    void add_arc_tp(TransitionId t, PlaceId p);

    [[nodiscard]] std::size_t num_places() const noexcept { return place_names_.size(); }
    [[nodiscard]] std::size_t num_transitions() const noexcept { return trans_names_.size(); }

    [[nodiscard]] const std::string& place_name(PlaceId p) const {
        STGCC_REQUIRE(p < num_places());
        return place_names_[p];
    }
    [[nodiscard]] const std::string& transition_name(TransitionId t) const {
        STGCC_REQUIRE(t < num_transitions());
        return trans_names_[t];
    }

    /// Look up a place by name; returns kNoPlace when absent.
    [[nodiscard]] PlaceId find_place(std::string_view name) const;
    /// Look up a transition by name; returns kNoTransition when absent.
    [[nodiscard]] TransitionId find_transition(std::string_view name) const;

    /// Preset of a transition: places with an arc into t.
    [[nodiscard]] std::span<const PlaceId> pre(TransitionId t) const {
        STGCC_REQUIRE(t < num_transitions());
        return trans_pre_[t];
    }
    /// Postset of a transition: places with an arc out of t.
    [[nodiscard]] std::span<const PlaceId> post(TransitionId t) const {
        STGCC_REQUIRE(t < num_transitions());
        return trans_post_[t];
    }
    /// Preset of a place: transitions with an arc into p.
    [[nodiscard]] std::span<const TransitionId> pre_of_place(PlaceId p) const {
        STGCC_REQUIRE(p < num_places());
        return place_pre_[p];
    }
    /// Postset of a place: transitions consuming from p.
    [[nodiscard]] std::span<const TransitionId> post_of_place(PlaceId p) const {
        STGCC_REQUIRE(p < num_places());
        return place_post_[p];
    }

    [[nodiscard]] bool has_arc_pt(PlaceId p, TransitionId t) const;
    [[nodiscard]] bool has_arc_tp(TransitionId t, PlaceId p) const;

    /// Incidence matrix entry I[p][t] = post(t,p) - pre(t,p), in {-1,0,1}
    /// for ordinary nets without self-loops; self-loop entries are 0.
    [[nodiscard]] int incidence(PlaceId p, TransitionId t) const;

    /// Total number of arcs in the flow relation.
    [[nodiscard]] std::size_t num_arcs() const noexcept { return num_arcs_; }

private:
    /// Transparent string hash: name lookups by string_view allocate
    /// nothing (the parser resolves every arc endpoint by name).
    struct NameHash {
        using is_transparent = void;
        std::size_t operator()(std::string_view s) const noexcept {
            return std::hash<std::string_view>{}(s);
        }
    };
    template <typename Id>
    using NameIndex =
        std::unordered_map<std::string, Id, NameHash, std::equal_to<>>;

    std::vector<std::string> place_names_;
    std::vector<std::string> trans_names_;
    NameIndex<PlaceId> place_index_;
    NameIndex<TransitionId> trans_index_;
    std::vector<std::vector<PlaceId>> trans_pre_;
    std::vector<std::vector<PlaceId>> trans_post_;
    std::vector<std::vector<TransitionId>> place_pre_;
    std::vector<std::vector<TransitionId>> place_post_;
    std::size_t num_arcs_ = 0;
};

}  // namespace stgcc::petri
