#include "petri/net.hpp"

#include <algorithm>

namespace stgcc::petri {

PlaceId Net::add_place(std::string name) {
    STGCC_REQUIRE(!name.empty());
    const PlaceId id = static_cast<PlaceId>(place_names_.size());
    const bool fresh = place_index_.try_emplace(name, id).second;
    STGCC_REQUIRE(fresh);
    place_names_.push_back(std::move(name));
    place_pre_.emplace_back();
    place_post_.emplace_back();
    return id;
}

TransitionId Net::add_transition(std::string name) {
    STGCC_REQUIRE(!name.empty());
    const TransitionId id = static_cast<TransitionId>(trans_names_.size());
    const bool fresh = trans_index_.try_emplace(name, id).second;
    STGCC_REQUIRE(fresh);
    trans_names_.push_back(std::move(name));
    trans_pre_.emplace_back();
    trans_post_.emplace_back();
    return id;
}

void Net::add_arc_pt(PlaceId p, TransitionId t) {
    STGCC_REQUIRE(p < num_places() && t < num_transitions());
    STGCC_REQUIRE(!has_arc_pt(p, t));
    trans_pre_[t].push_back(p);
    place_post_[p].push_back(t);
    ++num_arcs_;
}

void Net::add_arc_tp(TransitionId t, PlaceId p) {
    STGCC_REQUIRE(p < num_places() && t < num_transitions());
    STGCC_REQUIRE(!has_arc_tp(t, p));
    trans_post_[t].push_back(p);
    place_pre_[p].push_back(t);
    ++num_arcs_;
}

PlaceId Net::find_place(std::string_view name) const {
    auto it = place_index_.find(name);
    return it == place_index_.end() ? kNoPlace : it->second;
}

TransitionId Net::find_transition(std::string_view name) const {
    auto it = trans_index_.find(name);
    return it == trans_index_.end() ? kNoTransition : it->second;
}

bool Net::has_arc_pt(PlaceId p, TransitionId t) const {
    STGCC_REQUIRE(p < num_places() && t < num_transitions());
    const auto& pre = trans_pre_[t];
    return std::find(pre.begin(), pre.end(), p) != pre.end();
}

bool Net::has_arc_tp(TransitionId t, PlaceId p) const {
    STGCC_REQUIRE(p < num_places() && t < num_transitions());
    const auto& post = trans_post_[t];
    return std::find(post.begin(), post.end(), p) != post.end();
}

int Net::incidence(PlaceId p, TransitionId t) const {
    const bool consumes = has_arc_pt(p, t);
    const bool produces = has_arc_tp(t, p);
    return static_cast<int>(produces) - static_cast<int>(consumes);
}

}  // namespace stgcc::petri
