#include "petri/pnml.hpp"

#include <gtest/gtest.h>

#include "petri/reachability.hpp"
#include "stg/benchmarks.hpp"
#include "test_util.hpp"

namespace stgcc::petri {
namespace {

TEST(Pnml, RoundtripPreservesStructure) {
    std::vector<stg::Stg> models;
    models.push_back(stg::bench::vme_bus());
    models.push_back(stg::bench::token_ring(2));
    models.push_back(stg::bench::muller_pipeline(3));
    models.push_back(test::random_stg(42));
    for (const auto& model : models) {
        const NetSystem& original = model.system();
        NetSystem reparsed = parse_pnml_string(write_pnml_string(original));
        EXPECT_EQ(reparsed.net().num_places(), original.net().num_places());
        EXPECT_EQ(reparsed.net().num_transitions(),
                  original.net().num_transitions());
        EXPECT_EQ(reparsed.net().num_arcs(), original.net().num_arcs());
        // Behaviour is identical: same reachability graph size and safety.
        ReachabilityGraph rg1(original), rg2(reparsed);
        EXPECT_EQ(rg1.num_states(), rg2.num_states()) << model.name();
        EXPECT_EQ(rg1.num_edges(), rg2.num_edges()) << model.name();
        EXPECT_EQ(rg1.is_safe(), rg2.is_safe()) << model.name();
    }
}

TEST(Pnml, NamesSurviveRoundtrip) {
    auto model = stg::bench::vme_bus();
    NetSystem reparsed = parse_pnml_string(write_pnml_string(model.system()));
    for (TransitionId t = 0; t < model.net().num_transitions(); ++t) {
        const auto t2 = reparsed.net().find_transition(
            model.net().transition_name(t));
        EXPECT_NE(t2, kNoTransition) << model.net().transition_name(t);
    }
    // Place names with XML-special characters (the implicit "<a,b>" names)
    // must be escaped and restored.
    for (PlaceId p = 0; p < model.net().num_places(); ++p)
        EXPECT_NE(reparsed.net().find_place(model.net().place_name(p)), kNoPlace)
            << model.net().place_name(p);
}

TEST(Pnml, MarkingSurvivesRoundtrip) {
    auto model = stg::bench::token_ring(3);
    NetSystem reparsed = parse_pnml_string(write_pnml_string(model.system()));
    EXPECT_EQ(reparsed.initial_marking().total_tokens(),
              model.system().initial_marking().total_tokens());
}

TEST(Pnml, HandwrittenMinimalNet) {
    const char* text = R"(<?xml version="1.0"?>
<pnml>
  <net id="n" type="ptnet">
    <page id="pg">
      <place id="p1"><name><text>start</text></name>
        <initialMarking><text>2</text></initialMarking></place>
      <place id="p2"/>
      <transition id="t1"><name><text>go</text></name></transition>
      <arc id="a1" source="p1" target="t1"/>
      <arc id="a2" source="t1" target="p2"/>
    </page>
  </net>
</pnml>)";
    NetSystem sys = parse_pnml_string(text);
    EXPECT_EQ(sys.net().num_places(), 2u);
    EXPECT_EQ(sys.net().num_transitions(), 1u);
    const PlaceId start = sys.net().find_place("start");
    ASSERT_NE(start, kNoPlace);
    EXPECT_EQ(sys.initial_marking()[start], 2u);
    EXPECT_NE(sys.net().find_transition("go"), kNoTransition);
}

TEST(Pnml, Errors) {
    EXPECT_THROW(parse_pnml_string("<pnml><arc id=\"a\" source=\"x\" "
                                   "target=\"y\"/></pnml>"),
                 ModelError);
    EXPECT_THROW(parse_pnml_string("<pnml><place/></pnml>"), ModelError);
    EXPECT_THROW(parse_pnml_string("<pnml><place id=\"p\">"
                                   "<initialMarking><text>zz</text>"
                                   "</initialMarking></place></pnml>"),
                 ModelError);
    EXPECT_THROW(parse_pnml_string("<unterminated"), ModelError);
    EXPECT_THROW(load_pnml_file("/nonexistent.pnml"), ModelError);
}

/// One marked place p feeding transition t through an arc whose
/// inscription is `weight`: the ROADMAP's weight-2 / 1-token example.
std::string weighted_net(const std::string& weight) {
    return R"(<pnml><net id="n" type="ptnet"><page id="pg">
  <place id="p"><initialMarking><text>1</text></initialMarking></place>
  <place id="q"/>
  <transition id="t"/>
  <arc id="w" source="p" target="t"><inscription><text>)" +
           weight + R"(</text></inscription></arc>
  <arc id="a2" source="t" target="q"/>
</page></net></pnml>)";
}

TEST(Pnml, RejectsWeightedArcNamingIt) {
    // Read as weight 1, this net would fire t once (2 states, deadlock
    // after t); with weight 2 the initial marking is already dead.  An
    // ordinary net cannot say that, so the parser refuses the model.
    try {
        (void)parse_pnml_string(weighted_net("2"));
        FAIL() << "weight-2 arc accepted";
    } catch (const ModelError& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("arc 'w' (p -> t)"), std::string::npos) << msg;
        EXPECT_NE(msg.find("weight '2'"), std::string::npos) << msg;
    }
    EXPECT_THROW(parse_pnml_string(weighted_net("0")), ModelError);
    EXPECT_THROW(parse_pnml_string(weighted_net("x")), ModelError);
    EXPECT_THROW(parse_pnml_string(weighted_net("")), ModelError);
    EXPECT_THROW(parse_pnml_string(weighted_net("99999999999999999999999")),
                 ModelError);
}

TEST(Pnml, AcceptsExplicitWeightOne) {
    for (const char* w : {"1", " 1 ", "01"}) {
        const NetSystem sys = parse_pnml_string(weighted_net(w));
        EXPECT_EQ(sys.net().num_arcs(), 2u) << w;
        EXPECT_EQ(ReachabilityGraph(sys).num_states(), 2u) << w;
    }
}

}  // namespace
}  // namespace stgcc::petri
