#include <algorithm>
#include <cstdint>
#include <span>
#include <string_view>

#include "cache/result_cache.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "stg/reduce/reduce.hpp"

namespace stgcc::stg::reduce {

std::size_t Summary::places_removed() const {
    std::size_t n = 0;
    for (const PassStats& p : passes) n += p.places_removed;
    return n;
}

std::size_t Summary::transitions_removed() const {
    std::size_t n = 0;
    for (const PassStats& p : passes) n += p.transitions_removed;
    return n;
}

ReduceResult run_passes(std::shared_ptr<const Stg> input,
                        const Options& opts) {
    STGCC_REQUIRE(input != nullptr);
    ReduceResult result;
    result.stg = input;
    if (!opts.enabled) return result;

    obs::Span span("reduce");
    span.attr("stg", input->name());
    const std::vector<std::string>& names =
        opts.passes.empty() ? known_passes() : opts.passes;
    std::vector<const ReductionPass*> passes;
    for (const std::string& name : names) {
        const ReductionPass* pass = find_pass(name);
        if (pass == nullptr)
            throw ModelError("unknown reduction pass '" + name + "'");
        passes.push_back(pass);
        result.summary.passes.push_back(PassStats{name, 0, 0, 0});
    }

    // Fixed point over rounds: each round applies every pass once (each
    // pass runs its own rule to a local fixed point); stop when a full
    // round changes nothing.  Rounds matter because passes enable one
    // another -- removing a const self-loop place can make a dummy
    // contractable that was not before.
    std::shared_ptr<const Stg> current = std::move(input);
    bool changed = true;
    while (changed) {
        changed = false;
        ++result.summary.rounds;
        for (std::size_t i = 0; i < passes.size(); ++i) {
            obs::Span pass_span("reduce.pass");
            pass_span.attr("pass", passes[i]->name());
            PassResult r = passes[i]->apply(current);
            pass_span.attr("applications", r.applications);
            if (!r.changed) continue;
            changed = true;
            PassStats& stats = result.summary.passes[i];
            stats.applications += r.applications;
            stats.places_removed += r.places_removed;
            stats.transitions_removed += r.transitions_removed;
            current = std::make_shared<const Stg>(std::move(r.stg));
            result.chain.push(std::move(r.map));
        }
    }

    const petri::Net& net = current->net();
    for (petri::TransitionId t = 0; t < net.num_transitions(); ++t)
        if (current->is_dummy(t))
            result.summary.remaining_dummies.push_back(net.transition_name(t));

    obs::counter("stg.reduce.runs").add(1);
    obs::counter("stg.reduce.places_removed")
        .add(result.summary.places_removed());
    obs::counter("stg.reduce.transitions_removed")
        .add(result.summary.transitions_removed());
    span.attr("rounds", result.summary.rounds);
    span.attr("places_removed", result.summary.places_removed());
    span.attr("transitions_removed", result.summary.transitions_removed());
    result.stg = std::move(current);
    return result;
}

namespace {

/// Lines rendered back to back into one buffer, emitted in byte order:
/// the canonical form sorts whole lines, so sorting views of the rendered
/// lines reproduces it exactly without one string per line.
class SortedLines {
public:
    std::string& buf() { return buf_; }
    void end_line() { ends_.push_back(buf_.size()); }

    void append_sorted(std::string& out) const {
        // Each line carries its first 8 bytes packed big-endian (zero
        // padded): integer order on the heads is byte order on those
        // bytes, so most comparisons never reach the text.
        struct Line {
            std::uint64_t head;
            std::string_view text;
            bool operator<(const Line& o) const {
                return head != o.head ? head < o.head : text < o.text;
            }
        };
        std::vector<Line> lines;
        lines.reserve(ends_.size());
        std::size_t begin = 0;
        for (const std::size_t end : ends_) {
            const std::string_view text(buf_.data() + begin, end - begin);
            std::uint64_t head = 0;
            for (std::size_t i = 0; i < 8; ++i)
                head = head << 8 |
                       (i < text.size() ? static_cast<unsigned char>(text[i])
                                        : 0u);
            lines.push_back(Line{head, text});
            begin = end;
        }
        std::sort(lines.begin(), lines.end());
        for (const Line& l : lines) {
            out += l.text;
            out += '\n';
        }
    }

private:
    std::string buf_;
    std::vector<std::size_t> ends_;
};

}  // namespace

std::string canonical_text(const Stg& stg) {
    // Deterministic, name-complete rendering: section per element kind,
    // arc lists sorted by endpoint name.  Element *order* in the file does
    // not matter to structural identity, so names are sorted too -- two
    // nets built in different insertion orders canonicalize identically.
    // The bytes are the on-disk "stgcore" cache key (docs/CACHING.md):
    // tests/reduce_test.cpp pins them, and any change needs a new
    // "stgcanon/N" header.
    const petri::Net& net = stg.net();
    const petri::Marking& m0 = stg.system().initial_marking();
    const std::size_t num_places = net.num_places();

    SortedLines places;
    for (petri::PlaceId p = 0; p < num_places; ++p) {
        places.buf() += net.place_name(p);
        places.buf() += ' ';
        places.buf() += std::to_string(m0[p]);
        places.end_line();
    }

    SortedLines transitions;
    std::vector<petri::PlaceId> arcs;
    const auto append_arcs = [&](std::span<const petri::PlaceId> list) {
        // Sorted by place name; most lists hold a single place.
        arcs.assign(list.begin(), list.end());
        if (arcs.size() > 1)
            std::sort(arcs.begin(), arcs.end(),
                      [&](petri::PlaceId a, petri::PlaceId b) {
                          return net.place_name(a) < net.place_name(b);
                      });
        for (const petri::PlaceId p : arcs) {
            transitions.buf() += ' ';
            transitions.buf() += net.place_name(p);
        }
    };
    for (petri::TransitionId t = 0; t < net.num_transitions(); ++t) {
        std::string& line = transitions.buf();
        line += net.transition_name(t);
        line += ' ';
        line += stg.label_text(t);
        line += " <-";
        append_arcs(net.pre(t));
        line += " ->";
        append_arcs(net.post(t));
        transitions.end_line();
    }

    std::string out;
    out.reserve(places.buf().size() + transitions.buf().size() +
                num_places + net.num_transitions() + 64 +
                16 * stg.num_signals());
    out += "stgcanon/1\n";
    // Signal *order* is significant (codes and Out sets index by SignalId),
    // so signal lines are not sorted; place/transition order is not -- the
    // report codec addresses those by name.
    out += "signals " + std::to_string(stg.num_signals()) + "\n";
    for (SignalId z = 0; z < stg.num_signals(); ++z) {
        out += stg.signal_name(z);
        out += ' ';
        out += std::to_string(static_cast<int>(stg.signal_kind(z)));
        out += '\n';
    }
    out += "places " + std::to_string(num_places) + "\n";
    places.append_sorted(out);
    out += "transitions " + std::to_string(net.num_transitions()) + "\n";
    transitions.append_sorted(out);
    return out;
}

std::uint64_t semantic_hash(const Stg& stg) {
    return cache::fnv1a64(canonical_text(stg));
}

}  // namespace stgcc::stg::reduce
