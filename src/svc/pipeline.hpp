// stgcc -- the one model-to-report pipeline (docs/SERVICE.md,
// docs/CACHING.md).
//
// stgcheck, stgbatch and stgd turn model text into verdicts the same way:
//   1. rendered tier: a finished Rendered outcome stored under
//      ("rendered", FNV-1a hash of the model bytes, CheckOptions::signature());
//   2. prepare: parse and reduce the model (PreparedModel);
//   3. check: the semantic tier ("stgcore", keyed by the reduced net's
//      canonical hash), else unfold and run the checks; witnesses are
//      translated back to the input net either way;
//   4. render: report text, verdict line, stgbatch row and stgcheck --json
//      body, stored in the rendered tier.
// check_model runs all four; core::verify_stg and core::verify_stg_cached
// are thin wrappers over steps 2 and 3.  Nothing else reads or writes the
// two cache tiers.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "cache/prefix_artifacts.hpp"
#include "cache/result_cache.hpp"
#include "core/verifier.hpp"
#include "obs/json.hpp"
#include "sched/cancellation.hpp"
#include "sched/parallel.hpp"
#include "svc/protocol.hpp"

namespace stgcc::svc {

/// The one CheckOptions -> VerifyOptions conversion (jobs stays 1, no
/// cancel token).  Throws ModelError when the reduce spec does not parse.
[[nodiscard]] core::VerifyOptions verify_options(const CheckOptions& copts);

/// A parsed model, reduced and ready to check.  The semantic key and the
/// prefix artifacts are computed on first use, at most once, and only when
/// asked for: a semantic-tier hit never unfolds.  Safe to share across
/// threads (stgd keeps recent ones in an LRU).
class PreparedModel {
public:
    /// Run `opts.effective_reduce()` on `model`; `opts.unfold` is kept for
    /// artifacts().  `model` may be a non-owning handle (verify_stg passes
    /// the caller's net without copying it): it must then outlive this
    /// object, and the artifacts too when no reduction changed the net.
    PreparedModel(std::shared_ptr<const stg::Stg> model,
                  const core::VerifyOptions& opts);

    /// The net as given; every witness is reported on it.
    [[nodiscard]] const stg::Stg& model() const noexcept { return *model_; }
    /// The net the checks run on (== model() unless reduced).
    [[nodiscard]] const stg::Stg& checked() const noexcept { return *checked_; }
    [[nodiscard]] const stg::reduce::Summary& reduction() const noexcept {
        return reduction_;
    }
    /// Witness translation checked() -> model() (empty when not reduced).
    [[nodiscard]] const stg::reduce::WitnessChain& chain() const noexcept {
        return chain_;
    }
    /// Canonical hash of checked(): the semantic-tier key.
    [[nodiscard]] std::uint64_t semantic_key() const;
    /// Prefix artifacts of checked().  Throws ModelError as PrefixArtifacts
    /// does (a later call retries).
    [[nodiscard]] cache::PrefixArtifactsPtr artifacts() const;

private:
    std::shared_ptr<const stg::Stg> model_, checked_;
    stg::reduce::Summary reduction_;
    stg::reduce::WitnessChain chain_;
    unf::UnfoldOptions unfold_;
    mutable std::once_flag key_once_, artifacts_once_;
    mutable std::uint64_t semantic_key_ = 0;
    mutable cache::PrefixArtifactsPtr artifacts_;
};

/// The one check.  With an enabled `semantic_tier` the stored report of
/// an equivalent reduced net is decoded instead of searching (report
/// .artifacts is then null and `semantic_hit` true), and a fresh report is
/// stored.  The checks run on `ex`, or on an Executor(opts.jobs) made only
/// when they run.  The report's witnesses are on model().  A cancelled
/// check (opts.search.cancel fired) returns its partial report
/// untranslated and stores nothing; callers discard it.
[[nodiscard]] core::VerificationReport check(
    const PreparedModel& model, const core::VerifyOptions& opts,
    const cache::ResultCache* semantic_tier = nullptr,
    sched::Executor* ex = nullptr, bool* semantic_hit = nullptr);

/// One fully rendered verification outcome: everything a client needs to
/// replay stgcheck / stgbatch output byte for byte, and exactly the value
/// stored in the rendered tier.
struct Rendered {
    int exit_code = 2;
    bool all_hold = false;
    std::string verdict;       ///< stgbatch one-line verdict
    std::string report;        ///< stgcheck multi-line report text
    std::string deadlock_via;  ///< "deadlock via: ..." line, "" when none
    obs::Json row;             ///< stgbatch report row, minus "file"
    obs::Json json;            ///< stgcheck --json body (no build/metrics)
};

/// True when every checked property holds (exit code 0, row status "ok").
[[nodiscard]] bool all_hold(const core::VerificationReport& r);

/// "USC:ok CSC:VIOLATED normalcy:ok ..." -- one field per checked property.
[[nodiscard]] std::string verdict_line(const core::VerificationReport& r);

/// Render a report whose witnesses are on `model`.
[[nodiscard]] Rendered render(const stg::Stg& model,
                              const core::VerificationReport& r);

/// Rendered <-> rendered-tier payload.
[[nodiscard]] obs::Json rendered_payload(const Rendered& r);
[[nodiscard]] std::optional<Rendered> rendered_from_payload(const obs::Json& v);

/// What check_model produced.
struct ModelCheck {
    Rendered rendered;
    /// "disk" (rendered tier), "semantic" (semantic tier) or nullptr (a
    /// fresh solve).
    const char* tier = nullptr;
    /// The full report; empty on a rendered-tier hit.
    core::VerificationReport report;
    /// The cancel token fired: nothing is rendered or stored.
    bool cancelled = false;
};

/// Builds the PreparedModel for check_model (stgd serves it from its
/// bundle LRU); the default parses the text.
using Prepare = std::function<std::shared_ptr<const PreparedModel>(
    const core::VerifyOptions&)>;

/// The whole pipeline on model text.  Both tiers are used when
/// copts.use_cache and `rcache` is enabled.  The checks run on `ex`, or
/// when it is null on an Executor(jobs) made only on a miss, so a cache hit
/// starts no threads.  Throws ModelError on a bad reduce spec or model.
[[nodiscard]] ModelCheck check_model(const std::string& text,
                                     const CheckOptions& copts,
                                     const cache::ResultCache& rcache,
                                     sched::Executor* ex, unsigned jobs = 1,
                                     const sched::CancellationToken& cancel = {},
                                     const Prepare& prepare = {});

}  // namespace stgcc::svc
