// stgbatch: corpus driver -- verify a whole directory (or manifest) of
// ASTG (.g) models concurrently on the src/sched/ work-stealing pool.
//
// The manifest is either a directory (every *.g file, sorted by name) or a
// text file with one model path per line (relative paths resolve against
// the manifest's directory; '#' starts a comment).  Models are verified
// model-parallel through the shared pipeline (svc/pipeline.hpp), and the
// pool spreads models and each model's inner checks over the workers.  One
// result line is streamed per model as it finishes; the aggregate JSON
// report (--json) lists models in manifest order, so verdicts are
// byte-stable at any --jobs value.
//
// Caching (docs/CACHING.md): with a cache directory configured
// (--cache-dir or $STGCC_CACHE_DIR), each model's rendered verdict is
// stored keyed by the model file's content hash and the checker options,
// and its report keyed by the reduced net; a warm corpus run replays hits
// without re-verifying, and entries written by stgcheck or stgd hit too.
// --no-cache disables the result cache and learned-clause sharing.
//
// Exit codes: 0 = every model satisfies all checked properties,
//             1 = at least one conflict / violation found,
//             2 = usage or IO error (including any model failing to load).
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <string>
#include <vector>

#include "cache/clause_store.hpp"
#include "cache/result_cache.hpp"
#include "obs/eventlog.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "sched/parallel.hpp"
#include "sched/thread_pool.hpp"
#include "svc/client.hpp"
#include "svc/pipeline.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace stgcc;
namespace fs = std::filesystem;

void print_usage(std::ostream& out) {
    out << "usage: stgbatch <dir | manifest.txt> [options]\n"
           "\n"
           "manifest: a directory (all *.g files, sorted) or a text file\n"
           "with one .g path per line ('#' comments; relative paths are\n"
           "resolved against the manifest's directory)\n"
           "\n"
           "options:\n"
           "  --jobs N         worker threads (default: hardware concurrency;\n"
           "                   1 = serial; verdicts are identical at any N)\n"
           "  --no-normalcy    skip the normalcy check\n"
           "  --reduce[=LIST]  verdict-preserving net reductions first\n"
           "                   (docs/REDUCTIONS.md): all passes or a comma\n"
           "                   list; witnesses stay on the original nets\n"
           "  --no-reduce      disable reductions (the default)\n"
           "  --contract       legacy alias for --reduce=contract\n"
           "  --deadlock       also run the deadlock check\n"
           "  --quiet          suppress per-model result lines\n"
           "  --json FILE      write the aggregate machine-readable report\n"
           "  --trace FILE     write a Chrome trace-event JSON\n"
           "  --cache-dir DIR  on-disk result cache (default: $STGCC_CACHE_DIR;\n"
           "                   unset = no result cache)\n"
           "  --no-cache       disable result cache and learned-clause sharing\n"
           "  --connect EP     verify through a running stgd at EP\n"
           "                   (unix:/path or host:port); verdicts and the\n"
           "                   aggregate report match a local run\n"
           "  --deadline-ms D  per-request deadline (--connect only)\n"
           "\n"
           "exit codes: 0 = all properties hold on every model,\n"
           "            1 = conflict found, 2 = usage/IO error\n";
}

/// A content-addressed report row labelled with the manifest path as its
/// leading member.
obs::Json labelled_row(const std::string& file, const obs::Json& row) {
    return obs::Json::object().set("file", file).merge(row);
}

/// Everything recorded about one model, merged in manifest order.  Holds
/// only rendered data (verdict line, report row) -- full reports and their
/// prefix artifacts are dropped as soon as each model finishes, and cache
/// hits never materialise them at all.
struct ModelResult {
    std::string file;       ///< path as listed in the manifest
    bool loaded = false;
    bool all_hold = false;
    std::string error;      ///< load/verify failure, when !loaded
    std::string verdict;    ///< streamed verdict line
    obs::Json row;          ///< aggregate-report row (seconds appended later)
    double seconds = 0.0;
    /// Scheduler attribution for this model's task group: the model task
    /// itself plus every nested task it fanned out (first-difference
    /// subproblems of its solves).  Volatile -- appended to the row under
    /// "stats", never cached.
    std::uint64_t tasks = 0;
    std::uint64_t queue_delay_ns = 0;
    cache::ClauseStore::Efficacy cuts;
};

/// Reduction totals across the corpus, summed from the (cached or fresh)
/// report rows so warm and cold runs aggregate identically.
obs::Json reduction_summary(const std::vector<ModelResult>& results) {
    std::size_t places = 0, transitions = 0, remaining = 0, reduced = 0;
    for (const ModelResult& r : results) {
        const obs::Json* red = r.row.find("reduction");
        if (!red) continue;
        ++reduced;
        if (const obs::Json* v = red->find("places_removed"))
            places += static_cast<std::size_t>(v->as_int());
        if (const obs::Json* v = red->find("transitions_removed"))
            transitions += static_cast<std::size_t>(v->as_int());
        if (const obs::Json* v = red->find("remaining_dummies"))
            remaining += v->size();
    }
    return obs::Json::object()
        .set("models_reduced", reduced)
        .set("places_removed", places)
        .set("transitions_removed", transitions)
        .set("remaining_dummies", remaining);
}

/// Record a model that failed to load or verify.  Failures are never
/// cached: the message may depend on environment state (permissions,
/// limits).
/// The error of a manifest entry that cannot be read, local or connected.
std::string cannot_open(const std::string& file) {
    return "cannot open ASTG file: " + file;
}

void fail(ModelResult& r, const std::string& file, std::string error) {
    r.error = std::move(error);
    r.verdict = "ERROR (" + r.error + ")";
    r.row = obs::Json::object()
                .set("file", file)
                .set("status", "error")
                .set("error", r.error);
}

/// Corpus outcome counts; the exit code follows from them.
struct Tally {
    std::size_t ok = 0, violated = 0, errors = 0;

    explicit Tally(const std::vector<ModelResult>& results) {
        for (const ModelResult& r : results)
            ++(!r.loaded ? errors : r.all_hold ? ok : violated);
    }
    [[nodiscard]] int exit_code() const {
        return errors > 0 ? 2 : violated > 0 ? 1 : 0;
    }
    /// The aggregate report's "summary" member.
    [[nodiscard]] obs::Json summary(const std::vector<ModelResult>& results,
                                    double seconds) const {
        obs::Json out = obs::Json::object()
                            .set("total", results.size())
                            .set("ok", ok)
                            .set("violated", violated)
                            .set("errors", errors)
                            .set("seconds", seconds);
        obs::Json red = reduction_summary(results);
        if (red.find("models_reduced")->as_int() > 0)
            out.set("reduction", std::move(red));
        return out;
    }
};

std::vector<std::string> collect_manifest(const std::string& arg,
                                          std::string& error) {
    std::vector<std::string> files;
    fs::path p(arg);
    std::error_code ec;
    if (fs::is_directory(p, ec)) {
        for (const auto& entry : fs::directory_iterator(p, ec)) {
            if (entry.is_regular_file() && entry.path().extension() == ".g")
                files.push_back(entry.path().string());
        }
        std::sort(files.begin(), files.end());
        if (files.empty()) error = "no .g files in directory: " + arg;
        return files;
    }
    std::ifstream in(p);
    if (!in) {
        error = "cannot open manifest: " + arg;
        return files;
    }
    const fs::path base = p.has_parent_path() ? p.parent_path() : fs::path(".");
    std::string line;
    while (std::getline(in, line)) {
        const auto hash = line.find('#');
        if (hash != std::string::npos) line.erase(hash);
        const auto first = line.find_first_not_of(" \t\r");
        if (first == std::string::npos) continue;
        const auto last = line.find_last_not_of(" \t\r");
        fs::path entry(line.substr(first, last - first + 1));
        if (entry.is_relative()) entry = base / entry;
        files.push_back(entry.string());
    }
    if (files.empty()) error = "empty manifest: " + arg;
    return files;
}

/// --connect mode: ship the whole corpus to a running stgd as one batch
/// request and merge the streamed rows back into manifest order.  Progress
/// lines appear in completion order (flushed per row); the aggregate
/// report is canonically identical to a local run (docs/SERVICE.md).
int run_connected(const char* connect, const char* manifest,
                  const std::vector<std::string>& files, const char* json_path,
                  const svc::CheckOptions& copts, bool quiet,
                  std::uint64_t deadline_ms) {
    svc::Client client;
    std::string error;
    if (!client.connect(connect, error)) {
        std::cerr << "error: " << error << "\n";
        return 2;
    }

    if (!quiet)
        std::cout << "stgbatch: " << files.size() << " models, connect "
                  << connect << "\n";
    std::vector<ModelResult> results(files.size());
    std::size_t done = 0;
    const auto progress = [&](std::size_t i) {
        ++done;
        if (quiet) return;
        std::cout << "[" << done << "/" << files.size() << "] "
                  << fs::path(files[i]).filename().string() << "  "
                  << results[i].verdict << "  (" << results[i].seconds
                  << " s)\n";
        std::cout.flush();  // stream rows promptly (watchable progress)
    };

    Stopwatch total_timer;
    obs::Json models = obs::Json::array();
    std::size_t sent = 0;
    for (std::size_t i = 0; i < files.size(); ++i) {
        ModelResult& r = results[i];
        r.file = files[i];
        const auto bytes = cache::read_file_bytes(files[i]);
        if (!bytes) {
            // Same shape a local load failure produces; never sent.
            fail(r, files[i], cannot_open(files[i]));
            progress(i);
            continue;
        }
        models.push(obs::Json::object()
                        .set("index", i)
                        .set("file", files[i])
                        .set("model", *bytes));
        ++sent;
    }

    if (sent > 0) {
        // One trace id covers the whole batch: every server-side row event
        // carries it alongside its model index (docs/OBSERVABILITY.md).
        const std::string trace = obs::generate_trace_id();
        obs::Json request = obs::Json::object()
                                .set("op", "batch")
                                .set("id", 1)
                                .set("trace", trace)
                                .set("models", std::move(models))
                                .set("options", copts.to_json());
        if (deadline_ms > 0) request.set("deadline_ms", deadline_ms);
        if (!client.send(request, error)) {
            std::cerr << "error: " << error << "\n";
            return 2;
        }
        while (true) {
            const auto frame = client.recv(error);
            if (!frame) {
                std::cerr << "error: " << error << "\n";
                return 2;
            }
            if (!svc::response_ok(*frame)) {
                std::cerr << "error: " << svc::response_error(*frame) << "\n";
                return 2;
            }
            const obs::Json* event = frame->find("event");
            if (event && event->as_string() == "done") break;
            const obs::Json* index = frame->find("index");
            if (!event || event->as_string() != "row" || !index) {
                std::cerr << "error: malformed frame from " << connect << "\n";
                return 2;
            }
            const auto i = static_cast<std::size_t>(index->as_int());
            if (i >= results.size()) continue;
            ModelResult& r = results[i];
            if (const obs::Json* err = frame->find("error")) {
                const obs::Json* msg = err->find("message");
                fail(r, files[i], msg ? msg->as_string() : "server error");
            } else {
                const obs::Json* verdict = frame->find("verdict");
                const obs::Json* all_hold = frame->find("all_hold");
                const obs::Json* row = frame->find("row");
                if (!verdict || !all_hold || !row) {
                    std::cerr << "error: malformed row from " << connect
                              << "\n";
                    return 2;
                }
                r.loaded = true;
                r.verdict = verdict->as_string();
                r.all_hold = all_hold->as_bool();
                if (const obs::Json* s = frame->find("seconds"))
                    r.seconds = s->as_double();
                r.row = labelled_row(files[i], *row);
            }
            progress(i);
        }
    }
    const double total_seconds = total_timer.seconds();

    const Tally tally(results);
    std::cout << "stgbatch: " << tally.ok << " ok, " << tally.violated
              << " violated, " << tally.errors << " errors in "
              << total_seconds << " s (connect " << connect << ")\n";

    if (json_path) {
        obs::Json rows = obs::Json::array();
        for (const ModelResult& r : results) {
            obs::Json row = r.row;
            if (r.loaded) row.set("seconds", r.seconds);
            rows.push(std::move(row));
        }
        obs::Json body = obs::Json::object();
        body.set("manifest", manifest);
        body.set("jobs", 0);  // remote pool; volatile key, stripped anyway
        body.set("models", std::move(rows));
        body.set("summary", tally.summary(results, total_seconds));
        if (!obs::save_json(json_path,
                            obs::make_report("stgbatch", std::move(body)))) {
            std::cerr << "error: cannot write " << json_path << "\n";
            return 2;
        }
        if (!quiet) std::cout << "report written to " << json_path << "\n";
    }
    return tally.exit_code();
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) {
        print_usage(std::cerr);
        return 2;
    }
    const char* manifest = nullptr;
    const char* json_path = nullptr;
    const char* trace_path = nullptr;
    bool normalcy = true;
    std::string reduce_spec = "none";
    bool deadlock = false;
    bool quiet = false;
    bool use_cache = true;
    const char* cache_dir_flag = nullptr;
    const char* connect = nullptr;
    std::uint64_t deadline_ms = 0;
    unsigned jobs = 0;  // 0 = hardware concurrency
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--no-normalcy"))
            normalcy = false;
        else if (!std::strcmp(argv[i], "--contract"))
            reduce_spec = "contract";  // legacy alias for --reduce=contract
        else if (!std::strcmp(argv[i], "--reduce"))
            reduce_spec = "all";
        else if (!std::strncmp(argv[i], "--reduce=", 9))
            reduce_spec = argv[i] + 9;
        else if (!std::strcmp(argv[i], "--no-reduce"))
            reduce_spec = "none";
        else if (!std::strcmp(argv[i], "--deadlock"))
            deadlock = true;
        else if (!std::strcmp(argv[i], "--quiet"))
            quiet = true;
        else if (!std::strcmp(argv[i], "--no-cache"))
            use_cache = false;
        else if (!std::strcmp(argv[i], "--help") || !std::strcmp(argv[i], "-h")) {
            print_usage(std::cout);
            return 0;
        } else if (!std::strcmp(argv[i], "--jobs") && i + 1 < argc) {
            char* end = nullptr;
            const unsigned long v = std::strtoul(argv[++i], &end, 10);
            if (!end || *end != '\0') {
                std::cerr << "bad --jobs value: " << argv[i] << "\n";
                return 2;
            }
            jobs = static_cast<unsigned>(v);
        } else if (!std::strcmp(argv[i], "--cache-dir") && i + 1 < argc)
            cache_dir_flag = argv[++i];
        else if (!std::strcmp(argv[i], "--connect") && i + 1 < argc)
            connect = argv[++i];
        else if (!std::strcmp(argv[i], "--deadline-ms") && i + 1 < argc) {
            char* end = nullptr;
            deadline_ms = std::strtoull(argv[++i], &end, 10);
            if (!end || *end != '\0') {
                std::cerr << "bad --deadline-ms value: " << argv[i] << "\n";
                return 2;
            }
        } else if (!std::strcmp(argv[i], "--json") && i + 1 < argc)
            json_path = argv[++i];
        else if (!std::strcmp(argv[i], "--trace") && i + 1 < argc)
            trace_path = argv[++i];
        else if (argv[i][0] != '-')
            manifest = argv[i];
        else {
            std::cerr << "unknown option: " << argv[i] << "\n";
            print_usage(std::cerr);
            return 2;
        }
    }
    if (!manifest) {
        std::cerr << "no manifest\n";
        return 2;
    }
    if (json_path || trace_path) obs::set_enabled(true);

    std::string manifest_error;
    const std::vector<std::string> files =
        collect_manifest(manifest, manifest_error);
    if (files.empty()) {
        std::cerr << "error: " << manifest_error << "\n";
        return 2;
    }
    // The same options, pipeline and cache entries as stgcheck and stgd: a
    // verdict cached by any of them is warm for the others
    // (docs/CACHING.md).
    svc::CheckOptions copts;
    copts.normalcy = normalcy;
    copts.reduce = reduce_spec;
    copts.deadlock = deadlock;
    copts.use_cache = use_cache;
    try {
        (void)svc::verify_options(copts);
    } catch (const std::exception& ex) {
        std::cerr << "bad --reduce value: " << ex.what() << "\n";
        return 2;
    }

    if (connect) {
        if (trace_path) {
            std::cerr << "error: --trace needs local spans and is not "
                         "supported with --connect\n";
            return 2;
        }
        return run_connected(connect, manifest, files, json_path, copts,
                             quiet, deadline_ms);
    }

    // Tier-3 result cache; keyed by content hash + checker options (not
    // --jobs: verdicts are jobs-independent by the determinism contract).
    std::string cache_root;
    if (use_cache) {
        if (cache_dir_flag)
            cache_root = cache_dir_flag;
        else if (const char* env = std::getenv("STGCC_CACHE_DIR"))
            cache_root = env;
    }
    const cache::ResultCache rcache(cache_root);

    sched::Executor ex(jobs);
    if (!quiet)
        std::cout << "stgbatch: " << files.size() << " models, jobs="
                  << ex.jobs() << "\n";

    // One attribution group per model: the model task claims its manifest
    // index, nested submissions inherit it, and the per-model queue-delay
    // column reads the tallies back after the model's fan-out drained.
    if (ex.pool()) ex.pool()->configure_groups(files.size());

    Stopwatch total_timer;
    std::mutex out_mu;
    std::size_t done = 0;
    std::vector<ModelResult> results(files.size());
    // Results land in `results` by manifest index (deterministic); only the
    // streamed progress lines appear in completion order.  Model tasks and
    // each model's inner subproblems (first-difference lanes of every solve)
    // share the one pool: small models fill workers the big models' fanout
    // leaves idle, and the corpus isn't serialized on its largest model.
    sched::parallel_for(ex, files.size(), [&](std::size_t i) {
        sched::set_current_group(static_cast<std::uint32_t>(i));
        ModelResult& r = results[i];
        r.file = files[i];
        Stopwatch timer;
        try {
            const auto bytes = cache::read_file_bytes(files[i]);
            if (!bytes) throw ModelError(cannot_open(files[i]));
            const svc::ModelCheck mc = svc::check_model(*bytes, copts, rcache, &ex);
            r.loaded = true;
            r.cuts = mc.report.cuts;
            r.all_hold = mc.rendered.all_hold;
            r.verdict = mc.rendered.verdict;
            r.row = labelled_row(files[i], mc.rendered.row);
        } catch (const std::exception& e) {
            fail(r, files[i], e.what());
        }
        r.seconds = timer.seconds();
        // Queue-delay attribution: nested tasks are quiescent here (the
        // model's verify drained its groups), but this task's own tallies
        // land in the group only after this lambda returns -- so add its
        // queue delay explicitly.
        r.tasks = 1;
        r.queue_delay_ns = sched::current_task_queue_delay_ns();
        if (ex.pool()) {
            const auto gs = ex.pool()->group_stats(i);
            r.tasks += gs.tasks;
            r.queue_delay_ns += gs.queue_delay_ns;
        }
        const double qd_ms = static_cast<double>(r.queue_delay_ns) /
                             static_cast<double>(r.tasks) / 1e6;
        std::lock_guard<std::mutex> lock(out_mu);
        ++done;
        if (!quiet) {
            std::cout << "[" << done << "/" << files.size() << "] "
                      << fs::path(files[i]).filename().string() << "  "
                      << r.verdict << "  (" << r.seconds << " s, qd "
                      << qd_ms << " ms)\n";
            // Flush per row: a redirected stgbatch (CI logs, a pipe into
            // `tee`) shows each verdict as it lands, not on buffer fill.
            std::cout.flush();
        }
    });
    const double total_seconds = total_timer.seconds();

    const Tally tally(results);
    std::cout << "stgbatch: " << tally.ok << " ok, " << tally.violated
              << " violated, " << tally.errors << " errors in "
              << total_seconds << " s (jobs=" << ex.jobs() << ")\n";

    if (json_path) {
        obs::Json rows = obs::Json::array();
        for (const ModelResult& r : results) {
            obs::Json row = r.row;
            if (r.loaded) {
                row.set("seconds", r.seconds);
                row.set("stats",
                        obs::Json::object()
                            .set("tasks", r.tasks)
                            .set("queue_delay_ns", r.queue_delay_ns)
                            .set("cuts",
                                 obs::Json::object()
                                     .set("recorded", r.cuts.recorded)
                                     .set("replayed", r.cuts.replayed)
                                     .set("pruned_nodes",
                                          r.cuts.pruned_nodes)));
            }
            rows.push(std::move(row));
        }
        obs::Json body = obs::Json::object();
        body.set("manifest", manifest);
        body.set("jobs", ex.jobs());
        body.set("models", std::move(rows));
        body.set("summary", tally.summary(results, total_seconds));
        obs::Json sched_stats = obs::Json::object();
        sched_stats.set("workers", ex.jobs());
        sched_stats.set("wall_ns",
                        static_cast<std::uint64_t>(total_seconds * 1e9));
        if (ex.pool()) {
            const auto ps = ex.pool()->stats();
            sched_stats.set("executed", ps.executed)
                .set("stolen", ps.stolen)
                .set("steal_failures", ps.steal_failures)
                .set("busy_ns", ps.busy_ns)
                .set("external_busy_ns", ps.external_busy_ns)
                .set("queue_delay_ns", ps.queue_delay_ns)
                .set("critical_path_ns", ps.critical_path_ns)
                .set("parks", ps.parks)
                .set("park_ns", ps.park_ns)
                .set("injector_contention", ps.injector_contention);
        }
        body.set("stats",
                 obs::Json::object().set("sched", std::move(sched_stats)));
        body.set("metrics", obs::Registry::instance().to_json());
        if (!obs::save_json(json_path,
                            obs::make_report("stgbatch", std::move(body)))) {
            std::cerr << "error: cannot write " << json_path << "\n";
            return 2;
        }
        if (!quiet) std::cout << "report written to " << json_path << "\n";
    }
    if (trace_path) {
        if (!obs::write_chrome_trace(trace_path)) {
            std::cerr << "error: cannot write " << trace_path << "\n";
            return 2;
        }
        if (!quiet) std::cout << "trace written to " << trace_path << "\n";
    }

    return tally.exit_code();
}
