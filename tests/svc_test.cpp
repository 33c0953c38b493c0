// stgd service tests (docs/SERVICE.md): the frame codec (round-trip,
// truncation, oversize, garbage), endpoint parsing, and an in-process
// client/server loopback matrix over Unix-domain and TCP sockets --
// request/response for every op, byte-identity of served verdicts against
// a local verify_stg, memory-cache hits, per-request deadlines, graceful
// drain, and the stgd binary end to end (SIGTERM drain exits 0).
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cache/result_cache.hpp"
#include "core/verifier.hpp"
#include "obs/eventlog.hpp"
#include "obs/json.hpp"
#include "stg/astg.hpp"
#include "stg/benchmarks.hpp"
#include "stg/builder.hpp"
#include "svc/client.hpp"
#include "svc/frame.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"
#include "svc/socket.hpp"
#include "test_util.hpp"

namespace stgcc {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------- framing

TEST(SvcFrame, EncodeDecodeRoundTrip) {
    for (const std::string& payload :
         {std::string(), std::string("x"), std::string("{\"op\":\"ping\"}"),
          std::string(100'000, 'z')}) {
        const std::string wire = svc::encode_frame(payload);
        ASSERT_EQ(wire.size(), svc::kFrameHeaderBytes + payload.size());
        std::string out;
        std::size_t consumed = 0;
        EXPECT_EQ(svc::decode_frame(wire, out, consumed),
                  svc::FrameStatus::Ok);
        EXPECT_EQ(out, payload);
        EXPECT_EQ(consumed, wire.size());
    }
}

TEST(SvcFrame, DecodeHandlesBackToBackFrames) {
    const std::string wire =
        svc::encode_frame("first") + svc::encode_frame("second");
    std::string out;
    std::size_t consumed = 0;
    ASSERT_EQ(svc::decode_frame(wire, out, consumed), svc::FrameStatus::Ok);
    EXPECT_EQ(out, "first");
    ASSERT_EQ(svc::decode_frame(wire.substr(consumed), out, consumed),
              svc::FrameStatus::Ok);
    EXPECT_EQ(out, "second");
}

TEST(SvcFrame, EmptyBufferIsCleanEof) {
    std::string out;
    std::size_t consumed = 0;
    EXPECT_EQ(svc::decode_frame({}, out, consumed), svc::FrameStatus::Eof);
}

TEST(SvcFrame, TruncatedHeaderAndPayloadAreReported) {
    const std::string wire = svc::encode_frame("payload");
    std::string out;
    std::size_t consumed = 0;
    for (const std::size_t cut : {std::size_t{1}, std::size_t{3},
                                  svc::kFrameHeaderBytes,
                                  wire.size() - 1}) {
        EXPECT_EQ(svc::decode_frame(wire.substr(0, cut), out, consumed),
                  svc::FrameStatus::Truncated)
            << "cut at " << cut;
    }
}

TEST(SvcFrame, OversizedHeaderIsRejectedWithoutConsuming) {
    // A garbage header declaring a huge payload must poison the buffer,
    // not attempt a giant allocation.
    const std::string wire = std::string("\xff\xff\xff\xff", 4) + "junk";
    std::string out;
    std::size_t consumed = 99;
    EXPECT_EQ(svc::decode_frame(wire, out, consumed),
              svc::FrameStatus::Oversized);
    EXPECT_EQ(consumed, 0u);
    // The same header is fine for a reader that accepts it.
    const std::string big = svc::encode_frame(std::string(2048, 'a'));
    EXPECT_EQ(svc::decode_frame(big, out, consumed, 1024),
              svc::FrameStatus::Oversized);
    EXPECT_EQ(svc::decode_frame(big, out, consumed, 4096),
              svc::FrameStatus::Ok);
}

TEST(SvcFrame, FdCodecRoundTripsOverAPipe) {
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    const std::string payload = "{\"id\":7}";
    ASSERT_TRUE(svc::write_frame(fds[1], payload));
    std::string out;
    EXPECT_EQ(svc::read_frame(fds[0], out), svc::FrameStatus::Ok);
    EXPECT_EQ(out, payload);
    // Clean close on a frame boundary is Eof; mid-frame close is Truncated.
    ASSERT_TRUE(svc::write_frame(fds[1], "tail"));
    char half[svc::kFrameHeaderBytes + 2];
    ASSERT_EQ(::read(fds[0], half, 2), 2);  // steal two header bytes
    ::close(fds[1]);
    EXPECT_EQ(svc::read_frame(fds[0], out), svc::FrameStatus::Truncated);
    EXPECT_EQ(svc::read_frame(fds[0], out), svc::FrameStatus::Eof);
    ::close(fds[0]);
}

// -------------------------------------------------------------- endpoints

TEST(SvcEndpoint, ParsesTheDocumentedSyntax) {
    std::string error;
    auto unix_ep = svc::parse_endpoint("unix:/tmp/x.sock", error);
    ASSERT_TRUE(unix_ep.has_value()) << error;
    EXPECT_EQ(unix_ep->kind, svc::Endpoint::Kind::Unix);
    EXPECT_EQ(unix_ep->path, "/tmp/x.sock");
    EXPECT_EQ(unix_ep->text(), "unix:/tmp/x.sock");

    auto tcp = svc::parse_endpoint("127.0.0.1:7733", error);
    ASSERT_TRUE(tcp.has_value()) << error;
    EXPECT_EQ(tcp->kind, svc::Endpoint::Kind::Tcp);
    EXPECT_EQ(tcp->host, "127.0.0.1");
    EXPECT_EQ(tcp->port, 7733);

    auto any = svc::parse_endpoint(":0", error);
    ASSERT_TRUE(any.has_value()) << error;
    EXPECT_TRUE(any->host.empty());
    EXPECT_EQ(any->port, 0);

    for (const char* bad : {"unix:", "nonsense", "host:notaport", "h:70000"}) {
        EXPECT_FALSE(svc::parse_endpoint(bad, error).has_value()) << bad;
    }
}

// ------------------------------------------------- in-process server e2e

std::string read_model_file(const std::string& path) {
    const auto bytes = cache::read_file_bytes(path);
    EXPECT_TRUE(bytes.has_value()) << path;
    return bytes.value_or(std::string());
}

obs::Json check_request(std::int64_t id, const std::string& model,
                        const svc::CheckOptions& copts = {}) {
    return obs::Json::object()
        .set("op", "check")
        .set("id", id)
        .set("model", model)
        .set("options", copts.to_json());
}

class SvcServerTest : public ::testing::Test {
protected:
    void SetUp() override {
        work_ = fs::path(::testing::TempDir()) /
                ("stgcc_svc_" + std::string(::testing::UnitTest::GetInstance()
                                                ->current_test_info()
                                                ->name()));
        fs::remove_all(work_);
        fs::create_directories(work_);
    }

    void TearDown() override {
        stop();
        fs::remove_all(work_);
    }

    /// Start an in-process server on a Unix socket under the work dir plus
    /// a loopback TCP listener with a kernel-assigned port.
    void start(svc::ServerConfig cfg = {}) {
        std::string error;
        if (cfg.listen.empty()) {
            cfg.listen.push_back(
                *svc::parse_endpoint("unix:" + unix_path(), error));
            cfg.listen.push_back(*svc::parse_endpoint("127.0.0.1:0", error));
        }
        if (cfg.jobs == 0) cfg.jobs = 4;
        server_ = std::make_unique<svc::Server>(std::move(cfg));
        ASSERT_TRUE(server_->start(error)) << error;
        run_result_ = -1;
        thread_ = std::thread([this] { run_result_ = server_->run(); });
    }

    void stop() {
        if (server_) server_->request_shutdown();
        if (thread_.joinable()) thread_.join();
        server_.reset();
    }

    [[nodiscard]] std::string unix_path() const {
        return (work_ / "stgd.sock").string();
    }

    svc::Client connect(const std::string& endpoint) {
        svc::Client client;
        std::string error;
        EXPECT_TRUE(client.connect(endpoint, error)) << error;
        return client;
    }

    fs::path work_;
    std::unique_ptr<svc::Server> server_;
    std::thread thread_;
    std::atomic<int> run_result_{-1};
};

TEST_F(SvcServerTest, PingStatsAndBadRequestsOverBothTransports) {
    start();
    // bound()[0] is the Unix listener, bound()[1] the resolved TCP address.
    ASSERT_EQ(server_->bound().size(), 2u);
    for (const std::string& endpoint : server_->bound()) {
        SCOPED_TRACE(endpoint);
        svc::Client client = connect(endpoint);
        std::string error;
        auto pong = client.call(
            obs::Json::object().set("op", "ping").set("id", 42), error);
        ASSERT_TRUE(pong.has_value()) << error;
        EXPECT_TRUE(svc::response_ok(*pong));
        EXPECT_EQ(pong->find("id")->as_int(), 42);
        EXPECT_EQ(pong->find("protocol")->as_int(), svc::kProtocolVersion);

        auto stats = client.call(
            obs::Json::object().set("op", "stats").set("id", 43), error);
        ASSERT_TRUE(stats.has_value()) << error;
        EXPECT_TRUE(svc::response_ok(*stats));
        ASSERT_NE(stats->find("server"), nullptr);
        EXPECT_EQ(stats->find("server")->find("jobs")->as_int(), 4);
        ASSERT_NE(stats->find("requests"), nullptr);

        auto unknown = client.call(
            obs::Json::object().set("op", "florp").set("id", 44), error);
        ASSERT_TRUE(unknown.has_value()) << error;
        EXPECT_FALSE(svc::response_ok(*unknown));
        EXPECT_EQ(svc::response_error_code(*unknown), "bad_request");

        // Garbage (non-JSON) payload: the frame is intact, so the server
        // answers bad_request and keeps the connection usable.
        ASSERT_TRUE(client.send(obs::Json("not an object"), error));
        auto bad = client.recv(error);
        ASSERT_TRUE(bad.has_value()) << error;
        EXPECT_EQ(svc::response_error_code(*bad), "bad_request");
        auto after = client.call(
            obs::Json::object().set("op", "ping").set("id", 45), error);
        ASSERT_TRUE(after.has_value()) << error;
        EXPECT_TRUE(svc::response_ok(*after));
    }
}

TEST_F(SvcServerTest, CheckMatchesLocalVerifyByteForByte) {
    start();
    const std::string model_text =
        read_model_file(std::string(STGCC_MODELS_DIR) + "/vme.g");
    ASSERT_FALSE(model_text.empty());

    svc::Client client = connect(server_->bound()[0]);
    std::string error;
    auto resp = client.call(check_request(1, model_text), error);
    ASSERT_TRUE(resp.has_value()) << error;
    ASSERT_TRUE(svc::response_ok(*resp)) << svc::response_error(*resp);

    // Local ground truth through the identical pipeline.
    stg::Stg model = stg::parse_astg_string(model_text);
    core::VerifyOptions vopts;
    auto report = core::verify_stg(model, vopts);
    EXPECT_EQ(resp->find("report")->as_string(),
              core::format_report(model, report));
    const bool all_hold = report.consistent && report.usc.holds &&
                          report.csc.holds && report.normalcy.normal;
    EXPECT_EQ(resp->find("exit")->as_int(), all_hold ? 0 : 1);
    EXPECT_EQ(resp->find("all_hold")->as_bool(), all_hold);
    obs::Json local_json = core::report_json(model, report);
    EXPECT_EQ(test::canonical_json(*resp->find("json")),
              test::canonical_json(local_json));
    // Cold verification: not served from any cache tier.
    EXPECT_EQ(resp->find("cached")->kind(), obs::Json::Kind::Bool);
}

TEST_F(SvcServerTest, RepeatRequestsHitTheMemoryCache) {
    start();
    const std::string model_text =
        read_model_file(std::string(STGCC_MODELS_DIR) + "/vme.g");
    svc::Client client = connect(server_->bound()[0]);
    std::string error;
    auto cold = client.call(check_request(1, model_text), error);
    ASSERT_TRUE(cold.has_value()) << error;
    auto warm = client.call(check_request(2, model_text), error);
    ASSERT_TRUE(warm.has_value()) << error;
    ASSERT_TRUE(svc::response_ok(*warm));
    EXPECT_EQ(warm->find("cached")->as_string(), "memory");
    EXPECT_EQ(warm->find("report")->as_string(),
              cold->find("report")->as_string());
    EXPECT_EQ(warm->find("exit")->as_int(), cold->find("exit")->as_int());
}

TEST_F(SvcServerTest, DiskCacheSurvivesAServerRestart) {
    svc::ServerConfig cfg;
    std::string error;
    cfg.listen.push_back(*svc::parse_endpoint("unix:" + unix_path(), error));
    cfg.cache_dir = (work_ / "cache").string();
    cfg.jobs = 2;
    start(std::move(cfg));
    const std::string model_text =
        read_model_file(std::string(STGCC_MODELS_DIR) + "/vme.g");
    svc::Client client = connect(server_->bound()[0]);
    auto cold = client.call(check_request(1, model_text), error);
    ASSERT_TRUE(cold.has_value()) << error;
    ASSERT_TRUE(svc::response_ok(*cold));
    client.close();
    stop();

    svc::ServerConfig cfg2;
    cfg2.listen.push_back(*svc::parse_endpoint("unix:" + unix_path(), error));
    cfg2.cache_dir = (work_ / "cache").string();
    cfg2.jobs = 2;
    start(std::move(cfg2));
    svc::Client again = connect(server_->bound()[0]);
    auto warm = again.call(check_request(2, model_text), error);
    ASSERT_TRUE(warm.has_value()) << error;
    ASSERT_TRUE(svc::response_ok(*warm));
    EXPECT_EQ(warm->find("cached")->as_string(), "disk");
    EXPECT_EQ(warm->find("report")->as_string(),
              cold->find("report")->as_string());
}

TEST_F(SvcServerTest, BatchStreamsRowsAndASummary) {
    start();
    const std::string good =
        read_model_file(std::string(STGCC_MODELS_DIR) + "/vme.g");
    const std::string held =
        read_model_file(std::string(STGCC_MODELS_DIR) + "/vme_csc.g");
    obs::Json models = obs::Json::array();
    models.push(obs::Json::object().set("index", 0).set("file", "a.g").set(
        "model", good));
    models.push(obs::Json::object().set("index", 1).set("file", "b.g").set(
        "model", held));
    models.push(obs::Json::object().set("index", 2).set("file", "c.g").set(
        "model", "this is not an astg file"));
    svc::Client client = connect(server_->bound()[0]);
    std::string error;
    ASSERT_TRUE(client.send(obs::Json::object()
                                .set("op", "batch")
                                .set("id", 9)
                                .set("models", std::move(models))
                                .set("options", svc::CheckOptions{}.to_json()),
                            error));
    std::vector<bool> seen(3, false);
    const obs::Json* summary = nullptr;
    obs::Json done;
    while (true) {
        auto frame = client.recv(error);
        ASSERT_TRUE(frame.has_value()) << error;
        ASSERT_TRUE(svc::response_ok(*frame)) << svc::response_error(*frame);
        EXPECT_EQ(frame->find("id")->as_int(), 9);
        const std::string event = frame->find("event")->as_string();
        if (event == "done") {
            done = *frame;
            summary = done.find("summary");
            break;
        }
        ASSERT_EQ(event, "row");
        const auto index =
            static_cast<std::size_t>(frame->find("index")->as_int());
        ASSERT_LT(index, seen.size());
        EXPECT_FALSE(seen[index]);
        seen[index] = true;
        if (index == 2) {
            const obs::Json* err = frame->find("error");
            ASSERT_NE(err, nullptr);
            EXPECT_EQ(err->find("code")->as_string(), "model_error");
        } else {
            ASSERT_NE(frame->find("verdict"), nullptr);
            // Rows are content-addressed (no "file" member); the client
            // prepends its own path.  "name" comes from the model text.
            ASSERT_NE(frame->find("row"), nullptr);
            EXPECT_EQ(frame->find("row")->find("file"), nullptr);
            EXPECT_NE(frame->find("row")->find("name"), nullptr);
        }
    }
    EXPECT_TRUE(seen[0] && seen[1] && seen[2]);
    ASSERT_NE(summary, nullptr);
    EXPECT_EQ(summary->find("total")->as_uint(), 3u);
    EXPECT_EQ(summary->find("errors")->as_uint(), 1u);
    EXPECT_EQ(summary->find("ok")->as_uint() +
                  summary->find("violated")->as_uint(),
              2u);
}

TEST_F(SvcServerTest, DeadlineCancelsALongVerification) {
    start();
    // A dozen concurrent handshakes unfold in milliseconds but make the
    // coding-conflict search run for minutes -- the deadline must cut it.
    const std::string model_text =
        stg::write_astg_string(stg::bench::parallel_handshakes(12));
    svc::CheckOptions copts;
    copts.use_cache = false;
    svc::Client client = connect(server_->bound()[0]);
    std::string error;
    obs::Json request = check_request(5, model_text, copts);
    request.set("deadline_ms", 100);
    const auto begin = std::chrono::steady_clock::now();
    auto resp = client.call(request, error);
    const auto elapsed = std::chrono::steady_clock::now() - begin;
    ASSERT_TRUE(resp.has_value()) << error;
    EXPECT_FALSE(svc::response_ok(*resp));
    EXPECT_EQ(svc::response_error_code(*resp), "deadline_exceeded");
    // The cancel is cooperative (polled every few thousand search nodes),
    // so well under the minutes an uncancelled run would take.
    EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
              30);
}

TEST_F(SvcServerTest, DeadlineUnderLoadCancelsAllRequestsAndCachesNoPartial) {
    // Saturate a deliberately narrow server (2 workers, inflight gate at
    // 2) with more deadline-carrying long verifications than it can admit:
    // the admitted requests must be cancelled mid-solve, the queued ones
    // at or before their start, all within the deadline's order of
    // magnitude -- and none of the cut-short runs may leave a partial
    // result in any cache tier.  Caching stays ON for this test: a cached
    // partial would answer the retry instantly with ok, which is exactly
    // the regression this pins down.
    svc::ServerConfig cfg;
    cfg.jobs = 2;
    cfg.max_inflight = 2;
    cfg.cache_dir = (work_ / "cache").string();
    start(std::move(cfg));
    const std::string model_text =
        stg::write_astg_string(stg::bench::parallel_handshakes(12));

    constexpr int kClients = 5;
    std::vector<std::string> codes(kClients);
    std::vector<std::thread> threads;
    const auto begin = std::chrono::steady_clock::now();
    for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            svc::Client client = connect(server_->bound()[c % 2]);
            std::string error;
            obs::Json request = check_request(100 + c, model_text);
            request.set("deadline_ms", 150);
            auto resp = client.call(request, error);
            if (!resp.has_value()) {
                codes[c] = "transport:" + error;
                return;
            }
            codes[c] = svc::response_ok(*resp) ? "ok"
                                               : svc::response_error_code(*resp);
        });
    }
    for (auto& t : threads) t.join();
    const auto elapsed = std::chrono::steady_clock::now() - begin;
    for (int c = 0; c < kClients; ++c)
        EXPECT_EQ(codes[c], "deadline_exceeded") << "client " << c;
    // Queued requests must not serialize into kClients full deadlines'
    // worth of work each; the whole burst resolves in cooperative-cancel
    // time, far under the minutes an uncancelled solve takes.
    EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
              30);

    // Retry the same model/options with a deadline: a (buggy) cached
    // partial would now hit in a cache tier and return ok instantly; the
    // correct server re-runs the solve and times out again.
    svc::Client retry = connect(server_->bound()[0]);
    std::string error;
    obs::Json request = check_request(200, model_text);
    request.set("deadline_ms", 150);
    auto resp = retry.call(request, error);
    ASSERT_TRUE(resp.has_value()) << error;
    EXPECT_FALSE(svc::response_ok(*resp));
    EXPECT_EQ(svc::response_error_code(*resp), "deadline_exceeded");

    // The server stays fully usable: an untimed request for a model that
    // verifies in milliseconds succeeds.
    auto quick = retry.call(
        check_request(
            201, read_model_file(std::string(STGCC_MODELS_DIR) + "/seq4.g")),
        error);
    ASSERT_TRUE(quick.has_value()) << error;
    EXPECT_TRUE(svc::response_ok(*quick)) << svc::response_error(*quick);
}

TEST_F(SvcServerTest, ShutdownOpDrainsAndRunReturnsZero) {
    start();
    svc::Client client = connect(server_->bound()[0]);
    std::string error;
    auto resp = client.call(
        obs::Json::object().set("op", "shutdown").set("id", 1), error);
    ASSERT_TRUE(resp.has_value()) << error;
    EXPECT_TRUE(svc::response_ok(*resp));
    EXPECT_TRUE(resp->find("draining")->as_bool());
    thread_.join();
    EXPECT_EQ(run_result_.load(), 0);
    EXPECT_TRUE(server_->draining());
    server_.reset();
}

TEST_F(SvcServerTest, DrainAnswersInFlightRequestsBeforeExiting) {
    start();
    const std::string model_text =
        read_model_file(std::string(STGCC_MODELS_DIR) + "/vme.g");
    svc::Client client = connect(server_->bound()[0]);
    std::string error;
    ASSERT_TRUE(client.send(check_request(1, model_text), error));
    // Tiny head start so the frame is read before the drain begins; the
    // accepted request must still be answered in full.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    server_->request_shutdown();
    auto resp = client.recv(error);
    ASSERT_TRUE(resp.has_value()) << error;
    EXPECT_TRUE(svc::response_ok(*resp)) << svc::response_error(*resp);
    ASSERT_NE(resp->find("report"), nullptr);
    thread_.join();
    EXPECT_EQ(run_result_.load(), 0);
    server_.reset();
}

TEST_F(SvcServerTest, ConcurrentClientsOnBothTransportsAgree) {
    start();
    const std::string model_a =
        read_model_file(std::string(STGCC_MODELS_DIR) + "/vme.g");
    const std::string model_b =
        read_model_file(std::string(STGCC_MODELS_DIR) + "/seq4.g");
    const std::vector<std::string> endpoints(server_->bound().begin(),
                                             server_->bound().end());
    std::vector<std::string> reports(4);
    std::vector<std::thread> clients;
    for (int c = 0; c < 4; ++c) {
        clients.emplace_back([&, c] {
            svc::Client client;
            std::string error;
            if (!client.connect(endpoints[c % 2], error)) return;
            const std::string& text = (c < 2) ? model_a : model_b;
            auto resp = client.call(check_request(c, text), error);
            if (resp && svc::response_ok(*resp))
                reports[c] = resp->find("report")->as_string();
        });
    }
    for (auto& t : clients) t.join();
    EXPECT_FALSE(reports[0].empty());
    EXPECT_EQ(reports[0], reports[1]);  // same model, any transport
    EXPECT_FALSE(reports[2].empty());
    EXPECT_EQ(reports[2], reports[3]);
    EXPECT_NE(reports[0], reports[2]);
}

TEST_F(SvcServerTest, OversizedRequestIsRejected) {
    svc::ServerConfig cfg;
    std::string error;
    cfg.listen.push_back(*svc::parse_endpoint("unix:" + unix_path(), error));
    cfg.max_frame = 1024;
    cfg.jobs = 1;
    start(std::move(cfg));
    svc::Client client = connect(server_->bound()[0]);
    auto resp = client.call(
        check_request(1, std::string(4096, '#')), error);
    ASSERT_TRUE(resp.has_value()) << error;
    EXPECT_EQ(svc::response_error_code(*resp), "bad_request");
    // The stream offset past an oversized header is unknowable; the server
    // closes the connection after the error.
    EXPECT_FALSE(client.recv(error).has_value());
}

// ------------------------------------------- telemetry: traces and HTTP

std::vector<obs::Json> parse_event_log(const std::string& path) {
    std::vector<obs::Json> records;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        auto j = obs::Json::parse(line);
        EXPECT_TRUE(j.has_value()) << line;
        if (j) records.push_back(std::move(*j));
    }
    return records;
}

bool has_event_with_trace(const std::vector<obs::Json>& records,
                          const std::string& event,
                          const std::string& trace) {
    for (const obs::Json& r : records) {
        const obs::Json* e = r.find("event");
        const obs::Json* t = r.find("trace");
        if (e && t && e->as_string() == event && t->as_string() == trace)
            return true;
    }
    return false;
}

TEST_F(SvcServerTest, ClientTraceIdCorrelatesResponseAndEventLog) {
    svc::ServerConfig cfg;
    cfg.event_log_path = (work_ / "events.jsonl").string();
    cfg.event_log_level = obs::LogLevel::Debug;
    start(std::move(cfg));
    const std::string model_text =
        read_model_file(std::string(STGCC_MODELS_DIR) + "/vme.g");
    const std::string trace = "cafe0123deadbeef";

    svc::Client client = connect(server_->bound()[0]);
    std::string error;
    obs::Json request = check_request(1, model_text);
    request.set("trace", trace);
    auto resp = client.call(request, error);
    ASSERT_TRUE(resp.has_value()) << error;
    ASSERT_TRUE(svc::response_ok(*resp)) << svc::response_error(*resp);
    // The response envelope echoes the client-minted id verbatim.
    ASSERT_NE(resp->find("trace"), nullptr);
    EXPECT_EQ(resp->find("trace")->as_string(), trace);

    // A request without a trace gets a server-minted plausible one.
    auto pong = client.call(
        obs::Json::object().set("op", "ping").set("id", 2), error);
    ASSERT_TRUE(pong.has_value()) << error;
    ASSERT_NE(pong->find("trace"), nullptr);
    EXPECT_TRUE(obs::plausible_trace_id(pong->find("trace")->as_string()));
    EXPECT_NE(pong->find("trace")->as_string(), trace);

    client.close();
    stop();  // drain flushes server.drain into the log

    // One grep-able id ties the whole server-side lifecycle together.
    const auto records = parse_event_log((work_ / "events.jsonl").string());
    ASSERT_FALSE(records.empty());
    EXPECT_TRUE(has_event_with_trace(records, "request.accepted", trace));
    EXPECT_TRUE(has_event_with_trace(records, "check.started", trace));
    EXPECT_TRUE(has_event_with_trace(records, "check.completed", trace));
    bool saw_start = false, saw_drain = false;
    for (const obs::Json& r : records) {
        const std::string event = r.find("event")->as_string();
        if (event == "server.start") saw_start = true;
        if (event == "server.drain") saw_drain = true;
        ASSERT_NE(r.find("ts_ms"), nullptr);
        ASSERT_NE(r.find("level"), nullptr);
    }
    EXPECT_TRUE(saw_start);
    EXPECT_TRUE(saw_drain);
}

TEST_F(SvcServerTest, BatchFramesAllCarryTheClientTrace) {
    svc::ServerConfig cfg;
    cfg.event_log_path = (work_ / "events.jsonl").string();
    start(std::move(cfg));
    const std::string model_text =
        read_model_file(std::string(STGCC_MODELS_DIR) + "/vme.g");
    const std::string trace = "batch-trace.0042";
    obs::Json models = obs::Json::array();
    models.push(obs::Json::object().set("index", 0).set("file", "a.g").set(
        "model", model_text));
    models.push(obs::Json::object().set("index", 1).set("file", "b.g").set(
        "model", model_text));
    svc::Client client = connect(server_->bound()[0]);
    std::string error;
    ASSERT_TRUE(client.send(obs::Json::object()
                                .set("op", "batch")
                                .set("id", 7)
                                .set("trace", trace)
                                .set("models", std::move(models))
                                .set("options", svc::CheckOptions{}.to_json()),
                            error));
    int rows = 0;
    bool done = false;
    while (!done) {
        auto frame = client.recv(error);
        ASSERT_TRUE(frame.has_value()) << error;
        ASSERT_TRUE(svc::response_ok(*frame)) << svc::response_error(*frame);
        ASSERT_NE(frame->find("trace"), nullptr);
        EXPECT_EQ(frame->find("trace")->as_string(), trace);
        const std::string event = frame->find("event")->as_string();
        if (event == "done")
            done = true;
        else
            ++rows;
    }
    EXPECT_EQ(rows, 2);
    client.close();
    stop();
    const auto records = parse_event_log((work_ / "events.jsonl").string());
    EXPECT_TRUE(has_event_with_trace(records, "request.accepted", trace));
    EXPECT_TRUE(has_event_with_trace(records, "check.completed", trace));
}

/// Blocking HTTP/1.0 GET against `endpoint`; returns the body and fills
/// `status_line` with the first response line.
std::string http_get(const std::string& endpoint, const std::string& path,
                     std::string& status_line) {
    std::string error;
    auto ep = svc::parse_endpoint(endpoint, error);
    EXPECT_TRUE(ep.has_value()) << endpoint << ": " << error;
    if (!ep) return {};
    svc::Fd fd = svc::connect_endpoint(*ep, error);
    EXPECT_TRUE(fd.valid()) << error;
    if (!fd.valid()) return {};
    const std::string request =
        "GET " + path + " HTTP/1.0\r\nHost: test\r\n\r\n";
    std::size_t off = 0;
    while (off < request.size()) {
        const ssize_t n =
            ::write(fd.get(), request.data() + off, request.size() - off);
        if (n <= 0) break;
        off += static_cast<std::size_t>(n);
    }
    std::string response;
    char buf[4096];
    ssize_t n;
    while ((n = ::read(fd.get(), buf, sizeof buf)) > 0)
        response.append(buf, static_cast<std::size_t>(n));
    const auto eol = response.find("\r\n");
    status_line =
        eol == std::string::npos ? response : response.substr(0, eol);
    const auto body = response.find("\r\n\r\n");
    return body == std::string::npos ? std::string()
                                     : response.substr(body + 4);
}

TEST_F(SvcServerTest, MetricsListenerServesScrapeHealthAndBuildInfo) {
    svc::ServerConfig cfg;
    std::string error;
    cfg.metrics_listen = *svc::parse_endpoint("127.0.0.1:0", error);
    start(std::move(cfg));
    ASSERT_FALSE(server_->metrics_bound().empty());
    const std::string http = server_->metrics_bound();

    // Serve one verification so the counters are non-trivial.
    svc::Client client = connect(server_->bound()[0]);
    auto resp = client.call(
        check_request(1, read_model_file(std::string(STGCC_MODELS_DIR) +
                                         "/vme.g")),
        error);
    ASSERT_TRUE(resp.has_value()) << error;

    std::string status;
    const std::string metrics = http_get(http, "/metrics", status);
    EXPECT_NE(status.find("200"), std::string::npos) << status;
    EXPECT_NE(metrics.find("# TYPE stgcc_svc_requests_total counter\n"),
              std::string::npos);
    EXPECT_NE(metrics.find("stgcc_svc_check_misses_total"),
              std::string::npos);
    EXPECT_NE(metrics.find("# TYPE stgcc_svc_open_connections gauge\n"),
              std::string::npos);
    // The synthesized rolling gauges ride along with the registry scrape.
    EXPECT_NE(metrics.find("stgcc_svc_requests_rate{window=\"1s\"}"),
              std::string::npos);
    EXPECT_NE(metrics.find("stgcc_svc_checks_latency_ns{quantile=\"0.99\"}"),
              std::string::npos);

    const std::string health = http_get(http, "/healthz", status);
    EXPECT_NE(status.find("200"), std::string::npos) << status;
    EXPECT_EQ(health, "ok\n");

    const std::string build = http_get(http, "/buildinfo", status);
    EXPECT_NE(status.find("200"), std::string::npos) << status;
    const auto parsed = obs::Json::parse(build);
    ASSERT_TRUE(parsed.has_value()) << build;
    EXPECT_FALSE(parsed->find("git")->as_string().empty());
    ASSERT_NE(parsed->find("pid"), nullptr);

    http_get(http, "/nothing-here", status);
    EXPECT_NE(status.find("404"), std::string::npos) << status;

    // The stats op mirrors the same telemetry for protocol clients.
    auto stats = client.call(
        obs::Json::object().set("op", "stats").set("id", 2), error);
    ASSERT_TRUE(stats.has_value()) << error;
    const obs::Json* server = stats->find("server");
    ASSERT_NE(server, nullptr);
    EXPECT_EQ(server->find("metrics_listen")->as_string(), http);
    ASSERT_NE(server->find("build"), nullptr);
    ASSERT_NE(stats->find("rolling"), nullptr);
    ASSERT_NE(stats->find("rolling")->find("requests")->find("rate_60s"),
              nullptr);
}

// ------------------------------------------------------- stgd binary e2e

struct RunResult {
    int exit_code = -1;
    std::string output;
};

RunResult run_shell(const std::string& command) {
    RunResult r;
    FILE* pipe = ::popen((command + " 2>&1").c_str(), "r");
    if (!pipe) return r;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0)
        r.output.append(buf, n);
    const int status = ::pclose(pipe);
    r.exit_code = (status >= 0 && WIFEXITED(status)) ? WEXITSTATUS(status) : -1;
    return r;
}

TEST(SvcDaemonBinary, SigtermDrainExitsZeroAndServesClients) {
    const fs::path work =
        fs::path(::testing::TempDir()) / "stgcc_svc_daemon_bin";
    fs::remove_all(work);
    fs::create_directories(work);
    const std::string sock = (work / "d.sock").string();
    const std::string stats = (work / "stats.json").string();
    const std::string model = std::string(STGCC_MODELS_DIR) + "/vme.g";
    // Start the daemon, verify one model through it twice (cold + warm),
    // then SIGTERM it and propagate its exit code.
    const std::string script =
        std::string("sh -c '") + STGCC_STGD_BIN + " --listen unix:" + sock +
        " --jobs 2 --cache-dir " + (work / "cache").string() + " --stats " +
        stats + " --quiet & pid=$!; " +
        "for i in 1 2 3 4 5 6 7 8 9 10; do [ -S " + sock +
        " ] && break; sleep 0.1; done; " + STGCC_STGCHECK_BIN + " " + model +
        " --connect unix:" + sock + " > /dev/null; c1=$?; " +
        STGCC_STGCHECK_BIN + " " + model + " --connect unix:" + sock +
        " > /dev/null; c2=$?; " +
        "kill -TERM $pid; wait $pid; d=$?; echo \"c1=$c1 c2=$c2 d=$d\"'";
    const RunResult r = run_shell(script);
    EXPECT_NE(r.output.find("c1=1 c2=1 d=0"), std::string::npos) << r.output;
    // The drain wrote a final stats snapshot with the served tally.
    const auto snapshot = cache::read_file_bytes(stats);
    ASSERT_TRUE(snapshot.has_value());
    const auto parsed = obs::Json::parse(*snapshot);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->find("requests")->find("served")->as_uint(), 2u);
    EXPECT_EQ(parsed->find("cache")->find("memory_hits")->as_uint(), 1u);
    fs::remove_all(work);
}

TEST_F(SvcServerTest, PersistencyDecidesTheRowStatus) {
    // The race of Persistency.OutputDisabledByInputDetected (input c+
    // disables output x+), and a cyclic variant on which USC and CSC hold,
    // so that persistency alone decides.  A persistency check that fails
    // must give a "violated" row, counted as violated in the batch summary,
    // like the response's own all_hold.
    stg::StgBuilder race("race");
    race.input("a").input("c").output("x");
    race.place("p", 1);
    race.place("pick");
    race.arc("p", "a+").arc("a+", "pick");
    race.arc("pick", "x+").arc("pick", "c+");
    race.arc("x+", "x-").arc("c+", "c-");
    race.place("end1").place("end2");
    race.arc("x-", "end1").arc("c-", "end2");
    stg::StgBuilder cyclic("race-cycle");
    cyclic.input("a").input("c").output("x");
    cyclic.place("p", 1);
    cyclic.place("pick");
    cyclic.arc("p", "a+").arc("a+", "pick");
    cyclic.arc("pick", "x+").arc("pick", "c+");
    cyclic.chain({"x+", "a-/1", "x-"}).chain({"c+", "a-/2", "c-"});
    cyclic.arc("x-", "p").arc("c-", "p");
    start();
    svc::CheckOptions copts;
    copts.normalcy = false;
    copts.persistency = true;
    svc::Client client = connect(server_->bound()[0]);
    std::string error;
    obs::Json models = obs::Json::array();
    std::int64_t id = 1;
    for (const stg::Stg& model : {race.build(), cyclic.build()}) {
        SCOPED_TRACE(model.name());
        const std::string text = stg::write_astg_string(model);
        auto resp = client.call(check_request(id++, text, copts), error);
        ASSERT_TRUE(resp.has_value()) << error;
        ASSERT_TRUE(svc::response_ok(*resp)) << svc::response_error(*resp);
        EXPECT_FALSE(resp->find("all_hold")->as_bool());
        EXPECT_EQ(resp->find("exit")->as_int(), 1);
        EXPECT_NE(resp->find("verdict")->as_string().find("persistency:VIOLATED"),
                  std::string::npos);
        EXPECT_EQ(resp->find("row")->find("status")->as_string(), "violated");
        models.push(obs::Json::object()
                        .set("index", models.size())
                        .set("model", text));
    }
    ASSERT_TRUE(client.send(obs::Json::object()
                                .set("op", "batch")
                                .set("id", id)
                                .set("models", std::move(models))
                                .set("options", copts.to_json()),
                            error));
    while (true) {
        auto frame = client.recv(error);
        ASSERT_TRUE(frame.has_value()) << error;
        ASSERT_TRUE(svc::response_ok(*frame)) << svc::response_error(*frame);
        if (frame->find("event")->as_string() == "done") {
            const obs::Json* summary = frame->find("summary");
            EXPECT_EQ(summary->find("ok")->as_uint(), 0u);
            EXPECT_EQ(summary->find("violated")->as_uint(), 2u);
            break;
        }
        EXPECT_EQ(frame->find("row")->find("status")->as_string(), "violated");
    }
}

TEST(SvcSharedCache, StgcheckEntriesServeStgdAndStgbatch) {
    // One rendered-tier namespace for all three tools: a verdict stgcheck
    // stored answers stgd from disk and counts as a stgbatch cache hit.
    const fs::path work = fs::path(::testing::TempDir()) / "stgcc_svc_shared";
    fs::remove_all(work);
    fs::create_directories(work);
    const std::string cache_dir = (work / "cache").string();
    const std::string model = std::string(STGCC_MODELS_DIR) + "/vme.g";
    const RunResult check = run_shell(std::string(STGCC_STGCHECK_BIN) + " " +
                                      model + " --cache-dir " + cache_dir);
    EXPECT_EQ(check.exit_code, 1) << check.output;

    std::string error;
    svc::ServerConfig cfg;
    cfg.listen.push_back(
        *svc::parse_endpoint("unix:" + (work / "d.sock").string(), error));
    cfg.jobs = 2;
    cfg.cache_dir = cache_dir;
    svc::Server server(std::move(cfg));
    ASSERT_TRUE(server.start(error)) << error;
    std::thread runner([&] { (void)server.run(); });
    {
        svc::Client client;
        ASSERT_TRUE(client.connect(server.bound()[0], error)) << error;
        auto resp = client.call(check_request(1, read_model_file(model)), error);
        ASSERT_TRUE(resp.has_value()) << error;
        ASSERT_TRUE(svc::response_ok(*resp)) << svc::response_error(*resp);
        EXPECT_EQ(resp->find("cached")->as_string(), "disk");
        EXPECT_EQ(resp->find("exit")->as_int(), 1);
    }
    server.request_shutdown();
    runner.join();

    {
        std::ofstream manifest(work / "corpus.txt");
        manifest << model << "\n";
    }
    const std::string json = (work / "batch.json").string();
    const RunResult batch = run_shell(
        std::string(STGCC_STGBATCH_BIN) + " " + (work / "corpus.txt").string() +
        " --quiet --cache-dir " + cache_dir + " --json " + json);
    EXPECT_EQ(batch.exit_code, 1) << batch.output;
    const auto bytes = cache::read_file_bytes(json);
    ASSERT_TRUE(bytes.has_value());
    const auto report = obs::Json::parse(*bytes);
    ASSERT_TRUE(report.has_value());
    const obs::Json* hits = report->find("body")->find("metrics")->find(
        "counters")->find("cache.result.hits");
    ASSERT_NE(hits, nullptr);
    EXPECT_GE(hits->as_uint(), 1u);
    fs::remove_all(work);
}

}  // namespace
}  // namespace stgcc
