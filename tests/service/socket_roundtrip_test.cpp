/**
 * @file
 * End-to-end socket tests: a real ringsim daemon core behind a Unix
 * socket, driven by ServiceClient connections — including the
 * four-concurrent-clients byte-identity property from the service's
 * acceptance criteria.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/service/client.hpp"
#include "src/service/server.hpp"
#include "src/service/socket_server.hpp"

namespace ringsim::service {
namespace {

ServiceConfig
testConfig()
{
    ServiceConfig cfg;
    cfg.workers = 2;
    cfg.queueDepth = 8;
    cfg.memCacheEntries = 16;
    cfg.enableTestJobs = true;
    return cfg;
}

/** A per-process socket path: gtest's TempDir() is plain /tmp on
 *  Linux, and ctest runs each SocketRoundtrip case as its own
 *  process — two concurrent cases sharing one path steal each
 *  other's bind and deadlock both daemons. */
std::string
uniqueEndpoint()
{
    return testing::TempDir() + "/ringsim_test." +
           std::to_string(::getpid()) + ".sock";
}

/** A live daemon on a temp-dir Unix socket, torn down on scope exit. */
class LiveService
{
  public:
    explicit LiveService(const ServiceConfig &cfg)
        : core_(cfg),
          endpoint_(uniqueEndpoint()),
          server_(core_, endpoint_)
    {
        std::string error;
        started_ = server_.tryStart(&error);
        EXPECT_TRUE(started_) << error;
        if (started_)
            pump_ = std::thread([this]() { server_.serve(); });
    }

    ~LiveService()
    {
        if (!started_)
            return;
        // serve() exits once the core has accepted a shutdown.
        ServiceClient client;
        std::string error, response;
        if (client.tryConnect(endpoint_, &error))
            (void)client.tryRequest("{\"op\":\"shutdown\"}",
                                    &response, &error);
        pump_.join();
    }

    const std::string &endpoint() const { return endpoint_; }

  private:
    ServiceCore core_;
    std::string endpoint_;
    SocketServer server_;
    bool started_ = false;
    std::thread pump_;
};

ServiceClient
connect(const std::string &endpoint)
{
    ServiceClient client;
    std::string error;
    EXPECT_TRUE(client.tryConnect(endpoint, &error)) << error;
    return client;
}

TEST(EndpointParse, AcceptsAllThreeForms)
{
    int port = -1;
    std::string path, error;
    ASSERT_TRUE(tryParseEndpoint("tcp:8742", &port, &path, &error));
    EXPECT_EQ(port, 8742);
    ASSERT_TRUE(
        tryParseEndpoint("unix:/tmp/x.sock", &port, &path, &error));
    EXPECT_EQ(path, "/tmp/x.sock");
    ASSERT_TRUE(tryParseEndpoint("y.sock", &port, &path, &error));
    EXPECT_EQ(path, "y.sock");
}

TEST(EndpointParse, RejectsBadForms)
{
    int port = -1;
    std::string path, error;
    EXPECT_FALSE(tryParseEndpoint("tcp:notaport", &port, &path,
                                  &error));
    EXPECT_FALSE(tryParseEndpoint("tcp:99999", &port, &path, &error));
    EXPECT_FALSE(tryParseEndpoint("", &port, &path, &error));
    EXPECT_FALSE(tryParseEndpoint(
        "unix:" + std::string(200, 'x'), &port, &path, &error));
}

TEST(SocketRoundtrip, PingOverUnixSocket)
{
    LiveService svc(testConfig());
    ServiceClient client = connect(svc.endpoint());
    std::string response, error;
    ASSERT_TRUE(client.tryRequest("{\"op\":\"ping\"}", &response,
                                  &error))
        << error;
    EXPECT_EQ(response, "{\"ok\":true,\"op\":\"ping\"}");
}

TEST(SocketRoundtrip, MultipleRequestsOnOneConnection)
{
    LiveService svc(testConfig());
    ServiceClient client = connect(svc.endpoint());
    std::string response, error;
    for (int i = 0; i < 5; ++i) {
        ASSERT_TRUE(client.tryRequest("{\"op\":\"ping\"}", &response,
                                      &error))
            << error;
        EXPECT_EQ(response, "{\"ok\":true,\"op\":\"ping\"}");
    }
}

TEST(SocketRoundtrip, CallSurfacesServerErrors)
{
    // A non-transient {"ok":false} is not retried: the call fails at
    // once with the server's own error text and keeps the connection.
    LiveService svc(testConfig());
    ServiceClient client = connect(svc.endpoint());
    util::JsonValue req = util::JsonValue::object();
    req.set("op", util::JsonValue::string("warp"));
    util::JsonValue response;
    std::string error;
    EXPECT_FALSE(client.tryCallResilient(req, &response, &error));
    EXPECT_NE(error.find("warp"), std::string::npos) << error;
    EXPECT_EQ(error.find("gave up"), std::string::npos) << error;
    EXPECT_TRUE(client.connected());
}

TEST(SocketRoundtrip, ConnectToMissingSocketFails)
{
    ServiceClient client;
    std::string error;
    EXPECT_FALSE(client.tryConnect(
        testing::TempDir() + "/no_such_daemon.sock", &error));
    EXPECT_FALSE(error.empty());
}

TEST(SocketRoundtrip, SurvivesClientGoneBeforeResponse)
{
    // A client that hangs up while its wait-submit is still running
    // (Ctrl+C on ringsim_submit --wait) makes the daemon write a
    // response into a closed socket. That must surface as a write
    // error on one connection, not SIGPIPE-kill the whole daemon.
    LiveService svc(testConfig());

    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, svc.endpoint().c_str(),
                 sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    const std::string line =
        "{\"op\":\"submit\",\"wait\":true,\"job\":"
        "{\"type\":\"sleep\",\"ms\":200}}\n";
    ASSERT_EQ(::send(fd, line.data(), line.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(line.size()));
    ::close(fd); // gone before the 200 ms job finishes

    // Give the abandoned response write time to happen, then prove
    // the daemon still serves other clients.
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    ServiceClient client = connect(svc.endpoint());
    std::string response, error;
    ASSERT_TRUE(client.tryRequest("{\"op\":\"ping\"}", &response,
                                  &error))
        << error;
    EXPECT_EQ(response, "{\"ok\":true,\"op\":\"ping\"}");
}

TEST(SocketRoundtrip, ShutdownCompletesWithIdleClientConnected)
{
    // An idle client holding its connection open must not pin the
    // daemon's connection-thread join past a shutdown request.
    auto svc = std::make_unique<LiveService>(testConfig());
    ServiceClient idle = connect(svc->endpoint()); // never sends
    ServiceClient active = connect(svc->endpoint());
    std::string response, error;
    ASSERT_TRUE(active.tryRequest("{\"op\":\"ping\"}", &response,
                                  &error))
        << error;
    // Destruction requests shutdown and joins every connection
    // thread; a hang here fails the test via the suite timeout.
    svc.reset();
}

TEST(SocketRoundtrip, FourConcurrentClientsByteIdentical)
{
    LiveService svc(testConfig());
    const std::string submit =
        "{\"op\":\"submit\",\"wait\":true,\"job\":"
        "{\"type\":\"model\",\"benchmark\":\"water\",\"procs\":16,"
        "\"refs\":2000,\"fast\":true}}";

    constexpr int clients = 4;
    std::vector<std::string> results(clients);
    std::vector<std::thread> threads;
    for (int i = 0; i < clients; ++i) {
        threads.emplace_back([&, i]() {
            ServiceClient client = connect(svc.endpoint());
            std::string response, error;
            if (client.tryRequest(submit, &response, &error))
                results[i] = response;
            else
                results[i] = "error: " + error;
        });
    }
    for (std::thread &t : threads)
        t.join();

    // Every client sees the same result object (ids and cache flags
    // may differ between responses; the result payload may not).
    std::vector<std::string> payloads;
    for (int i = 0; i < clients; ++i) {
        util::JsonValue r;
        std::string error;
        ASSERT_TRUE(util::tryParseJson(results[i], &r, &error))
            << results[i];
        const util::JsonValue *result = r.find("result");
        ASSERT_NE(result, nullptr) << results[i];
        payloads.push_back(result->dump());
    }
    for (int i = 1; i < clients; ++i)
        EXPECT_EQ(payloads[i], payloads[0]) << "client " << i;
}

TEST(SocketRoundtrip, SweepMatchesDirectRender)
{
    // A tiny fig3 sweep through the socket equals the library's own
    // rendering — the property that lets benches route via --service.
    LiveService svc(testConfig());
    ServiceClient client = connect(svc.endpoint());
    const std::string submit =
        "{\"op\":\"submit\",\"wait\":true,\"job\":"
        "{\"type\":\"sweep\",\"figure\":\"fig3\",\"refs\":600,"
        "\"fast\":true}}";
    util::JsonValue req;
    std::string error;
    ASSERT_TRUE(util::tryParseJson(submit, &req, &error));
    util::JsonValue response;
    ASSERT_TRUE(client.tryCallResilient(req, &response, &error))
        << error;
    const util::JsonValue *result = response.find("result");
    ASSERT_NE(result, nullptr);
    const util::JsonValue *text = result->find("text");
    ASSERT_NE(text, nullptr);

    figures::FigureOptions opt;
    opt.refs = 600;
    opt.fast = true;
    EXPECT_EQ(text->asString(),
              figures::renderFigure(figures::FigureId::Fig3, opt));
}

} // namespace
} // namespace ringsim::service
