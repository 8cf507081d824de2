#include "socket_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <thread>

#include "fault/service_faults.hpp"
#include "service/server.hpp"
#include "util/logging.hpp"
#include "util/posix_error.hpp"

namespace ringsim::service {

namespace {

/**
 * Write all of @p data to @p fd. When @p chunk is nonzero, write at
 * most @p chunk bytes per send with @p delay_us between them (the
 * chaos slow-write path). Returns false on any send failure.
 */
bool
sendAll(int fd, const char *data, std::size_t size, std::size_t chunk,
        unsigned delay_us)
{
    std::size_t off = 0;
    while (off < size) {
        std::size_t want = size - off;
        if (chunk != 0)
            want = std::min(want, chunk);
        // MSG_NOSIGNAL: a client that hung up mid-response must
        // surface as EPIPE here, not SIGPIPE the daemon.
        ssize_t w = ::send(fd, data + off, want, MSG_NOSIGNAL);
        if (w <= 0)
            return false;
        off += static_cast<std::size_t>(w);
        if (chunk != 0 && off < size && delay_us != 0)
            std::this_thread::sleep_for(
                std::chrono::microseconds(delay_us));
    }
    return true;
}

} // namespace

bool
tryParseEndpoint(const std::string &endpoint, int *tcp_port,
                 std::string *unix_path, std::string *error)
{
    *tcp_port = -1;
    unix_path->clear();
    if (endpoint.rfind("tcp:", 0) == 0) {
        const std::string port = endpoint.substr(4);
        char *end = nullptr;
        long v = std::strtol(port.c_str(), &end, 10);
        if (port.empty() || *end != '\0' || v < 1 || v > 65535) {
            *error = "endpoint = '" + endpoint +
                     "': tcp port must be 1..65535";
            return false;
        }
        *tcp_port = static_cast<int>(v);
        return true;
    }
    std::string path = endpoint;
    if (path.rfind("unix:", 0) == 0)
        path = path.substr(5);
    if (path.empty()) {
        *error = "endpoint = '" + endpoint +
                 "': expected tcp:PORT or a socket path";
        return false;
    }
    if (path.size() >= sizeof(sockaddr_un{}.sun_path)) {
        *error = strprintf("endpoint = '%s': socket path longer than "
                           "%zu bytes",
                           endpoint.c_str(),
                           sizeof(sockaddr_un{}.sun_path) - 1);
        return false;
    }
    *unix_path = std::move(path);
    return true;
}

std::vector<std::string>
splitEndpointList(const std::string &list)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= list.size()) {
        std::size_t comma = list.find(',', start);
        std::size_t end =
            comma == std::string::npos ? list.size() : comma;
        if (end > start)
            out.push_back(list.substr(start, end - start));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return out;
}

SocketServer::SocketServer(ServiceCore &core, std::string endpoint)
    : core_(core), endpoint_(std::move(endpoint))
{
}

SocketServer::~SocketServer()
{
    if (listen_fd_ >= 0)
        ::close(listen_fd_);
    // Pump threads exit on their own (each polls shutdownRequested
    // with a 100 ms bound); joinAll just waits for them.
    conns_.joinAll();
    if (unix_path_bound_)
        ::unlink(unix_path_.c_str());
}

bool
SocketServer::tryStart(std::string *error)
{
    int tcp_port = -1;
    if (!tryParseEndpoint(endpoint_, &tcp_port, &unix_path_, error))
        return false;

    if (tcp_port > 0) {
        listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (listen_fd_ < 0) {
            *error = strprintf("socket: %s", util::errnoString(errno).c_str());
            return false;
        }
        int one = 1;
        ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(static_cast<std::uint16_t>(tcp_port));
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::bind(listen_fd_, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) != 0) {
            *error = strprintf("bind 127.0.0.1:%d: %s", tcp_port,
                               util::errnoString(errno).c_str());
            return false;
        }
    } else {
        listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (listen_fd_ < 0) {
            *error = strprintf("socket: %s", util::errnoString(errno).c_str());
            return false;
        }
        // A stale socket file from a dead daemon would fail the bind.
        ::unlink(unix_path_.c_str());
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, unix_path_.c_str(),
                     sizeof(addr.sun_path) - 1);
        if (::bind(listen_fd_, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) != 0) {
            *error = strprintf("bind %s: %s", unix_path_.c_str(),
                               util::errnoString(errno).c_str());
            return false;
        }
        unix_path_bound_ = true;
    }
    if (::listen(listen_fd_, 64) != 0) {
        *error = strprintf("listen: %s", util::errnoString(errno).c_str());
        return false;
    }
    return true;
}

void
SocketServer::serve()
{
    std::uint64_t serial = 0;
    while (!core_.shutdownRequested()) {
        // Poll with a short timeout so a shutdown request taken on a
        // connection thread stops the accept loop promptly.
        pollfd pfd{listen_fd_, POLLIN, 0};
        int ready = ::poll(&pfd, 1, 100);
        if (ready <= 0)
            continue;
        int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0)
            continue;
        std::string client = strprintf(
            "conn%llu", static_cast<unsigned long long>(++serial));
        conns_.launch([this, fd, client]() {
            handleConnection(fd, client);
        });
        // Join ended connections as we go so a long-running daemon
        // serving many short connections does not accumulate one
        // thread object (and stack) per connection ever accepted.
        conns_.reapFinished();
    }
}

void
SocketServer::handleConnection(int fd, std::string client)
{
    std::string buffer;
    char chunk[4096];
    fault::ServiceFaultInjector *chaos = core_.chaosInjector();
    for (;;) {
        // Bounded wait instead of a blocking read: an idle client
        // holding its connection open must not pin this thread (and
        // the destructor's join) past a shutdown request.
        pollfd pfd{fd, POLLIN, 0};
        int ready = ::poll(&pfd, 1, 100);
        if (core_.shutdownRequested())
            break;
        if (ready < 0 && errno != EINTR)
            break;
        if (ready <= 0)
            continue;
        ssize_t n = ::read(fd, chunk, sizeof(chunk));
        if (n <= 0)
            break;
        buffer.append(chunk, static_cast<std::size_t>(n));
        std::size_t start = 0;
        for (;;) {
            std::size_t nl = buffer.find('\n', start);
            if (nl == std::string::npos)
                break;
            std::string line = buffer.substr(start, nl - start);
            start = nl + 1;
            if (line.empty())
                continue;
            std::string response = core_.handleLine(client, line);
            response += '\n';

            // Chaos: a disconnect sends a bare response prefix and
            // drops the connection; a garble stomps the line's first
            // byte (the newline survives, so the client's framing
            // sees one complete line that can never parse — a flip
            // deeper in the payload could yield *valid* JSON with
            // altered data, which no client could detect); a slow
            // write dribbles the response out in tiny chunks.
            if (chaos && chaos->disconnect()) {
                sendAll(fd, response.data(), response.size() / 2, 0,
                        0);
                ::close(fd);
                core_.clientGone(client);
                return;
            }
            if (chaos && chaos->garble() && response.size() > 1)
                response[0] = '#';
            std::size_t slow_chunk =
                chaos && chaos->slowWrite()
                    ? std::max(1u, chaos->config().slowChunkBytes)
                    : 0;
            if (!sendAll(fd, response.data(), response.size(),
                         slow_chunk,
                         chaos ? chaos->config().slowChunkDelayUs
                               : 0)) {
                ::close(fd);
                core_.clientGone(client);
                return;
            }
        }
        buffer.erase(0, start);
    }
    ::close(fd);
    core_.clientGone(client);
}

} // namespace ringsim::service
