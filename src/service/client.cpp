#include "client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <chrono>
#include <thread>
#include <utility>

#include "service/socket_server.hpp"
#include "util/logging.hpp"
#include "util/posix_error.hpp"

namespace ringsim::service {

ServiceClient::~ServiceClient()
{
    closeFd();
}

ServiceClient::ServiceClient(ServiceClient &&other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      endpoint_(std::move(other.endpoint_)),
      buffer_(std::move(other.buffer_))
{
}

ServiceClient &
ServiceClient::operator=(ServiceClient &&other) noexcept
{
    if (this != &other) {
        closeFd();
        fd_ = std::exchange(other.fd_, -1);
        endpoint_ = std::move(other.endpoint_);
        buffer_ = std::move(other.buffer_);
    }
    return *this;
}

void
ServiceClient::closeFd()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    buffer_.clear();
}

bool
ServiceClient::tryConnect(const std::string &endpoint,
                          std::string *error)
{
    closeFd();
    endpoint_ = endpoint;
    int tcp_port = -1;
    std::string unix_path;
    if (!tryParseEndpoint(endpoint, &tcp_port, &unix_path, error))
        return false;

    if (tcp_port > 0) {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd_ < 0) {
            *error = strprintf("socket: %s", util::errnoString(errno).c_str());
            return false;
        }
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(static_cast<std::uint16_t>(tcp_port));
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0) {
            *error = strprintf("connect 127.0.0.1:%d: %s", tcp_port,
                               util::errnoString(errno).c_str());
            closeFd();
            return false;
        }
        return true;
    }
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) {
        *error = strprintf("socket: %s", util::errnoString(errno).c_str());
        return false;
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        *error = strprintf("connect %s: %s", unix_path.c_str(),
                           util::errnoString(errno).c_str());
        closeFd();
        return false;
    }
    return true;
}

bool
ServiceClient::tryRequest(const std::string &line,
                          std::string *response, std::string *error)
{
    if (fd_ < 0) {
        *error = "not connected";
        return false;
    }
    std::string out = line;
    out += '\n';
    std::size_t off = 0;
    while (off < out.size()) {
        // MSG_NOSIGNAL: a daemon that died mid-request must surface
        // as an EPIPE error string, not SIGPIPE-kill the client.
        ssize_t w = ::send(fd_, out.data() + off, out.size() - off,
                           MSG_NOSIGNAL);
        if (w <= 0) {
            *error = strprintf("write: %s", util::errnoString(errno).c_str());
            return false;
        }
        off += static_cast<std::size_t>(w);
    }
    for (;;) {
        std::size_t nl = buffer_.find('\n');
        if (nl != std::string::npos) {
            *response = buffer_.substr(0, nl);
            buffer_.erase(0, nl + 1);
            return true;
        }
        char chunk[4096];
        ssize_t n = ::read(fd_, chunk, sizeof(chunk));
        if (n <= 0) {
            *error = n == 0 ? "connection closed by server"
                            : strprintf("read: %s",
                                        util::errnoString(errno).c_str());
            return false;
        }
        buffer_.append(chunk, static_cast<std::size_t>(n));
    }
}

bool
ServiceClient::tryCallResilient(const util::JsonValue &request,
                                util::JsonValue *response,
                                std::string *error, unsigned attempts)
{
    std::string last_error = "no attempts made";
    for (unsigned attempt = 0; attempt < attempts; ++attempt) {
        if (!connected()) {
            if (endpoint_.empty()) {
                *error = "not connected";
                return false;
            }
            if (!tryConnect(endpoint_, &last_error)) {
                // The daemon may be mid-restart; linear backoff.
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(50 * (attempt + 1)));
                continue;
            }
        }
        std::string line;
        if (!tryRequest(request.dump(), &line, &last_error)) {
            // Transport failure: the connection is in an unknown
            // state (a half-written request, a half-read response) —
            // drop it and start clean.
            closeFd();
            continue;
        }
        util::JsonValue parsed;
        std::string parse_error;
        if (!util::tryParseJson(line, &parsed, &parse_error)) {
            // A garbled line. Framing is still sound (one line in,
            // one line out) but trust nothing: reconnect.
            last_error = "unparsable response: " + parse_error;
            closeFd();
            continue;
        }
        std::vector<std::string> errors;
        if (parsed.getBool("ok", false, &errors)) {
            *response = std::move(parsed);
            return true;
        }
        const util::JsonValue *ra = parsed.find("retry_after_ms");
        if (ra && ra->isNumber()) {
            // An overload shed is transient by definition: honor the
            // hint (bounded — the hint is advisory, the cap is ours)
            // and try again.
            std::uint64_t wait_ms = std::min<std::uint64_t>(
                ra->asU64(), 2'000);
            last_error = parsed.getString("error", "overloaded",
                                          &errors);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(wait_ms));
            continue;
        }
        // A non-transient application error (bad request, unknown
        // id): retrying cannot help.
        *error = parsed.getString("error", "request failed", &errors);
        return false;
    }
    *error = strprintf("gave up after %u attempts: %s", attempts,
                       last_error.c_str());
    return false;
}

} // namespace ringsim::service
