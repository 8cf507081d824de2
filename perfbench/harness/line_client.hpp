/**
 * @file
 * NDJSON client with a deadline on every request.
 *
 * The service's own ServiceClient blocks without a timeout, which is
 * right for a CLI but wrong for a benchmark: a dead daemon must fail
 * the run, not hang it. This client writes one request line and polls
 * for the one response line until the request's deadline passes.
 */

#ifndef PERFBENCH_LINE_CLIENT_HPP
#define PERFBENCH_LINE_CLIENT_HPP

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>

namespace perfbench {

class LineClient
{
  public:
    LineClient() = default;
    ~LineClient() { close(); }
    LineClient(const LineClient &) = delete;
    LineClient &operator=(const LineClient &) = delete;

    /** Connect to the unix socket at @p path. */
    bool connect(const std::string &path, std::string *error)
    {
        close();
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (path.size() >= sizeof(addr.sun_path)) {
            *error = "socket path too long: " + path;
            return false;
        }
        std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
        fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (fd_ < 0 ||
            ::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0) {
            *error = "connect " + path + ": " + std::strerror(errno);
            close();
            return false;
        }
        return true;
    }

    /** Write @p line (a newline is appended). */
    bool send(const std::string &line, std::string *error)
    {
        std::string out = line + "\n";
        std::size_t off = 0;
        while (off < out.size()) {
            ssize_t n = ::send(fd_, out.data() + off, out.size() - off,
                               MSG_NOSIGNAL);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0) {
                *error = std::string("send: ") + std::strerror(errno);
                return false;
            }
            off += static_cast<std::size_t>(n);
        }
        return true;
    }

    /** Read one response line, failing after @p timeout_ms. */
    bool receive(std::string *line, int timeout_ms, std::string *error)
    {
        auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
        for (;;) {
            std::size_t nl = buffer_.find('\n');
            if (nl != std::string::npos) {
                line->assign(buffer_, 0, nl);
                buffer_.erase(0, nl + 1);
                return true;
            }
            auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - std::chrono::steady_clock::now())
                            .count();
            if (left <= 0) {
                *error = "timed out waiting for a response";
                return false;
            }
            pollfd p{fd_, POLLIN, 0};
            int r = ::poll(&p, 1, static_cast<int>(left));
            if (r < 0 && errno == EINTR)
                continue;
            if (r <= 0)
                continue; // the deadline check above reports it
            char chunk[65536];
            ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0) {
                *error = n == 0 ? "connection closed by the daemon"
                                : std::string("recv: ") +
                                      std::strerror(errno);
                return false;
            }
            buffer_.append(chunk, static_cast<std::size_t>(n));
        }
    }

    /** send() then receive(). */
    bool call(const std::string &line, std::string *response,
              int timeout_ms, std::string *error)
    {
        return send(line, error) && receive(response, timeout_ms, error);
    }

    void close()
    {
        if (fd_ >= 0)
            ::close(fd_);
        fd_ = -1;
        buffer_.clear();
    }

  private:
    int fd_ = -1;
    std::string buffer_;
};

} // namespace perfbench

#endif // PERFBENCH_LINE_CLIENT_HPP
