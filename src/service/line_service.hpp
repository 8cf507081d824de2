/**
 * @file
 * Transport-facing interface of an NDJSON line service.
 *
 * SocketServer pumps lines between connections and *some* request
 * handler, so the accept loop, chaos hooks and connection lifecycle
 * do not depend on what answers. The one handler is ServiceCore —
 * both a worker daemon and the fleet coordinator, which differ only
 * in their service::Executor — and the seam keeps the pump testable
 * without one.
 */

#ifndef RINGSIM_SERVICE_LINE_SERVICE_HPP
#define RINGSIM_SERVICE_LINE_SERVICE_HPP

#include <string>

namespace ringsim::fault {
class ServiceFaultInjector;
}

namespace ringsim::service {

class LineService
{
  public:
    virtual ~LineService() = default;

    /**
     * Handle one NDJSON request line from @p client (the connection's
     * identity) and return the one-line response (no trailing
     * newline). Must be safe to call from concurrent connection
     * threads.
     */
    virtual std::string handleLine(const std::string &client,
                                   const std::string &line) = 0;

    /** True once a shutdown request has been accepted. */
    virtual bool shutdownRequested() const = 0;

    /** The connection identified by @p client closed. */
    virtual void clientGone(const std::string &client) = 0;

    /** The chaos injector, or nullptr when chaos is off. */
    virtual fault::ServiceFaultInjector *chaosInjector()
    {
        return nullptr;
    }
};

} // namespace ringsim::service

#endif // RINGSIM_SERVICE_LINE_SERVICE_HPP
