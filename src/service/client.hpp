/**
 * @file
 * Blocking NDJSON client for the experiment service.
 *
 * A ServiceClient holds one connection and exchanges one request line
 * for one response line. The benches use it to route sweeps through a
 * daemon (--service); ringsim_submit is a thin CLI over it.
 */

#ifndef RINGSIM_SERVICE_CLIENT_HPP
#define RINGSIM_SERVICE_CLIENT_HPP

#include <string>

#include "util/json.hpp"

namespace ringsim::service {

class ServiceClient
{
  public:
    ServiceClient() = default;
    ~ServiceClient();

    ServiceClient(ServiceClient &&other) noexcept;
    ServiceClient &operator=(ServiceClient &&other) noexcept;
    ServiceClient(const ServiceClient &) = delete;
    ServiceClient &operator=(const ServiceClient &) = delete;

    /**
     * Connect to @p endpoint (same grammar as the server:
     * tcp:PORT / unix:PATH / PATH). False + @p error on failure.
     */
    [[nodiscard]] bool tryConnect(const std::string &endpoint,
                                  std::string *error);

    /** True while a connection is open. */
    bool connected() const { return fd_ >= 0; }

    /**
     * Send @p line and block for the one-line response (returned
     * without the newline). False + @p error on transport failure.
     */
    [[nodiscard]] bool tryRequest(const std::string &line,
                                  std::string *response,
                                  std::string *error);

    /**
     * tryRequest + parse, surviving a chaotic daemon: a dropped
     * connection, a garbled (unparsable) response line, or an
     * overload shed is retried up to @p attempts times — reconnecting
     * as needed and honoring the server's retry_after_ms hint. Legal
     * for every current op because requests are idempotent: a submit
     * replayed after a lost response re-answers from the memo cache.
     * Non-transient {"ok":false} errors fail immediately, with the
     * server's "error" member as @p error.
     */
    [[nodiscard]] bool tryCallResilient(const util::JsonValue &request,
                                        util::JsonValue *response,
                                        std::string *error,
                                        unsigned attempts = 8);

  private:
    void closeFd();

    int fd_ = -1;
    std::string endpoint_; //!< last tryConnect target (for retries)
    std::string buffer_;   //!< bytes read past the last response line
};

} // namespace ringsim::service

#endif // RINGSIM_SERVICE_CLIENT_HPP
