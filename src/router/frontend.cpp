#include "router/frontend.h"

#include <algorithm>
#include <thread>
#include <utility>
#include <vector>

namespace rs::router {

Result<std::unique_ptr<Frontend>> Frontend::start(
    const FrontendOptions& options) {
  std::unique_ptr<Frontend> frontend(new Frontend());
  RS_ASSIGN_OR_RETURN(frontend->router_, Router::create(options.router));
  net::ServerOptions server;
  server.port = options.port;
  server.threads = std::max(
      1u, std::min(std::thread::hardware_concurrency(),
                   options.max_connections));
  server.max_connections = options.max_connections / server.threads +
                           (options.max_connections % server.threads != 0);
  std::vector<std::unique_ptr<net::Handler>> handlers;
  for (std::uint32_t t = 0; t < server.threads; ++t) {
    handlers.push_back(std::make_unique<RouterSession>(*frontend->router_));
  }
  RS_ASSIGN_OR_RETURN(frontend->server_,
                      net::Server::start(std::move(handlers), server));
  return frontend;
}

Frontend::~Frontend() { stop(); }

void Frontend::stop() {
  if (server_ != nullptr) server_->stop();
}

}  // namespace rs::router
