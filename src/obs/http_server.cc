#include "obs/http_server.h"

#ifndef _WIN32
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

#include <cerrno>
#include <cstring>

#include "common/logging.h"

namespace vada::obs {

#ifdef _WIN32

Status HttpServer::Start(uint16_t) {
  return Status::Unimplemented("HttpServer requires POSIX sockets");
}
void HttpServer::Stop() {}
void HttpServer::Handle(const std::string&, Handler) {}
void HttpServer::AcceptLoop() {}
void HttpServer::ServeClient(int) {}
HttpResponse HttpServer::Dispatch(const HttpRequest&) { return {}; }

#else

namespace {

const char* StatusText(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    default: return "Internal Server Error";
  }
}

/// Writes the whole buffer, retrying short writes; best-effort (the peer
/// may close early, which is its prerogative).
void WriteAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return;
    off += static_cast<size_t>(n);
  }
}

}  // namespace

void HttpServer::Handle(const std::string& path, Handler handler) {
  MutexLock lock(mutex_);
  routes_[path] = std::move(handler);
}

Status HttpServer::Start(uint16_t port) {
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("HttpServer already running");
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket(): ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // introspection is local
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status s = Status::Internal(std::string("bind(127.0.0.1:") +
                                std::to_string(port) +
                                "): " + std::strerror(errno));
    ::close(fd);
    return s;
  }
  if (::listen(fd, 16) != 0) {
    Status s =
        Status::Internal(std::string("listen(): ") + std::strerror(errno));
    ::close(fd);
    return s;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port_.store(ntohs(addr.sin_port), std::memory_order_release);
  }
  listen_fd_ = fd;
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void HttpServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // shutdown() wakes the blocking accept(); close() alone is not
  // guaranteed to on all platforms. The accept loop reads listen_fd_,
  // so it is closed and reset only after the loop has exited.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (thread_.joinable()) thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  port_.store(0, std::memory_order_release);
}

void HttpServer::AcceptLoop() {
  while (running_.load(std::memory_order_acquire)) {
    int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR) continue;
      return;  // listening socket closed by Stop()
    }
    // A stalled client must not wedge the introspection loop.
    timeval timeout{/*tv_sec=*/2, /*tv_usec=*/0};
    ::setsockopt(client, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    ::setsockopt(client, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
    ServeClient(client);
    ::close(client);
  }
}

void HttpServer::ServeClient(int client_fd) {
  // Read until the end of the header block (the routes take no bodies).
  std::string raw;
  char buf[2048];
  while (raw.size() < 64 * 1024 &&
         raw.find("\r\n\r\n") == std::string::npos &&
         raw.find("\n\n") == std::string::npos) {
    ssize_t n = ::recv(client_fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    raw.append(buf, static_cast<size_t>(n));
  }
  if (raw.empty()) return;

  HttpRequest request;
  HttpResponse response;
  size_t line_end = raw.find_first_of("\r\n");
  std::string line = raw.substr(0, line_end);
  size_t sp1 = line.find(' ');
  size_t sp2 = line.find(' ', sp1 == std::string::npos ? sp1 : sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    response.status = 400;
    response.body = "malformed request line\n";
  } else {
    request.method = line.substr(0, sp1);
    std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
    size_t q = target.find('?');
    request.path = target.substr(0, q);
    if (q != std::string::npos) request.query = target.substr(q + 1);
    response = Dispatch(request);
  }
  requests_.fetch_add(1, std::memory_order_relaxed);

  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                    StatusText(response.status) + "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  if (request.method != "HEAD") out += response.body;
  WriteAll(client_fd, out);
}

HttpResponse HttpServer::Dispatch(const HttpRequest& request) {
  HttpResponse response;
  if (request.method != "GET" && request.method != "HEAD") {
    response.status = 405;
    response.body = "only GET is supported\n";
    return response;
  }
  Handler handler;
  {
    MutexLock lock(mutex_);
    auto it = routes_.find(request.path);
    if (it != routes_.end()) {
      handler = it->second;
    } else if (request.path == "/") {
      response.body = "vada introspection endpoints:\n";
      for (const auto& [path, unused] : routes_) response.body += path + "\n";
      return response;
    }
  }
  if (!handler) {
    response.status = 404;
    response.body = "no route for " + request.path + "\n";
    return response;
  }
  return handler(request);
}

#endif  // _WIN32

}  // namespace vada::obs
