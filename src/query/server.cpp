#include "query/server.h"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>

#include "core/parallel.h"
#include "obs/obs.h"

namespace bgpatoms::query {

namespace {

/// recv() exactly `n` bytes; false on EOF/error/timeout.
bool read_exact(int fd, void* buf, std::size_t n) {
  auto* p = static_cast<char*>(buf);
  while (n > 0) {
    const ssize_t got = ::recv(fd, p, n, 0);
    if (got <= 0) {
      if (got < 0 && errno == EINTR) continue;
      return false;
    }
    p += got;
    n -= static_cast<std::size_t>(got);
  }
  return true;
}

/// read_exact for frame headers on a persistent connection: an idle
/// client (receive timeout with zero bytes read) is not an error — keep
/// waiting, up to `idle_ticks` one-second receive timeouts, until bytes
/// arrive, EOF, or the server is stopping. Once the first header byte
/// lands the strict timeout applies: a client that stalls mid-header is
/// dropped like one that stalls mid-payload.
bool read_header(int fd, void* buf, std::size_t n, int idle_ticks,
                 const std::atomic<bool>& stop) {
  auto* p = static_cast<char*>(buf);
  std::size_t done = 0;
  while (done < n) {
    const ssize_t got = ::recv(fd, p + done, n - done, 0);
    if (got <= 0) {
      if (got < 0 && errno == EINTR) continue;
      if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK) && done == 0 &&
          --idle_ticks > 0 && !stop.load(std::memory_order_relaxed)) {
        continue;  // idle between frames: wait for the next request
      }
      return false;
    }
    done += static_cast<std::size_t>(got);
  }
  return true;
}

/// send() all of `data`; false on error. MSG_NOSIGNAL: a client hanging
/// up mid-reply must not SIGPIPE the server.
bool write_all(int fd, std::string_view data) {
  const char* p = data.data();
  std::size_t n = data.size();
  while (n > 0) {
    const ssize_t sent = ::send(fd, p, n, MSG_NOSIGNAL);
    if (sent <= 0) {
      if (sent < 0 && errno == EINTR) continue;
      return false;
    }
    p += sent;
    n -= static_cast<std::size_t>(sent);
  }
  return true;
}

std::uint32_t decode_le32(const char* p) {
  return static_cast<std::uint8_t>(p[0]) |
         static_cast<std::uint32_t>(static_cast<std::uint8_t>(p[1])) << 8 |
         static_cast<std::uint32_t>(static_cast<std::uint8_t>(p[2])) << 16 |
         static_cast<std::uint32_t>(static_cast<std::uint8_t>(p[3])) << 24;
}

}  // namespace

Server::Server(const ServeState& state, const ServerOptions& options)
    : state_(&state), options_(options) {
  // Floor of 2: the loop is IO-bound, and with a single worker one idle
  // persistent connection would starve accept until its idle timeout.
  resolved_threads_ = std::max(2, core::resolve_threads(options.threads));
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error(std::string("bga_serve: socket: ") +
                             std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(options.port));
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listen_fd_, 128) != 0) {
    const std::string what = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("bga_serve: bind/listen: " + what);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);
}

Server::~Server() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void Server::run() {
  // One accept loop per pool thread (workers + the calling thread); each
  // worker owns its accepted connections end to end.
  core::TaskPool pool(resolved_threads_);
  const auto n = static_cast<std::size_t>(pool.thread_count());
  pool.run(n, [this](std::size_t) { worker_loop(); });
}

void Server::worker_loop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, options_.poll_interval_ms);
    if (ready <= 0) continue;  // timeout/EINTR: re-check stop_
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;  // another worker won the race (EAGAIN)
    // Blocking I/O with receive and send timeouts: a stalled client
    // costs its worker at most one second per read or write before being
    // dropped, a client that stops reading its replies included.
    timeval tv{};
    tv.tv_sec = 1;
    ::setsockopt(client, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    ::setsockopt(client, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
    OBS_COUNT("serve.connections");
    serve_connection(client);
    ::close(client);
  }
}

void Server::serve_connection(int fd) {
  const int idle_ticks = std::max(1, options_.idle_timeout_ms / 1000);
  char head[4];
  if (!read_header(fd, head, sizeof head, idle_ticks, stop_)) return;
  if (std::memcmp(head, "GET ", 4) == 0) {
    serve_http_metrics(fd);
    return;
  }
  std::uint32_t length = decode_le32(head);
  std::string payload;
  while (true) {
    if (length > options_.max_frame) return;  // oversized: drop connection
    payload.resize(length);
    if (!read_exact(fd, payload.data(), length)) return;
    const ServeState::Reply reply = state_->handle(payload);
    if (!write_all(fd, frame(reply.body))) return;
    if (reply.shutdown) {
      stop();
      return;
    }
    if (!read_header(fd, head, sizeof head, idle_ticks, stop_)) return;
    length = decode_le32(head);
  }
}

void Server::serve_http_metrics(int fd) {
  // Drain the request head (best effort — one GET per connection).
  char buf[1024];
  while (true) {
    const ssize_t got = ::recv(fd, buf, sizeof buf, MSG_DONTWAIT);
    if (got <= 0 || std::memchr(buf, '\n', static_cast<std::size_t>(got)))
      break;
  }
  const std::string body = state_->metrics_json(resolved_threads_);
  std::string response =
      "HTTP/1.1 200 OK\r\n"
      "Content-Type: application/json\r\n"
      "Connection: close\r\n"
      "Content-Length: " +
      std::to_string(body.size()) + "\r\n\r\n" + body;
  write_all(fd, response);
}

}  // namespace bgpatoms::query
