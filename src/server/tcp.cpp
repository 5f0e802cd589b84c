#include "server/tcp.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>

namespace lmre {

namespace {

/// Pending-connection backlog for both listener families.
constexpr int kListenBacklog = 1024;

void set_error(std::string* error, std::string message) {
  if (error) *error = std::move(message);
}

/// Fills a Unix-domain address; false (with the reason) when `path` does
/// not fit sun_path with its terminating NUL.
bool unix_address(const std::string& path, sockaddr_un* addr,
                  std::string* error) {
  *addr = sockaddr_un{};
  addr->sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr->sun_path)) {
    set_error(error, "socket path too long (" + std::to_string(path.size()) +
                         " bytes, limit " +
                         std::to_string(sizeof(addr->sun_path) - 1) + ")");
    return false;
  }
  std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
  return true;
}

int open_socket(int family, std::string* error) {
  int fd = ::socket(family, SOCK_STREAM, 0);
  if (fd < 0) set_error(error, std::string("socket: ") + std::strerror(errno));
  return fd;
}

/// Binds and listens on `fd`, or closes it and returns -1 with the reason
/// (`name` is the address as the caller spelled it).
int bind_listen(int fd, const sockaddr* addr, socklen_t len,
                const std::string& name, std::string* error) {
  if (::bind(fd, addr, len) < 0) {
    set_error(error, "bind " + name + ": " + std::strerror(errno));
  } else if (::listen(fd, kListenBacklog) < 0) {
    set_error(error, std::string("listen: ") + std::strerror(errno));
  } else {
    return fd;
  }
  ::close(fd);
  return -1;
}

/// Connects `fd`, or closes it and returns -1 with the reason.
int connect_or_close(int fd, const sockaddr* addr, socklen_t len,
                     const std::string& name, std::string* error) {
  if (::connect(fd, addr, len) == 0) return fd;
  set_error(error, "connect " + name + ": " + std::strerror(errno));
  ::close(fd);
  return -1;
}

/// Resolves the textual host to an IPv4 address (no DNS: the serve
/// transport is for loopback and rack-local fleets, where numeric
/// addresses are the norm and a resolver dependency is pure liability).
bool resolve_ipv4(const std::string& host, in_addr* out, std::string* error) {
  std::string name = host.empty() ? "0.0.0.0" : host;
  if (name == "localhost") name = "127.0.0.1";
  if (::inet_pton(AF_INET, name.c_str(), out) == 1) return true;
  set_error(error, "unresolvable host '" + host +
                       "' (use a numeric IPv4 address or 'localhost')");
  return false;
}

}  // namespace

std::optional<HostPort> parse_host_port(const std::string& spec,
                                        std::string* error) {
  size_t colon = spec.rfind(':');
  if (colon == std::string::npos) {
    set_error(error, "expected HOST:PORT, got '" + spec + "'");
    return std::nullopt;
  }
  HostPort hp;
  hp.host = spec.substr(0, colon);
  const char* first = spec.data() + colon + 1;
  const char* last = spec.data() + spec.size();
  auto [ptr, ec] = std::from_chars(first, last, hp.port);
  if (ec != std::errc() || ptr != last || hp.port < 0 || hp.port > 65535) {
    set_error(error, "bad port in '" + spec + "' (want 0..65535)");
    return std::nullopt;
  }
  in_addr probe{};
  if (!resolve_ipv4(hp.host, &probe, error)) return std::nullopt;
  return hp;
}

int tcp_listen(const std::string& host, int port, int* bound_port,
               std::string* error) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (!resolve_ipv4(host, &addr.sin_addr, error)) return -1;

  int fd = open_socket(AF_INET, error);
  if (fd < 0) return -1;
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  fd = bind_listen(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr,
                   host + ":" + std::to_string(port), error);
  if (fd >= 0 && bound_port) {
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    *bound_port = ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound),
                                &len) == 0
                      ? ntohs(bound.sin_port)
                      : port;
  }
  return fd;
}

int tcp_connect(const std::string& host, int port, std::string* error) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  std::string target = host.empty() ? "127.0.0.1" : host;
  if (target == "0.0.0.0") target = "127.0.0.1";  // wildcard bind -> loopback
  if (!resolve_ipv4(target, &addr.sin_addr, error)) return -1;
  int fd = open_socket(AF_INET, error);
  if (fd < 0) return -1;
  return connect_or_close(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr,
                          host + ":" + std::to_string(port), error);
}

int unix_listen(const std::string& path, std::string* error) {
  sockaddr_un addr{};
  if (!unix_address(path, &addr, error)) return -1;
  int fd = open_socket(AF_UNIX, error);
  if (fd < 0) return -1;
  ::unlink(path.c_str());  // replace a stale socket from a dead server
  return bind_listen(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr,
                     path, error);
}

int unix_connect(const std::string& path, std::string* error) {
  sockaddr_un addr{};
  if (!unix_address(path, &addr, error)) return -1;
  int fd = open_socket(AF_UNIX, error);
  if (fd < 0) return -1;
  return connect_or_close(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr,
                          path, error);
}

}  // namespace lmre
