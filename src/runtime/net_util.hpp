// UDP socket plumbing for the MultiRingReactor's kUdp transport: loopback
// addressing, explicit kernel buffer sizing, and the SK_MEMINFO drop
// counter.
//
// Why explicit buffers: a socket left at net.core.rmem_default silently
// loses a bursty ring's datagrams to receive-queue overflow, and that loss
// cannot be told from injected faults. Sizing the buffers explicitly makes
// the capacity a stated part of the experiment, and SK_MEMINFO_DROPS makes
// the remaining overflow *observable*: it is reported as kernel_rx_drops in
// telemetry instead of vanishing.
#pragma once

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>

#if defined(__linux__)
#include <linux/sock_diag.h>  // SK_MEMINFO_DROPS
#endif

#include "util/assert.hpp"

namespace ssr::runtime {

inline sockaddr_in loopback_address(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

/// Requests explicit receive/send buffer sizes. The kernel may clamp to
/// net.core.{r,w}mem_max (and doubles the value for bookkeeping); the
/// point is that the capacity is *chosen*, not inherited.
inline void set_socket_buffers(int fd, int rcvbuf, int sndbuf) {
  SSR_REQUIRE(::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                           sizeof(rcvbuf)) == 0,
              "failed to set SO_RCVBUF");
  SSR_REQUIRE(::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &sndbuf,
                           sizeof(sndbuf)) == 0,
              "failed to set SO_SNDBUF");
}

/// Creates a UDP socket bound to an ephemeral loopback port with explicit
/// buffers; returns the fd and writes the bound port to @p port.
inline int make_loopback_udp_socket(std::uint16_t& port, int rcvbuf,
                                    int sndbuf) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  SSR_REQUIRE(fd >= 0, "failed to create UDP socket");
  set_socket_buffers(fd, rcvbuf, sndbuf);
  sockaddr_in addr = loopback_address(0);
  SSR_REQUIRE(
      ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
      "failed to bind UDP socket");
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  SSR_REQUIRE(
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0,
      "failed to query bound port");
  port = ntohs(bound.sin_port);
  return fd;
}

inline void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  SSR_REQUIRE(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
              "failed to set O_NONBLOCK");
}

/// Datagrams this socket's receive queue dropped for lack of buffer space
/// (SK_MEMINFO_DROPS), or 0 where SO_MEMINFO is unavailable. Reading is a
/// plain getsockopt and safe from any thread.
inline std::uint64_t socket_kernel_drops(int fd) {
// SO_MEMINFO is a macro; SK_MEMINFO_* are enum constants from
// <linux/sock_diag.h>, so they must NOT appear in #if defined() tests.
#if defined(__linux__) && defined(SO_MEMINFO)
  std::uint32_t meminfo[SK_MEMINFO_VARS] = {};
  socklen_t len = sizeof(meminfo);
  if (::getsockopt(fd, SOL_SOCKET, SO_MEMINFO, meminfo, &len) != 0) {
    return 0;
  }
  if (len < (SK_MEMINFO_DROPS + 1) * sizeof(std::uint32_t)) return 0;
  return meminfo[SK_MEMINFO_DROPS];
#else
  (void)fd;
  return 0;
#endif
}

}  // namespace ssr::runtime
