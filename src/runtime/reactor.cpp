#include "runtime/reactor.hpp"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstring>

#include "runtime/net_util.hpp"
#include "util/assert.hpp"
#include "wire/codec.hpp"

namespace ssr::runtime {

namespace {

// Virtual-transport link latency: a frame scheduled at t is delivered at
// t + kVirtualLatencyUs. A reordered frame arrives one extra latency late
// (stale, after fresher traffic) — the virtual analogue of the UDP
// transport's held-slot reordering.
constexpr std::uint64_t kVirtualLatencyUs = 50;

// Timer-wheel cookies: low 2 bits select the event kind, the rest carry
// the ring index (kick / refresh) or a pending-frame slot (delivery).
constexpr std::uint64_t kCookieRefresh = 0;
constexpr std::uint64_t kCookieDelivery = 1;
constexpr std::uint64_t kCookieKick = 2;

std::uint64_t refresh_cookie(std::size_t ring) {
  return (static_cast<std::uint64_t>(ring) << 2) | kCookieRefresh;
}
std::uint64_t delivery_cookie(std::size_t slot) {
  return (static_cast<std::uint64_t>(slot) << 2) | kCookieDelivery;
}
std::uint64_t kick_cookie(std::size_t ring) {
  return (static_cast<std::uint64_t>(ring) << 2) | kCookieKick;
}

// recvmmsg/sendmmsg batch geometry: 64 messages per syscall amortizes the
// kernel crossing ~64x; 512-byte buffers dwarf any frame we encode.
constexpr unsigned kBatchMessages = 64;
constexpr std::size_t kRecvBuffer = 512;

// Refresh backoff cap: a stalled ring's refresh interval doubles per
// unanswered broadcast up to base << kMaxBackoffShift (64x).
constexpr std::uint8_t kMaxBackoffShift = 6;

// A frame in flight fits one fixed-stride slot: a length byte, then the
// frame. The stride covers the largest frame of any valid config (29 B).
constexpr std::size_t kSlotStride = 32;

std::size_t varint_bytes(std::uint64_t value) {
  std::size_t bytes = 1;
  for (; value >= 0x80; value >>= 7) ++bytes;
  return bytes;
}

// The longest v2 frame a config can send: magic and version, ring-id,
// sender, payload length, payload (the destination node, then the widest
// state: SSRmin's value and flag byte, or dual's two values), CRC-32.
std::size_t max_frame_bytes(const ReactorConfig& config, std::uint32_t k) {
  const std::size_t node = varint_bytes(config.nodes - 1);
  const std::size_t value = varint_bytes(k - 1);
  const std::size_t payload = node + std::max(value + 1, 2 * value);
  return 2 + varint_bytes(config.rings - 1) + node + varint_bytes(payload) +
         payload + 4;
}

}  // namespace

const char* to_string(ReactorTransport transport) {
  switch (transport) {
    case ReactorTransport::kVirtual:
      return "virtual";
    case ReactorTransport::kUdp:
      return "udp";
  }
  return "unknown";
}

void ReactorConfig::validate() const {
  SSR_REQUIRE(rings >= 1, "need at least one ring");
  SSR_REQUIRE(nodes >= 3 && nodes <= 64, "nodes per ring must be in [3, 64]");
  SSR_REQUIRE(shards >= 1 && shards <= 64, "shards must be in [1, 64]");
  SSR_REQUIRE(refresh_interval.count() > 0,
              "refresh interval must be positive");
  const std::uint32_t k =
      modulus == 0 ? static_cast<std::uint32_t>(nodes) + 1 : modulus;
  SSR_REQUIRE(k > nodes, "modulus must exceed ring size (SSRmin: K > n)");
  SSR_REQUIRE(fault_plan.windows.size() <= 32,
              "multi-ring fault plans support at most 32 windows "
              "(per-ring crash bookkeeping is a 32-bit mask)");
  fault_plan.validate(nodes);
}

double LatencyHistogram::bucket_mid(std::size_t b) {
  if (b < kMinor) return static_cast<double>(b) + 0.5;
  const std::size_t major = b / kMinor;
  const std::size_t minor = b % kMinor;
  // Octave [2^(major+2), 2^(major+3)) split into 8 linear minor buckets.
  const double base = std::ldexp(1.0, static_cast<int>(major) + 2);
  const double width = base / kMinor;
  return base + (static_cast<double>(minor) + 0.5) * width;
}

double LatencyHistogram::quantile(double q) const {
  if (total_ == 0) return 0.0;
  const double target = q * static_cast<double>(total_);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += counts_[b];
    if (static_cast<double>(seen) >= target) return bucket_mid(b);
  }
  return bucket_mid(kBuckets - 1);
}

// --- shard state ----------------------------------------------------------

/// One reactor shard: the timer wheel, latency histogram and (kUdp) socket
/// plumbing for the rings with ring % shards == id. The virtual transport
/// uses a single shard for all rings — one wheel is what makes the event
/// order globally deterministic. Everything here is touched only by the
/// shard's own thread (or the single thread in virtual mode).
struct MultiRingReactor::Shard {
  std::size_t id = 0;
  TimerWheel wheel;
  LatencyHistogram latency;
  std::vector<TimerWheel::Expiry> fired;   // advance_to scratch
  std::vector<bool> holder_scratch;        // Telemetry::observe scratch
  std::vector<std::uint32_t> rebroadcast;  // process_frame scratch
  wire::Bytes payload;                     // broadcast_node scratch
  wire::Bytes frame;                       // broadcast_node scratch

  // Budgeted repair queue (kUdp): timer fires are drained here and
  // processed a few per loop iteration, so a thundering herd of stalled
  // rings cannot starve the receive path with repair broadcasts.
  std::vector<TimerWheel::Expiry> repair_queue;
  std::size_t repair_head = 0;

  // Rejections not attributable to a ring (bad CRC, wrong wire version,
  // unknown ring id, empty or truncated datagrams).
  std::uint64_t rejected = 0;
  // sendmmsg failures (kernel send queue full); frames are dropped and
  // the refresh machinery repairs.
  std::uint64_t send_errors = 0;
  // Start time of the loop's last pass before the deadline: a ring whose
  // last holder gain is this recent counts as live (make_report).
  std::uint64_t last_pass_us = 0;

  // --- virtual transport: in-flight frames carried by wheel entries -----
  // Slot s is arena[s * kSlotStride, (s + 1) * kSlotStride); freed slot
  // indices are reused, so the arena grows only to the peak in flight.
  std::vector<std::uint8_t> arena;
  std::vector<std::uint32_t> free_slots;

  // --- udp transport ----------------------------------------------------
  int fd = -1;
  int epoll_fd = -1;
  std::uint16_t port = 0;
  sockaddr_in self_addr{};
  wire::Bytes send_arena;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> send_spans;
  // Reorder slot (one per shard): a held-back frame, held_size 0 = none.
  std::array<std::uint8_t, kSlotStride> held{};
  std::size_t held_size = 0;
  std::thread thread;

  Shard() = default;
  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;
  ~Shard() {
    for (const int f : {fd, epoll_fd}) {
      if (f >= 0) ::close(f);
    }
  }

  // Binds the shard's nonblocking loopback socket and its epoll set. Big
  // buffers: one shard socket queues frames for thousands of rings.
  void open_socket() {
    fd = make_loopback_udp_socket(port, 4 * 1024 * 1024, 4 * 1024 * 1024);
    set_nonblocking(fd);
    self_addr = loopback_address(port);
    epoll_fd = ::epoll_create1(0);
    SSR_REQUIRE(epoll_fd >= 0, "epoll_create1 failed");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    SSR_REQUIRE(::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) == 0,
                "epoll_ctl(socket) failed");
  }

  std::size_t put_slot(wire::ByteView bytes) {
    std::size_t s = arena.size() / kSlotStride;
    if (free_slots.empty()) {
      arena.resize(arena.size() + kSlotStride);
    } else {
      s = free_slots.back();
      free_slots.pop_back();
    }
    std::uint8_t* slot = arena.data() + s * kSlotStride;
    slot[0] = static_cast<std::uint8_t>(bytes.size());
    std::memcpy(slot + 1, bytes.data(), bytes.size());
    return s;
  }
  wire::ByteView slot_frame(std::size_t s) const {
    const std::uint8_t* slot = arena.data() + s * kSlotStride;
    return {slot + 1, slot[0]};
  }
  // Zeroed on release, so a view that outlives its slot reads an empty,
  // rejected frame instead of replaying the old one.
  void release_slot(std::size_t s) {
    std::memset(arena.data() + s * kSlotStride, 0, kSlotStride);
    free_slots.push_back(static_cast<std::uint32_t>(s));
  }
};

// --- construction ---------------------------------------------------------

MultiRingReactor::MultiRingReactor(ReactorConfig config)
    : config_(std::move(config)),
      injector_((config_.validate(), config_.fault_plan), config_.nodes) {
  const std::uint32_t k =
      config_.modulus == 0 ? static_cast<std::uint32_t>(config_.nodes) + 1
                           : config_.modulus;
  std::vector<RingProtocolKind> protocols(config_.rings, config_.protocol);
  if (config_.mixed) {
    for (std::size_t r = 0; r < config_.rings; ++r) {
      protocols[r] = static_cast<RingProtocolKind>(r % 3);
    }
  }
  table_ = std::make_unique<RingTable>(config_.rings, config_.nodes, k,
                                       std::move(protocols), config_.start,
                                       config_.seed);
  SSR_REQUIRE(max_frame_bytes(config_, k) < kSlotStride,
              "a frame of this config does not fit a frame slot");
  refresh_backoff_.assign(config_.rings, 0);
  if (config_.per_ring_telemetry) {
    ring_telemetry_.reserve(config_.rings);
    for (std::size_t r = 0; r < config_.rings; ++r) {
      auto t = std::make_unique<Telemetry>(config_.nodes);
      t->set_context(std::string("multiring-") + to_string(config_.transport),
                     to_string(table_->protocol(r)), config_.seed);
      t->set_plan(injector_.plan());
      ring_telemetry_.push_back(std::move(t));
    }
  }
  // The virtual transport runs every ring on one shard: one wheel is what
  // makes the event order globally deterministic.
  const std::size_t nshards = config_.transport == ReactorTransport::kVirtual
                                  ? 1
                                  : std::min(config_.shards, config_.rings);
  for (std::size_t s = 0; s < nshards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->id = s;
    if (config_.transport == ReactorTransport::kUdp) shard->open_socket();
    shards_.push_back(std::move(shard));
  }
}

MultiRingReactor::~MultiRingReactor() = default;

std::vector<std::uint16_t> MultiRingReactor::ports() const {
  std::vector<std::uint16_t> out;
  if (config_.transport == ReactorTransport::kUdp) {
    for (const auto& shard : shards_) out.push_back(shard->port);
  }
  return out;
}

const Telemetry& MultiRingReactor::ring_telemetry(std::size_t ring) const {
  SSR_REQUIRE(ring < ring_telemetry_.size(),
              "ring telemetry needs per_ring_telemetry and a valid ring");
  return *ring_telemetry_[ring];
}

// --- shared protocol plumbing --------------------------------------------

void MultiRingReactor::note_holder_change(std::size_t ring, std::size_t node,
                                          std::uint64_t now_us) {
  Shard& shard = *shards_[ring % shards_.size()];
  const bool changed = table_->update_holder_with(
      ring, node, now_us,
      [&](std::uint64_t interval) { shard.latency.record(interval); });
  if (changed && !ring_telemetry_.empty()) {
    table_->holders(ring, shard.holder_scratch);
    ring_telemetry_[ring]->observe(static_cast<double>(now_us),
                                   shard.holder_scratch);
  }
}

void MultiRingReactor::check_scripted_faults(std::size_t ring,
                                             std::uint64_t now_us) {
  const auto& windows = injector_.plan().windows;
  if (windows.empty()) return;
  std::uint32_t& fired = table_->crash_fired(ring);
  for (std::size_t w = 0; w < windows.size(); ++w) {
    const FaultWindow& window = windows[w];
    if (window.kind != FaultWindow::Kind::kCrashRestart) continue;
    const std::uint32_t bit = std::uint32_t{1} << w;
    if ((fired & bit) != 0 || static_cast<double>(now_us) < window.begin_us) {
      continue;
    }
    fired |= bit;
    if (window.node == kAnyNode) {
      for (std::size_t i = 0; i < config_.nodes; ++i) {
        table_->crash_node(ring, i);
        note_holder_change(ring, i, now_us);
      }
    } else {
      table_->crash_node(ring, window.node);
      note_holder_change(ring, window.node, now_us);
    }
  }
}

void MultiRingReactor::fire_kick(Shard& shard, std::size_t ring,
                                 std::uint64_t now_us) {
  check_scripted_faults(ring, now_us);
  for (std::size_t node = 0; node < config_.nodes; ++node) {
    broadcast_node(ring, node, now_us);
  }
  shard.wheel.schedule_at(
      now_us + static_cast<std::uint64_t>(config_.refresh_interval.count()),
      refresh_cookie(ring));
}

void MultiRingReactor::fire_refresh(Shard& shard, std::size_t ring,
                                    std::uint64_t due_us,
                                    std::uint64_t now_us) {
  check_scripted_faults(ring, now_us);
  const auto base =
      static_cast<std::uint64_t>(config_.refresh_interval.count());
  const std::uint64_t idle_since = table_->last_activity_us(ring);
  const std::uint64_t interval = base << refresh_backoff_[ring];
  // Idleness is judged at the time the timer was due, not when it fired:
  // under kUdp it fires up to a loop iteration late, and an answer that
  // arrived in between shows a live ring, not a stalled one.
  if (due_us >= idle_since + interval) {
    // Still idle after a whole (backed-off) interval: rebroadcast and
    // double the next one — a stalled ring must not flood a congested
    // loop with repair traffic it cannot absorb yet.
    for (std::size_t node = 0; node < config_.nodes; ++node) {
      broadcast_node(ring, node, now_us);
    }
    ++table_->counters(ring).refresh_broadcasts;
    if (refresh_backoff_[ring] < kMaxBackoffShift) ++refresh_backoff_[ring];
    shard.wheel.schedule_at(now_us + (base << refresh_backoff_[ring]),
                            refresh_cookie(ring));
  } else {
    // The ring spoke since the last fire: it is alive, reset the backoff
    // and slide the timer past its latest activity.
    refresh_backoff_[ring] = 0;
    shard.wheel.schedule_at(idle_since + base, refresh_cookie(ring));
  }
}

void MultiRingReactor::broadcast_node(std::size_t ring, std::size_t node,
                                      std::uint64_t now_us) {
  Shard& shard = *shards_[ring % shards_.size()];
  RingCounters& counters = table_->counters(ring);
  const double t = static_cast<double>(now_us);
  if (injector_.node_down(node, t)) return;  // radio off
  const std::size_t n = config_.nodes;
  const std::size_t neighbors[2] = {stab::pred_index(node, n),
                                    stab::succ_index(node, n)};
  for (const std::size_t target : neighbors) {
    const FrameFate fate =
        injector_.on_send(node, target, t, table_->rng(ring));
    if (fate.drop) {
      ++counters.frames_dropped;
      continue;
    }
    shard.payload.clear();
    table_->encode_payload(ring, node, target, shard.payload);
    wire::Bytes& frame = shard.frame;
    frame.clear();
    wire::encode_frame_v2_into(frame, ring, node, shard.payload);
    if (fate.corrupt_bits > 0) {
      wire::corrupt_bits(frame, table_->rng(ring), fate.corrupt_bits);
      ++counters.frames_corrupted;
    }
    if (config_.transport == ReactorTransport::kVirtual) {
      // Delivery rides a timer-wheel entry; a reordered frame arrives one
      // extra latency late, a duplicate is scheduled twice.
      const std::uint64_t arrive = now_us + kVirtualLatencyUs;
      if (fate.duplicate) {
        shard.wheel.schedule_at(arrive, delivery_cookie(shard.put_slot(frame)));
        ++counters.frames_duplicated;
        ++counters.frames_sent;
      }
      const std::uint64_t when =
          fate.reorder ? arrive + kVirtualLatencyUs : arrive;
      if (fate.reorder) ++counters.frames_reordered;
      shard.wheel.schedule_at(when, delivery_cookie(shard.put_slot(frame)));
      ++counters.frames_sent;
    } else {
      // Batched into the shard's sendmmsg arena. The reorder slot holds a
      // frame back until the next send on this shard, so it goes out stale.
      auto append = [&](wire::ByteView f) {
        const std::uint32_t offset =
            static_cast<std::uint32_t>(shard.send_arena.size());
        shard.send_arena.insert(shard.send_arena.end(), f.begin(), f.end());
        shard.send_spans.emplace_back(offset,
                                      static_cast<std::uint32_t>(f.size()));
      };
      if (fate.reorder && shard.held_size == 0) {
        std::copy(frame.begin(), frame.end(), shard.held.begin());
        shard.held_size = frame.size();
        ++counters.frames_reordered;
        ++counters.frames_sent;  // transmitted later, just stale
        continue;
      }
      append(frame);
      ++counters.frames_sent;
      if (fate.duplicate) {
        append(frame);
        ++counters.frames_duplicated;
        ++counters.frames_sent;
      }
      if (shard.held_size != 0) {
        append(wire::ByteView(shard.held.data(), shard.held_size));
        shard.held_size = 0;
      }
    }
  }
}

std::optional<std::size_t> MultiRingReactor::process_frame(
    Shard& shard, wire::ByteView bytes, std::uint64_t now_us) {
  const auto frame = wire::decode_frame_view(bytes);
  if (!frame) {
    // Injected corruption, rejected by checksum — exactly what a real
    // receiver does. A v1 frame fails here too, on its version byte.
    ++shard.rejected;
    return std::nullopt;
  }
  if (frame->ring_id >= config_.rings ||
      frame->ring_id % shards_.size() != shard.id) {
    ++shard.rejected;  // misrouted or garbage ring id
    return std::nullopt;
  }
  const auto ring = static_cast<std::size_t>(frame->ring_id);
  const std::uint64_t sender = frame->sender;
  const wire::ByteView payload = frame->payload;
  shard.rebroadcast.clear();
  RingCounters& counters = table_->counters(ring);
  check_scripted_faults(ring, now_us);
  std::size_t offset = 0;
  const auto dest = wire::get_varint(payload, offset);
  if (!dest || *dest >= config_.nodes || sender >= config_.nodes) {
    ++counters.frames_rejected;
    return ring;
  }
  const double t = static_cast<double>(now_us);
  if (injector_.node_down(*dest, t)) return ring;  // receiver down: discard
  NodeState state;
  if (!table_->decode_state(ring, payload, offset, state)) {
    ++counters.frames_rejected;
    return ring;
  }
  const auto result = table_->deliver(
      ring, static_cast<std::size_t>(*dest), static_cast<std::size_t>(sender),
      state, now_us,
      [&](std::uint64_t interval) { shard.latency.record(interval); });
  if (!result.accepted) {
    ++counters.frames_rejected;
    return ring;
  }
  ++counters.frames_received;
  if (result.holder_changed && !ring_telemetry_.empty()) {
    table_->holders(ring, shard.holder_scratch);
    ring_telemetry_[ring]->observe(static_cast<double>(now_us),
                                   shard.holder_scratch);
  }
  if (result.state_changed) {
    shard.rebroadcast.push_back(static_cast<std::uint32_t>(*dest));
  }
  return ring;
}

// --- virtual transport ----------------------------------------------------

void MultiRingReactor::run_virtual(std::chrono::microseconds duration) {
  Shard& shard = *shards_[0];
  const auto end = static_cast<std::uint64_t>(duration.count());

  // Kick: every node broadcasts its initial state, staggered over the
  // first few hundred microseconds to spread the frame burst. The kick
  // also arms the ring's refresh timer.
  for (std::size_t r = 0; r < config_.rings; ++r) {
    shard.wheel.schedule_at(1 + (r % 256), kick_cookie(r));
  }
  shard.last_pass_us = end;  // the loop below passes every tick up to end
  for (std::uint64_t t = 0; t <= end; ++t) {
    for (;;) {
      shard.fired.clear();
      shard.wheel.advance_to(t, shard.fired);
      if (shard.fired.empty()) break;
      for (const TimerWheel::Expiry& timer : shard.fired) {
        const std::uint64_t kind = timer.cookie & 3;
        const std::size_t value = static_cast<std::size_t>(timer.cookie >> 2);
        switch (kind) {
          case kCookieKick: {
            fire_kick(shard, value, t);
            break;
          }
          case kCookieRefresh: {
            fire_refresh(shard, value, timer.deadline, t);
            break;
          }
          default: {  // kCookieDelivery
            const auto ring = process_frame(shard, shard.slot_frame(value), t);
            // The decoded payload pointed into the slot, so it is released
            // only now, and before a rebroadcast can grow the arena.
            shard.release_slot(value);
            if (ring) {
              for (const std::uint32_t node : shard.rebroadcast) {
                broadcast_node(*ring, node, t);
              }
            }
            break;
          }
        }
      }
    }
  }
}

// --- udp transport --------------------------------------------------------

void MultiRingReactor::udp_shard_main(Shard& shard,
                                      std::uint64_t deadline_us) {
  const auto epoch = std::chrono::steady_clock::now();
  auto now_us = [&] {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - epoch)
            .count());
  };
  const auto refresh =
      static_cast<std::uint64_t>(config_.refresh_interval.count());
  const std::size_t nshards = shards_.size();

  // recvmmsg scaffolding, preallocated once per shard.
  std::vector<std::array<std::uint8_t, kRecvBuffer>> buffers(kBatchMessages);
  std::vector<iovec> iovecs(kBatchMessages);
  std::vector<mmsghdr> messages(kBatchMessages);
  for (unsigned m = 0; m < kBatchMessages; ++m) {
    iovecs[m] = {buffers[m].data(), buffers[m].size()};
    std::memset(&messages[m], 0, sizeof(mmsghdr));
    messages[m].msg_hdr.msg_iov = &iovecs[m];
    messages[m].msg_hdr.msg_iovlen = 1;
  }
  std::vector<iovec> send_iovecs(kBatchMessages);
  std::vector<mmsghdr> send_messages(kBatchMessages);

  auto flush_sends = [&] {
    std::size_t next = 0;
    while (next < shard.send_spans.size()) {
      const unsigned batch = static_cast<unsigned>(std::min<std::size_t>(
          kBatchMessages, shard.send_spans.size() - next));
      for (unsigned m = 0; m < batch; ++m) {
        const auto [offset, length] = shard.send_spans[next + m];
        send_iovecs[m] = {shard.send_arena.data() + offset, length};
        std::memset(&send_messages[m], 0, sizeof(mmsghdr));
        send_messages[m].msg_hdr.msg_name = &shard.self_addr;
        send_messages[m].msg_hdr.msg_namelen = sizeof(shard.self_addr);
        send_messages[m].msg_hdr.msg_iov = &send_iovecs[m];
        send_messages[m].msg_hdr.msg_iovlen = 1;
      }
      const int sent = ::sendmmsg(shard.fd, send_messages.data(), batch, 0);
      if (sent < 0) {
        if (errno == EINTR) continue;
        // Kernel send queue full (or worse): drop the rest rather than
        // block the event loop; the refresh machinery repairs the loss
        // and the counter reports it.
        shard.send_errors += shard.send_spans.size() - next;
        break;
      }
      next += static_cast<std::size_t>(sent);
    }
    shard.send_arena.clear();
    shard.send_spans.clear();
  };

  // Initial broadcasts ride staggered kick timers: spreading the kicks
  // over at least a refresh interval (longer for huge shards) turns the
  // startup burst into a paced trickle the receive path can absorb.
  const std::size_t shard_rings = (config_.rings - shard.id + nshards - 1) /
                                  nshards;
  const std::uint64_t kick_window =
      std::max<std::uint64_t>(refresh, shard_rings * 10);
  for (std::size_t r = shard.id; r < config_.rings; r += nshards) {
    shard.wheel.schedule_at(1 + ((r / nshards) * 10) % kick_window,
                            kick_cookie(r));
  }

  epoll_event event{};
  for (std::uint64_t t = now_us(); t < deadline_us; t = now_us()) {
    shard.last_pass_us = t;
    // Drain due timers into the repair queue, then serve only a budget of
    // them this iteration: repair (kick/refresh) broadcasts are paced at
    // the rate the loop actually absorbs, instead of a thundering herd of
    // stalled rings monopolizing the CPU that receives need.
    shard.fired.clear();
    shard.wheel.advance_to(t, shard.fired);
    shard.repair_queue.insert(shard.repair_queue.end(), shard.fired.begin(),
                              shard.fired.end());
    constexpr std::size_t kRepairBudget = 16;
    for (std::size_t served = 0;
         served < kRepairBudget && shard.repair_head < shard.repair_queue.size();
         ++served) {
      const TimerWheel::Expiry timer = shard.repair_queue[shard.repair_head++];
      const std::size_t r = static_cast<std::size_t>(timer.cookie >> 2);
      if ((timer.cookie & 3) == kCookieKick) {
        fire_kick(shard, r, t);
      } else {
        fire_refresh(shard, r, timer.deadline, t);
      }
    }
    if (shard.repair_head >= shard.repair_queue.size()) {
      shard.repair_queue.clear();
      shard.repair_head = 0;
    }
    flush_sends();

    const bool repairs_pending = shard.repair_head < shard.repair_queue.size();
    const int ready =
        ::epoll_wait(shard.epoll_fd, &event, 1, repairs_pending ? 0 : 1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) continue;  // the socket is the only registered fd
    // Drain in bounded rounds so timers keep firing under load.
    for (int round = 0; round < 8; ++round) {
      const int got =
          ::recvmmsg(shard.fd, messages.data(), kBatchMessages, 0, nullptr);
      if (got < 0) {
        if (errno == EINTR) continue;
        break;  // EAGAIN: drained
      }
      const std::uint64_t rt = now_us();
      for (int m = 0; m < got; ++m) {
        // A datagram longer than the buffer arrives cut to the buffer's
        // size with MSG_TRUNC set; no frame is that long.
        const std::size_t len = messages[m].msg_len;
        if (len == 0 || (messages[m].msg_hdr.msg_flags & MSG_TRUNC) != 0) {
          ++shard.rejected;
          continue;
        }
        const auto ring = process_frame(
            shard,
            wire::ByteView(buffers[static_cast<std::size_t>(m)].data(), len),
            rt);
        if (!ring) continue;
        for (const std::uint32_t node : shard.rebroadcast) {
          broadcast_node(*ring, node, rt);
        }
      }
      flush_sends();
      if (static_cast<unsigned>(got) < kBatchMessages) break;
    }
  }
}

void MultiRingReactor::run_udp(std::chrono::microseconds duration) {
  const auto deadline = static_cast<std::uint64_t>(duration.count());
  for (auto& shard : shards_) {
    Shard* s = shard.get();
    s->thread =
        std::thread([this, s, deadline] { udp_shard_main(*s, deadline); });
  }
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
  for (auto& shard : shards_) {
    kernel_rx_drops_ += socket_kernel_drops(shard->fd);
  }
}

// --- entry point and reporting -------------------------------------------

ReactorReport MultiRingReactor::run(std::chrono::microseconds duration) {
  SSR_REQUIRE(duration.count() > 0, "run duration must be positive");
  SSR_REQUIRE(!ran_, "a MultiRingReactor instance runs once");
  ran_ = true;
  ran_duration_us_ = static_cast<double>(duration.count());
  // Every ring's telemetry starts from its initial holder set at t = 0.
  std::vector<bool> holders;
  for (std::size_t r = 0; r < ring_telemetry_.size(); ++r) {
    table_->holders(r, holders);
    ring_telemetry_[r]->observe(0.0, holders);
  }
  if (config_.transport == ReactorTransport::kVirtual) {
    run_virtual(duration);
  } else {
    run_udp(duration);
  }
  for (auto& telemetry : ring_telemetry_) {
    telemetry->finish(ran_duration_us_);
  }
  return make_report(ran_duration_us_);
}

ReactorReport MultiRingReactor::make_report(double duration_us) {
  ReactorReport report;
  report.rings = config_.rings;
  report.nodes = config_.nodes;
  report.shards = shards_.size();
  report.duration_us = duration_us;
  for (std::size_t r = 0; r < config_.rings; ++r) {
    const RingCounters& c = table_->counters(r);
    report.frames_sent += c.frames_sent;
    report.frames_dropped += c.frames_dropped;
    report.frames_duplicated += c.frames_duplicated;
    report.frames_reordered += c.frames_reordered;
    report.frames_corrupted += c.frames_corrupted;
    report.frames_received += c.frames_received;
    report.frames_rejected += c.frames_rejected;
    report.rule_executions += c.rule_executions;
    report.crash_restarts += c.crash_restarts;
    report.refresh_broadcasts += c.refresh_broadcasts;
    report.handovers += c.handovers;
    if (table_->is_legitimate(r)) ++report.rings_legitimate;
    // "Live token": someone holds right now, or a holder gain happened
    // within two refresh intervals of the shard's last loop pass.
    // Dijkstra-style rings consume the token inside the very delivery that
    // grants it, so the holder bit is transient — recency of the last gain
    // is the liveness signal. It is measured from the last pass, not from
    // the nominal end: a shard thread descheduled near its deadline makes
    // no gains in the meantime.
    const std::uint64_t last_gain = table_->last_handover_us(r);
    const double last_pass =
        static_cast<double>(shards_[r % shards_.size()]->last_pass_us);
    const double refresh_us =
        static_cast<double>(config_.refresh_interval.count());
    const bool token_live =
        table_->holder_mask(r) != 0 ||
        (last_gain != std::numeric_limits<std::uint64_t>::max() &&
         last_pass - static_cast<double>(last_gain) <= 2.0 * refresh_us);
    if (token_live) ++report.rings_with_holder;
  }
  for (const auto& shard : shards_) {
    report.frames_rejected += shard->rejected;
    report.send_errors += shard->send_errors;
    latency_.merge(shard->latency);
  }
  report.kernel_rx_drops = kernel_rx_drops_;
  if (duration_us > 0.0) {
    report.handovers_per_sec =
        static_cast<double>(report.handovers) * 1e6 / duration_us;
  }
  report.p50_us = latency_.quantile(0.50);
  report.p99_us = latency_.quantile(0.99);
  report.p999_us = latency_.quantile(0.999);
  return report;
}

Json MultiRingReactor::telemetry_json(const ReactorReport& report) const {
  Json out = Json::object();
  out.set("schema", "ssr-multiring-telemetry-v1");
  Json cfg = Json::object();
  cfg.set("rings", config_.rings);
  cfg.set("nodes", config_.nodes);
  cfg.set("shards", report.shards);
  cfg.set("protocol", config_.mixed ? "mixed" : to_string(config_.protocol));
  cfg.set("transport", to_string(config_.transport));
  cfg.set("refresh_us", config_.refresh_interval.count());
  cfg.set("seed", config_.seed);
  cfg.set("fault_plan", config_.fault_plan.describe());
  out.set("config", std::move(cfg));

  Json agg = Json::object();
  agg.set("duration_us", report.duration_us);
  agg.set("handovers", report.handovers);
  agg.set("handovers_per_sec", report.handovers_per_sec);
  agg.set("p50_us", report.p50_us);
  agg.set("p99_us", report.p99_us);
  agg.set("p999_us", report.p999_us);
  agg.set("frames_sent", report.frames_sent);
  agg.set("frames_dropped", report.frames_dropped);
  agg.set("frames_received", report.frames_received);
  agg.set("frames_rejected", report.frames_rejected);
  agg.set("send_errors", report.send_errors);
  agg.set("kernel_rx_drops", report.kernel_rx_drops);
  agg.set("rule_executions", report.rule_executions);
  agg.set("crash_restarts", report.crash_restarts);
  agg.set("refresh_broadcasts", report.refresh_broadcasts);
  agg.set("rings_legitimate", report.rings_legitimate);
  agg.set("rings_with_holder", report.rings_with_holder);
  out.set("aggregate", std::move(agg));

  Json rings = Json::array();
  for (std::size_t r = 0; r < config_.rings; ++r) {
    const RingCounters& c = table_->counters(r);
    Json j = Json::object();
    j.set("ring", r);
    j.set("protocol", to_string(table_->protocol(r)));
    j.set("handovers", c.handovers);
    j.set("rule_executions", c.rule_executions);
    j.set("frames_sent", c.frames_sent);
    j.set("frames_received", c.frames_received);
    j.set("frames_rejected", c.frames_rejected);
    j.set("crash_restarts", c.crash_restarts);
    j.set("legitimate", table_->is_legitimate(r));
    j.set("holders", std::popcount(table_->holder_mask(r)));
    if (!ring_telemetry_.empty()) {
      j.set("telemetry", ring_telemetry_[r]->to_json());
    }
    rings.push(std::move(j));
  }
  out.set("rings", std::move(rings));
  return out;
}

}  // namespace ssr::runtime
