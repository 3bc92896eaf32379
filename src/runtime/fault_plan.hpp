// Shared fault-injection vocabulary for the message-passing runtimes.
//
// The paper's empirical section (§5, Figs. 11-13) and its fault model
// (§2.2: loss, duplication, corruption) are only half the story for a
// deployed ring: Herman's safe-register construction and Dolev-Herman's
// "unsupportive environments" analysis both show that it is *structured*
// fault patterns — bursts on one link, an asymmetric dead direction, a
// partitioned ring, a node that crashes and restarts from a blank state —
// that actually break token circulation, not i.i.d. per-frame loss. A
// FaultPlan describes both kinds:
//
//   * probabilistic per-frame faults (drop, duplicate, reorder,
//     multi-bit corruption), decided by the caller-supplied Rng so a
//     seeded run replays the same fault sequence;
//   * scripted fault *windows* on the shared fault clock (microseconds
//     since the runtime was started / the simulation began): burst loss
//     on a chosen directional link, a directional link failure, a ring
//     partition along two cut edges, a node pause, and a node
//     crash-restart with state reset.
//
// One plan is consumed by every executor — ThreadedRing (real threads),
// MultiRingReactor (virtual clock or real loopback sockets) and
// msgpass::CstSimulation (deterministic virtual time) — so the same
// adversarial schedule can be replayed against the paper's algorithm in
// every model.
//
// The textual spec format (FaultPlan::parse / FaultPlan::describe):
//
//   spec      := item (';' item)*
//   item      := prob | window
//   prob      := ('drop'|'dup'|'reorder'|'corrupt') '=' P
//              | 'corrupt-bits' '=' N
//   window    := kind '@' time '-' time [':' arg (',' arg)*]
//   kind      := 'burst' | 'linkdown' | 'partition' | 'pause' | 'crash'
//   time      := number ['us'|'ms'|'s']          (default microseconds)
//   arg       := 'link' '=' (index|'*') '->' (index|'*')   (burst, linkdown)
//              | 'node' '=' index                          (pause, crash)
//              | 'cut' '=' index '/' index                 (partition;
//                                                 two different edges)
//
// Example: "drop=0.05;burst@200ms-400ms;linkdown@500ms-600ms:link=1->2;
//           partition@700ms-750ms:cut=0/2;crash@900ms-950ms:node=3"
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "util/rng.hpp"

namespace ssr::runtime {

/// Wildcard node index in link selectors ("every sender" / "every
/// receiver").
inline constexpr std::size_t kAnyNode = std::numeric_limits<std::size_t>::max();

/// Per-frame fault probabilities, applied to every transmission that no
/// scripted window already claimed.
struct FaultProbabilities {
  double drop = 0.0;       ///< frame is silently discarded before send
  double duplicate = 0.0;  ///< frame is delivered twice
  double reorder = 0.0;    ///< frame is held back and delivered stale
  double corrupt = 0.0;    ///< frame has corrupt_bits random bits flipped
  std::size_t corrupt_bits = 1;

  bool any() const {
    return drop > 0.0 || duplicate > 0.0 || reorder > 0.0 || corrupt > 0.0;
  }
};

/// A scripted fault, active on [begin_us, end_us) of the fault clock.
struct FaultWindow {
  enum class Kind : std::uint8_t {
    kBurstLoss,     ///< every matching frame is dropped
    kLinkDown,      ///< directional link failure (same matching as burst;
                    ///< distinct kind for intent and telemetry labels)
    kPartition,     ///< ring cut along edges (cut_a,cut_a+1),(cut_b,cut_b+1)
    kNodePause,     ///< node stops processing and sending
    kCrashRestart,  ///< node is down for the window and restarts with a
                    ///< reset (default-constructed) state
  };

  Kind kind = Kind::kBurstLoss;
  double begin_us = 0.0;
  double end_us = 0.0;
  /// Directional link selector (kBurstLoss / kLinkDown); kAnyNode matches
  /// every sender / receiver.
  std::size_t from = kAnyNode;
  std::size_t to = kAnyNode;
  /// Target node (kNodePause / kCrashRestart).
  std::size_t node = kAnyNode;
  /// Partition cut edges: the ring edges (cut_a, cut_a+1) and
  /// (cut_b, cut_b+1) are removed in both directions.
  std::size_t cut_a = 0;
  std::size_t cut_b = 0;

  bool active(double now_us) const {
    return now_us >= begin_us && now_us < end_us;
  }
};

const char* to_string(FaultWindow::Kind kind);

/// A complete fault schedule: background probabilities plus scripted
/// windows. Plain data — the runtimes instantiate a FaultInjector from it.
struct FaultPlan {
  FaultProbabilities probabilities;
  std::vector<FaultWindow> windows;

  bool empty() const { return !probabilities.any() && windows.empty(); }

  /// Checks ranges ([0,1) probabilities, begin < end, selectors < n).
  /// Throws std::invalid_argument on violation.
  void validate(std::size_t n) const;

  /// Parses the textual spec format documented at the top of this header.
  /// Throws std::invalid_argument with a pointer at the offending item.
  static FaultPlan parse(const std::string& spec);

  /// Canonical spec string; FaultPlan::parse(describe()) round-trips.
  std::string describe() const;

  Json to_json() const;
};

/// What the injector decided for one frame.
struct FrameFate {
  bool drop = false;
  bool duplicate = false;
  bool reorder = false;
  std::size_t corrupt_bits = 0;  ///< 0 = leave the frame intact
  /// True when a scripted window (not a probability draw) caused the drop.
  bool window_drop = false;
};

/// Decision engine for one runtime instance. All randomness comes from the
/// caller's Rng (per-node streams in the real runtimes, the simulation
/// stream in msgpass), so the injector itself is read-only on the frame
/// path and safe to share between node threads. The only mutable state is
/// the per-crash-window "already fired" flag, which is owned by the target
/// node's thread (take_crash must only be called by the context that owns
/// that node's state).
class FaultInjector {
 public:
  /// Validates @p plan against ring size @p n.
  FaultInjector(FaultPlan plan, std::size_t n);

  const FaultPlan& plan() const { return plan_; }
  std::size_t ring_size() const { return n_; }

  /// Frame-level verdict for a transmission from -> to at @p now_us on the
  /// fault clock. A window match consumes no randomness; the probability
  /// draws happen in a fixed order (drop, corrupt, duplicate, reorder) so
  /// seeded runs replay exactly.
  FrameFate on_send(std::size_t from, std::size_t to, double now_us,
                    Rng& rng) const;

  /// True while @p node is scripted down (pause window or crash-restart
  /// dead time).
  bool node_down(std::size_t node, double now_us) const;

  /// Fires at most once per crash window once now_us >= begin: the caller
  /// must reset the node's state. Single-owner access (see class comment).
  bool take_crash(std::size_t node, double now_us);

  /// Re-arms every crash window (for a stop()/start() restart cycle; must
  /// not race with node threads).
  void rearm();

 private:
  bool frame_blocked(const FaultWindow& w, std::size_t from,
                     std::size_t to) const;

  FaultPlan plan_;
  std::size_t n_;
  std::vector<std::uint8_t> crash_fired_;  // parallel to plan_.windows
};

}  // namespace ssr::runtime
