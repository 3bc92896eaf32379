// Hierarchical (hashed) timer wheel for the multi-ring reactor.
//
// The reactor arms one refresh timer per ring, and under the virtual
// transport one timer per in-flight frame; at 100k rings that is hundreds
// of thousands of live timers. A std::priority_queue would pay O(log n) per
// arm; the classic Varghese & Lauck hierarchical wheel makes arm and
// per-tick advance O(1) amortized, which is what keeps the event loop's
// idle cost flat as rings are added.
//
// Design:
//   * 4 levels x 256 slots. Level 0 has 1-tick resolution; each higher
//     level is 256x coarser. Horizon = 256^4 ticks (~4.3e9), far beyond
//     any refresh interval we schedule.
//   * Timers further than level 0's horizon land in a coarse slot and
//     *cascade* down one level each time their slot's boundary is crossed,
//     reaching level 0 before they fire. A timer never fires early.
//   * There is no cancellation: the reactor's refresh timers are lazy
//     (they re-check the ring's activity when they fire and re-arm).
//   * Firing order is deterministic: timers that expire on the same tick
//     fire in the order they were scheduled (ids are monotonic, and the
//     drain sorts same-tick entries by id when a cascade left them out of
//     order). The virtual-clock reactor relies on this for byte-identical
//     telemetry across runs.
//   * Drained and cascaded slot buffers go on a free list that placement
//     draws from, so a steady stream of timers allocates nothing.
//
// The wheel knows nothing about time units: callers map ticks to whatever
// granularity they want (the reactor uses 1 tick = 1 us, virtual or
// wall-clock).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace ssr::runtime {

/// Hierarchical timer wheel returning a user cookie (uint64) and the due
/// tick per expiry.
///
/// The reactor packs (ring index or frame slot, timer kind) into the
/// cookie, so firing needs no map lookup.
class TimerWheel {
 public:
  static constexpr int kLevels = 4;
  static constexpr int kSlotBits = 8;
  static constexpr std::size_t kSlots = std::size_t{1} << kSlotBits;  // 256
  static constexpr std::uint64_t kSlotMask = kSlots - 1;

  TimerWheel() : slots_(kLevels * kSlots) {}

  /// Current tick (the last value passed to advance_to, initially 0).
  [[nodiscard]] std::uint64_t now() const { return now_; }

  /// Number of scheduled timers that have not fired yet.
  [[nodiscard]] std::size_t size() const { return live_; }

  /// Schedules a timer to fire at absolute tick @p deadline with @p cookie.
  /// A deadline at or before now() fires on the next advance_to call.
  void schedule_at(std::uint64_t deadline, std::uint64_t cookie) {
    place(Entry{next_id_++, deadline < now_ ? now_ : deadline, cookie},
          kLevels);
    ++live_;
  }

  /// Schedules @p delay ticks from now.
  void schedule_in(std::uint64_t delay, std::uint64_t cookie) {
    schedule_at(now_ + delay, cookie);
  }

  /// An expired timer: the tick it was due at and its cookie.
  struct Expiry {
    std::uint64_t deadline = 0;
    std::uint64_t cookie = 0;
  };

  /// Advances the wheel to @p tick (inclusive), appending every expired
  /// timer to @p fired in deterministic order: by deadline, then by
  /// schedule order within a deadline.
  void advance_to(std::uint64_t tick, std::vector<Expiry>& fired) {
    while (now_ <= tick) {
      drain_due(fired);
      if (now_ == tick) break;
      ++now_;
      // Crossing into a new slot at a coarser level cascades its entries
      // down; level-0 entries for the new tick fire on the next loop pass.
      for (int level = 1; level < kLevels; ++level) {
        const std::uint64_t shift =
            static_cast<std::uint64_t>(level) * kSlotBits;
        if ((now_ & ((std::uint64_t{1} << shift) - 1)) != 0) break;
        cascade(level, slot_index(level, now_ >> shift));
      }
    }
  }

 private:
  struct Entry {
    std::uint64_t id = 0;  ///< schedule order
    std::uint64_t deadline = 0;
    std::uint64_t cookie = 0;
  };
  static bool by_id(const Entry& a, const Entry& b) { return a.id < b.id; }

  /// A new slot buffer skips the first doublings: a busy wheel's slots
  /// hold tens to hundreds of entries, and buffers are recycled anyway.
  static constexpr std::size_t kFreshSlotCapacity = 64;

  [[nodiscard]] std::size_t slot_index(int level, std::uint64_t ticks) const {
    return static_cast<std::size_t>(level) * kSlots +
           static_cast<std::size_t>(ticks & kSlotMask);
  }

  /// Places an entry in the finest of the first @p levels levels whose
  /// horizon covers its delay, or in the coarsest of them. A cascade from
  /// level L passes L, so a cascaded entry strictly descends.
  void place(const Entry& entry, int levels) {
    const std::uint64_t delay =
        entry.deadline > now_ ? entry.deadline - now_ : 0;
    for (int level = 0; level < levels; ++level) {
      const std::uint64_t shift = static_cast<std::uint64_t>(level) * kSlotBits;
      const std::uint64_t horizon = std::uint64_t{1}
                                    << (shift + kSlotBits);
      if (delay < horizon || level == levels - 1) {
        std::vector<Entry>& slot =
            slots_[slot_index(level, entry.deadline >> shift)];
        if (slot.capacity() == 0) {
          if (spare_.empty()) {
            slot.reserve(kFreshSlotCapacity);
          } else {
            slot = std::move(spare_.back());
            spare_.pop_back();
          }
        }
        slot.push_back(entry);
        return;
      }
    }
  }

  /// Fires every due level-0 entry for the current tick in schedule order.
  /// Direct placement appends in id order, but a cascade can append a
  /// coarse-born entry *after* a directly-scheduled one with the same
  /// deadline; only then are the due entries sorted by id.
  void drain_due(std::vector<Expiry>& fired) {
    std::vector<Entry>& slot = slots_[slot_index(0, now_)];
    if (slot.empty()) return;
    due_.clear();
    std::size_t kept = 0;
    for (const Entry& entry : slot) {
      if (entry.deadline <= now_) {
        due_.push_back(entry);
      } else {
        slot[kept++] = entry;  // same slot index, a later lap of the wheel
      }
    }
    slot.resize(kept);
    live_ -= due_.size();
    if (!std::is_sorted(due_.begin(), due_.end(), by_id)) {
      std::sort(due_.begin(), due_.end(), by_id);
    }
    for (const Entry& entry : due_) {
      fired.push_back({entry.deadline, entry.cookie});
    }
    if (slot.empty()) spare_.push_back(std::exchange(slot, {}));
  }

  /// Moves every entry of a coarse slot down to its proper finer level.
  void cascade(int level, std::size_t slot) {
    if (slots_[slot].empty()) return;
    std::vector<Entry> entries = std::exchange(slots_[slot], {});
    for (const Entry& entry : entries) place(entry, level);
    entries.clear();
    spare_.push_back(std::move(entries));
  }

  std::vector<std::vector<Entry>> slots_;
  std::vector<std::vector<Entry>> spare_;  ///< empty slot buffers to reuse
  std::vector<Entry> due_;                 ///< drain_due scratch
  std::uint64_t now_ = 0;
  std::size_t live_ = 0;
  std::uint64_t next_id_ = 1;
};

}  // namespace ssr::runtime
