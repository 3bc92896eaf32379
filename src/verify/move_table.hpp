// The model checker's per-process move table and daemon-subset enumerator.
//
// A guard of P_i reads only the local states of P_{i-1}, P_i and P_{i+1},
// and so does its command (paper §2.1). So a configuration's moves are a
// function of one digit triple per process: MoveTable stores, for every
// process i and every triple (pred, self, succ) of state digits, whether
// P_i is enabled there and the digit its rule writes. Phase B builds one
// per ModelChecker::run() from the protocol's enabled_rule/apply, after
// which its peels derive a configuration's moves from its digits alone:
// no State copies, no encode call per digit, no modulo per neighbour
// index. The table holds n * radix^3 u16 entries (135 KiB for
// SSRmin(5,6)); that is three entries per configuration at n = 3 and
// more at n <= 2, so the Phase B projections count it like any other
// structure.
//
// Composite atomicity makes every daemon step a subset sum of per-process
// code deltas, so one configuration's 2^m - 1 successors are enumerated
// from its m deltas (find_successor).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace ssr::verify {

class MoveTable {
 public:
  /// Entry value of a disabled (process, triple).
  static constexpr std::uint16_t kDisabled = 0xFFFF;
  /// Most processes a table covers (enabled sets are u32 masks).
  static constexpr std::size_t kMaxProcesses = 32;

  /// @p weights holds radix^i per process; @p next_digit(i, pred, self,
  /// succ) returns the digit P_i writes from that triple, or kDisabled
  /// when no guard of P_i holds there.
  template <typename NextDigit>
  MoveTable(std::size_t n, std::uint64_t radix,
            std::vector<std::uint64_t> weights, NextDigit&& next_digit)
      : n_(n),
        radix_(radix),
        weights_(std::move(weights)),
        pred_(n),
        succ_(n) {
    SSR_REQUIRE(n >= 1 && n <= kMaxProcesses,
                "the move table supports 1..32 processes");
    SSR_REQUIRE(radix >= 2 && radix < kDisabled,
                "the move table needs a radix in [2, 65535)");
    SSR_REQUIRE(weights_.size() == n, "one positional weight per process");
    recip_ = ~std::uint64_t{0} / radix_ + 1;
    const std::uint64_t r3 = radix_ * radix_ * radix_;
    entries_.resize(n * r3);
    for (std::size_t i = 0; i < n; ++i) {
      pred_[i] = static_cast<std::uint32_t>((i + n - 1) % n);
      succ_[i] = static_cast<std::uint32_t>((i + 1) % n);
      std::uint16_t* e = entries_.data() + i * r3;
      for (std::uint64_t p = 0; p < radix_; ++p) {
        for (std::uint64_t s = 0; s < radix_; ++s) {
          for (std::uint64_t q = 0; q < radix_; ++q) {
            const std::uint32_t d =
                next_digit(i, static_cast<std::uint32_t>(p),
                           static_cast<std::uint32_t>(s),
                           static_cast<std::uint32_t>(q));
            SSR_REQUIRE(d == kDisabled || d < radix_,
                        "move table entry out of the digit range");
            *e++ = static_cast<std::uint16_t>(d);
          }
        }
      }
    }
  }

  std::uint64_t bytes() const {
    return entries_.capacity() * sizeof(std::uint16_t);
  }

  /// Writes the n digits of configuration @p c (process 0 first). Below
  /// 2^32 each digit costs two multiplications instead of a division
  /// (Lemire, Kaser & Kurz, "Faster remainder by direct computation").
  void decode(std::uint64_t c, std::uint32_t* digits) const {
    __extension__ typedef unsigned __int128 u128;
    for (std::size_t i = 0; i < n_; ++i) {
      if (c > UINT32_MAX) {
        digits[i] = static_cast<std::uint32_t>(c % radix_);
        c /= radix_;
        continue;
      }
      const std::uint64_t low = recip_ * c;
      digits[i] = static_cast<std::uint32_t>((u128{low} * radix_) >> 64);
      c = static_cast<std::uint64_t>((u128{recip_} * c) >> 64);
    }
  }

  /// Steps @p digits to the next configuration (carry-propagating; the
  /// last configuration wraps to zero).
  void advance(std::uint32_t* digits) const {
    for (std::size_t i = 0; i < n_; ++i) {
      if (++digits[i] < radix_) return;
      digits[i] = 0;
    }
  }

  /// Calls fn(i, self, to) for each process i enabled in the configuration
  /// with @p digits, ascending: self is its digit and to the digit its
  /// rule writes (equal for a state-preserving rule). Returns the enabled
  /// mask.
  template <typename Fn>
  std::uint32_t for_each_move(const std::uint32_t* digits, Fn&& fn) const {
    std::uint32_t mask = 0;
    for (std::size_t i = 0; i < n_; ++i) {
      const std::uint32_t self = digits[i];
      const std::uint16_t to =
          next(i, digits[pred_[i]], self, digits[succ_[i]]);
      if (to == kDisabled) continue;
      mask |= std::uint32_t{1} << i;
      fn(i, self, std::uint32_t{to});
    }
    return mask;
  }

  /// The enabled mask, and for each enabled process (ascending) its
  /// configuration-code delta in @p deltas (room for n entries).
  /// Branch-free over the guards, which the peel meets in no predictable
  /// pattern.
  std::uint32_t moves(const std::uint32_t* digits,
                      std::int64_t* deltas) const {
    std::uint32_t mask = 0;
    std::size_t m = 0;
    for (std::size_t i = 0; i < n_; ++i) {
      const std::uint32_t self = digits[i];
      const std::uint16_t to =
          next(i, digits[pred_[i]], self, digits[succ_[i]]);
      const bool on = to != kDisabled;
      deltas[m] = (static_cast<std::int64_t>(to) -
                   static_cast<std::int64_t>(self)) *
                  static_cast<std::int64_t>(weights_[i]);
      m += on;
      mask |= std::uint32_t{on} << i;
    }
    return mask;
  }

 private:
  /// The digit P_i writes from (pred, self, succ), or kDisabled.
  std::uint16_t next(std::size_t i, std::uint32_t pred, std::uint32_t self,
                     std::uint32_t succ) const {
    return entries_[((i * radix_ + pred) * radix_ + self) * radix_ + succ];
  }

  std::size_t n_ = 0;
  std::uint64_t radix_ = 0;
  std::uint64_t recip_ = 0;  ///< ceil(2^64 / radix), for decode()
  std::vector<std::uint64_t> weights_;
  std::vector<std::uint32_t> pred_;  ///< neighbour indices, precomputed
  std::vector<std::uint32_t> succ_;
  std::vector<std::uint16_t> entries_;
};

/// Bytes of a MoveTable for @p n processes of @p radix states.
inline std::uint64_t move_table_bytes(std::size_t n, std::uint64_t radix) {
  return static_cast<std::uint64_t>(n) * radix * radix * radix *
         sizeof(std::uint16_t);
}

/// Enumerates the 2^m - 1 daemon choices from configuration @p c with the
/// m per-process code deltas @p deltas, in subset-mask order, calling
/// fn(successor_code) until it returns true. Returns how many successors
/// fn saw. Codes may repeat (distinct subsets can sum alike). @p sums is
/// subset-sum scratch, grown to 2^m entries on demand.
template <typename Fn>
std::uint32_t find_successor(std::uint64_t c, const std::int64_t* deltas,
                             std::size_t m, std::vector<std::int64_t>& sums,
                             Fn&& fn) {
  const std::uint32_t subsets = std::uint32_t{1} << m;
  if (sums.size() < subsets) sums.resize(subsets);
  sums[0] = 0;
  for (std::uint32_t mask = 1; mask < subsets; ++mask) {
    sums[mask] = sums[mask & (mask - 1)] +
                 deltas[static_cast<std::size_t>(std::countr_zero(mask))];
    if (fn(static_cast<std::uint64_t>(static_cast<std::int64_t>(c) +
                                      sums[mask]))) {
      return mask;
    }
  }
  return subsets - 1;
}

}  // namespace ssr::verify
