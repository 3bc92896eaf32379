// Two-level packed bitset for the model checker's huge per-configuration
// flag tables (Lambda membership, the Phase B active set).
//
// Level 0 is a plain u64 word array (1 bit per index). Level 1 is a
// summary bitmap with one bit per level-0 *word*, so one summary word
// covers 64 * 64 = 4096 indices — `for_each_set` skips empty 4096-index
// blocks with a single load, which is what keeps late reverse-induction
// rounds (a near-empty active set over hundreds of millions of
// configurations) cheap.
//
// Concurrency contract: writers partition the index space so that no two
// threads touch the same level-0 word — the checker guarantees this by
// aligning its work chunks to kBlockBits (4096) indices, which also keeps
// each summary word single-writer. The one exception is set_atomic(), for
// passes whose writers cannot partition (the watch-list peel's wake
// bits). Reads of foreign blocks are only valid after a barrier.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <vector>

namespace ssr::util {

class TwoLevelBitset {
 public:
  /// Indices covered by one summary word (64 level-0 words of 64 bits).
  /// Work chunks aligned to this are single-writer at both levels.
  static constexpr std::uint64_t kBlockBits = 64 * 64;

  TwoLevelBitset() = default;
  explicit TwoLevelBitset(std::uint64_t size) { reset(size); }

  void reset(std::uint64_t size) {
    size_ = size;
    words_.assign((size + 63) / 64, 0);
    summary_.assign((words_.size() + 63) / 64, 0);
  }

  std::uint64_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Heap bytes held by both levels (memory telemetry).
  std::uint64_t bytes() const {
    return (words_.capacity() + summary_.capacity()) * sizeof(std::uint64_t);
  }

  bool test(std::uint64_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }

  void set(std::uint64_t i) {
    words_[i >> 6] |= std::uint64_t{1} << (i & 63);
    mark_summary(i);
  }

  /// set() for an index whose words other threads may set concurrently in
  /// the same pass: both levels are OR-ed atomically. As with set(), the
  /// bits may be read only after a barrier.
  void set_atomic(std::uint64_t i) {
    std::atomic_ref<std::uint64_t>(words_[i >> 6])
        .fetch_or(std::uint64_t{1} << (i & 63), std::memory_order_relaxed);
    std::atomic_ref<std::uint64_t> summary(summary_[i >> 12]);
    const std::uint64_t bit = std::uint64_t{1} << ((i >> 6) & 63);
    if ((summary.load(std::memory_order_relaxed) & bit) == 0) {
      summary.fetch_or(bit, std::memory_order_relaxed);
    }
  }

  /// ORs 64 bits into the level-0 word covering the 64-aligned index
  /// `base`, maintaining the summary — the bulk form of set() the sliced
  /// Phase A uses to install one lane word of legitimacy bits at a time.
  /// Same single-writer contract as set(): the caller owns the word.
  void set_word(std::uint64_t base, std::uint64_t bits) {
    if (bits == 0) return;
    words_[base >> 6] |= bits;
    mark_summary(base);
  }

  /// Reads the level-0 word covering the 64-aligned index `base` (bit l of
  /// the result is index base + l). Valid under the same visibility rules
  /// as test().
  std::uint64_t word(std::uint64_t base) const { return words_[base >> 6]; }

  /// The summary bit is left set (it means "may contain bits");
  /// for_each_set reconciles it once a block drains.
  void clear(std::uint64_t i) {
    words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }

  /// Number of set bits.
  std::uint64_t count() const {
    std::uint64_t c = 0;
    for (std::uint64_t w : words_) {
      c += static_cast<std::uint64_t>(std::popcount(w));
    }
    return c;
  }

  /// Lowest set index, or size() if none.
  std::uint64_t find_first() const {
    for (std::uint64_t s = 0; s < summary_.size(); ++s) {
      if (summary_[s] == 0) continue;
      const std::uint64_t whi = std::min<std::uint64_t>(words_.size(), (s + 1) << 6);
      for (std::uint64_t w = s << 6; w < whi; ++w) {
        if (words_[w] != 0) {
          return w * 64 +
                 static_cast<std::uint64_t>(std::countr_zero(words_[w]));
        }
      }
    }
    return size_;
  }

  /// Invokes fn(index) for every bit set in [lo, hi) at the moment that
  /// bit's word is visited. fn may clear bits (its own index or any index
  /// in the same caller-owned range) but must never set bits; each word is
  /// snapshotted before iterating, so clears take effect from the next
  /// word on. lo/hi should be kBlockBits-aligned for full summary skips
  /// (hi = size() is fine). When a fully-covered summary block scans
  /// empty, its summary bit is cleared, so drained blocks cost O(1) in
  /// later passes.
  template <typename Fn>
  void for_each_set(std::uint64_t lo, std::uint64_t hi, Fn&& fn) {
    hi = std::min(hi, size_);
    if (lo >= hi) return;
    const std::uint64_t wbegin = lo >> 6;
    const std::uint64_t wend = (hi + 63) >> 6;  // exclusive
    for (std::uint64_t s = wbegin >> 6; (s << 6) < wend; ++s) {
      if (summary_[s] == 0) continue;
      const std::uint64_t wlo = std::max(wbegin, s << 6);
      const std::uint64_t whi = std::min(wend, (s + 1) << 6);
      bool any = false;
      for (std::uint64_t w = wlo; w < whi; ++w) {
        std::uint64_t bits = words_[w];
        if (w == wbegin && (lo & 63) != 0) bits &= ~std::uint64_t{0} << (lo & 63);
        if (w == wend - 1 && (hi & 63) != 0) {
          bits &= (std::uint64_t{1} << (hi & 63)) - 1;
        }
        if (bits == 0) continue;
        any = true;
        while (bits != 0) {
          const auto b = static_cast<std::uint64_t>(std::countr_zero(bits));
          bits &= bits - 1;
          fn(w * 64 + b);
        }
      }
      // Safe to reconcile only when this call owned the whole summary
      // block (single-writer contract) and saw it empty.
      const bool whole_block =
          wlo == (s << 6) &&
          whi == std::min<std::uint64_t>(words_.size(), (s + 1) << 6);
      if (!any && whole_block) summary_[s] = 0;
    }
  }

 private:
  /// Sets index i's summary bit, storing only if it is clear: eight
  /// summary words share a cache line, so workers filling neighbouring
  /// 4096-index blocks would otherwise write one line back and forth.
  void mark_summary(std::uint64_t i) {
    const std::uint64_t bit = std::uint64_t{1} << ((i >> 6) & 63);
    if ((summary_[i >> 12] & bit) == 0) summary_[i >> 12] |= bit;
  }

  std::uint64_t size_ = 0;
  std::vector<std::uint64_t> words_;
  std::vector<std::uint64_t> summary_;
};

}  // namespace ssr::util
