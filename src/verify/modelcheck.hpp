// Exhaustive finite-state verification of ring protocols for small (n, K).
//
// The paper proves its lemmas by hand; this module machine-checks them over
// the *entire* configuration space Gamma = (4K)^n for SSRmin (and K^n for
// Dijkstra's ring), under the full distributed daemon — i.e. considering
// every non-empty subset of enabled processes as a possible step:
//
//   * no deadlock           (Lemma 4): every configuration has an enabled
//                            process;
//   * closure               (Lemma 1): every successor of a legitimate
//                            configuration is legitimate;
//   * token bounds          (Lemma 2 / Theorem 1): in legitimate
//                            configurations exactly one primary and one
//                            secondary token, 1..2 privileged processes;
//   * convergence           (Lemma 6 / Theorem 2): no cycle lies entirely
//                            within the illegitimate region, i.e. every
//                            infinite execution reaches Lambda no matter
//                            what the (unfair, distributed) daemon does;
//   * worst-case stabilization time: the exact maximum, over illegitimate
//                            configurations and daemon strategies, of the
//                            number of steps to reach Lambda (the quantity
//                            Theorem 2 bounds by O(n^2)).
//
// The checker is generic over the protocol; a StateCodec maps local states
// to dense codes so a configuration becomes one base-(codec.count())
// integer.
//
// run() executes as a two-phase parallel pipeline over a util::ThreadPool
// (CheckOptions::threads; 1 = fully sequential, 0 = hardware concurrency):
//
//   Phase A (sharded sweep)  — the index range [0, total) is split into
//     dynamically claimed chunks (aligned to TwoLevelBitset::kBlockBits so
//     every bitset word has one writer); each worker walks its chunk with
//     an allocation-free ConfigOdometer (incremental base-radix counter,
//     no division, no per-configuration decode), fills the shared Lambda
//     membership bitset, and accumulates per-worker partial results. The
//     closure check consults the precomputed legitimacy bitset instead of
//     re-evaluating the predicate on decoded successors. Witnesses merge
//     as "lowest index wins", so the report is bit-identical to the
//     sequential ascending scan.
//
//   Phase B (convergence)    — heights are computed by level-synchronous
//     *reverse induction from Lambda*: a configuration finalizes once all
//     its successors have, and the finalizing round is its height
//     (= 1 + max successor height); if a round finalizes nothing while
//     configurations remain, the residue is exactly the set from which
//     the daemon can avoid Lambda forever — an illegitimate cycle. The
//     height fixpoint is unique, so the table — and hence
//     worst_case_steps — is identical at every thread count and in every
//     storage mode.
//
//     Three storage backends implement the induction (CheckOptions::
//     storage, default kAuto picks from a projected-peak-bytes estimate
//     against the memory budget — see phaseb_store.hpp). All three share
//     two pieces: the probe (a successor blocks iff its bit is set in the
//     round-start active bitset) and the moves (one per-process
//     MoveTable, move_table.hpp, built once per run):
//
//       kWatchLists  — event-driven: each unfinalized configuration sits
//                      on the watch list of one unfinalized successor
//                      (u32 head/next arrays), and round r rescans only
//                      the watchers of the configurations round r-1
//                      finalized. No edge storage.
//       kCsrFree     — scans every active configuration each round behind
//                      a u32 watched-successor probe. Less resident than
//                      kWatchLists, more visits.
//       kSpill       — delta-compressed move records written to an
//                      unlinked temp file (double-buffered background
//                      writes) and streamed back per peel round through
//                      an mmap with MADV_WILLNEED prefetch running a
//                      window ahead of the consumers. Watch-free, so its
//                      *resident* footprint (bitsets + offsets + heights)
//                      undercuts even kCsrFree — the out-of-core tier for
//                      spaces no in-RAM mode fits.
//
//     Per-structure peak bytes, edge, rescan and round counts are reported
//     in CheckReport::stats.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "stabilizing/protocol.hpp"
#include "util/assert.hpp"
#include "util/packed_bitset.hpp"
#include "util/thread_pool.hpp"
#include "verify/move_table.hpp"
#include "verify/phase_a_sliced.hpp"
#include "verify/phaseb_store.hpp"
#include "verify/spill_store.hpp"

namespace ssr::verify {

/// Verification report. Counterexamples are encoded configuration indices
/// (decode with ConfigCodec::decode for inspection). All witnesses are the
/// lowest-numbered configuration exhibiting the property, independent of
/// CheckOptions::threads and CheckOptions::storage.
struct CheckReport {
  std::uint64_t total_configs = 0;
  std::uint64_t legitimate_configs = 0;

  bool deadlock_free = true;
  std::optional<std::uint64_t> deadlock_witness;

  bool closure_holds = true;
  std::optional<std::uint64_t> closure_witness;  ///< legit config with illegit successor

  bool token_bounds_hold = true;
  std::optional<std::uint64_t> token_witness;

  bool convergence_holds = true;
  /// Lowest-numbered configuration from which some execution avoids Lambda
  /// forever (it lies on, or reaches, an illegitimate cycle).
  std::optional<std::uint64_t> cycle_witness;

  /// Max steps from any illegitimate configuration to Lambda under the
  /// worst daemon strategy. Only meaningful when convergence_holds.
  std::uint64_t worst_case_steps = 0;
  /// Lowest-numbered illegitimate configuration realizing worst_case_steps.
  std::optional<std::uint64_t> worst_case_witness;

  /// Minimum number of privileged processes over *all* configurations
  /// (paper Lemma 3 implies >= 1 for SSRmin in the state-reading model).
  std::size_t min_privileged_anywhere = 0;

  /// Per-configuration worst-case steps to Lambda (indexed by encoded
  /// configuration; 0 for legitimate configurations). Populated only when
  /// CheckOptions::keep_heights is set and the convergence pass ran.
  /// Packed as u16 per configuration.
  /// This is the exact "potential function" of the protocol — the
  /// OptimalAdversary driver and the perturbation analysis are built on
  /// it.
  HeightTable heights;

  /// Memory/edge telemetry for the run (identical checks, mode-dependent
  /// byte counts). Not part of the bit-identity contract.
  CheckStats stats;

  bool all_ok() const {
    return deadlock_free && closure_holds && token_bounds_hold &&
           convergence_holds;
  }
  std::string summary() const;
};

/// Options controlling which checks run (the convergence pass dominates
/// runtime; skip it for quick sanity sweeps).
struct CheckOptions {
  bool check_deadlock = true;
  bool check_closure = true;
  bool check_token_bounds = true;
  bool check_convergence = true;
  /// Retain the per-configuration height table in the report (costs 2
  /// bytes per configuration, packed).
  bool keep_heights = false;
  /// Expected privileged-count bounds in legitimate configurations.
  std::size_t min_privileged = 1;
  std::size_t max_privileged = 2;
  /// Worker threads for the sweep and convergence passes; 0 = one per
  /// hardware thread, 1 = fully sequential. The report is bit-identical
  /// at every thread count.
  std::size_t threads = 0;
  /// Phase A execution strategy: kAuto runs the bit-sliced sweep when the
  /// checker has a PhaseASlice factory installed (the library's own
  /// factories always install one) and falls back to the scalar odometer
  /// walk otherwise; kScalar forces the walk; kSliced requires a factory.
  /// The report is bit-identical either way.
  PhaseAMode phase_a = PhaseAMode::kAuto;
  /// Phase B storage backend; kAuto picks the cheapest mode whose
  /// projected peak fits the memory budget. The report is bit-identical
  /// in every mode.
  PhaseBStorage storage = PhaseBStorage::kAuto;
  /// Memory budget (bytes) for Phase B mode selection; 0 = the
  /// SSRING_CHECK_MEMORY_BUDGET environment variable, else 3/4 of
  /// min(physical RAM, cgroup memory limit).
  std::uint64_t memory_budget_bytes = 0;
  /// Directory for the kSpill record stream; empty = SSRING_CHECK_TMPDIR,
  /// else TMPDIR, else /tmp.
  std::string spill_dir = {};
  /// kSpill prefetch window in record blocks ahead of the consumers;
  /// 0 = default (256 blocks, i.e. up to 1M configurations ahead).
  std::uint32_t spill_window_blocks = 0;
};

/// Dense encoding of whole configurations as base-(states_per_process)
/// integers.
template <typename State>
class ConfigCodec {
 public:
  using Encoder = std::function<std::uint32_t(const State&)>;
  using Decoder = std::function<State(std::uint32_t)>;

  ConfigCodec(std::size_t ring_size, std::uint32_t states_per_process,
              Encoder encode, Decoder decode)
      : n_(ring_size),
        radix_(states_per_process),
        encode_(std::move(encode)),
        decode_(std::move(decode)) {
    SSR_REQUIRE(radix_ >= 2, "need at least two states per process");
    // Guard against u64 overflow of radix^n. Feasibility of an exhaustive
    // *check* is a memory question, decided per run from the projected
    // Phase B peak (select_phaseb_storage), not a hard cap here.
    std::uint64_t total = 1;
    weights_.reserve(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      SSR_REQUIRE(total <= UINT64_MAX / radix_,
                  "configuration space exceeds 2^64; reduce n or K");
      weights_.push_back(total);
      total *= radix_;
    }
    total_ = total;
  }

  std::size_t ring_size() const { return n_; }
  std::uint64_t total() const { return total_; }
  std::uint64_t radix() const { return radix_; }
  /// Positional weight of process i in the mixed-radix code: radix^i.
  std::uint64_t weight(std::size_t i) const { return weights_[i]; }

  std::uint32_t encode_digit(const State& s) const { return encode_(s); }
  State decode_digit(std::uint32_t digit) const { return decode_(digit); }

  std::uint64_t encode(const std::vector<State>& config) const {
    SSR_REQUIRE(config.size() == n_, "configuration size mismatch");
    std::uint64_t idx = 0;
    for (std::size_t i = n_; i-- > 0;) idx = idx * radix_ + encode_(config[i]);
    return idx;
  }

  std::vector<State> decode(std::uint64_t idx) const {
    SSR_REQUIRE(idx < total_, "configuration index out of range");
    std::vector<State> config(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      config[i] = decode_(static_cast<std::uint32_t>(idx % radix_));
      idx /= radix_;
    }
    return config;
  }

 private:
  std::size_t n_;
  std::uint64_t radix_;
  Encoder encode_;
  Decoder decode_;
  std::uint64_t total_ = 0;
  std::vector<std::uint64_t> weights_;
};

/// Allocation-free enumeration of consecutive configurations: decodes the
/// starting index once, then advances like an odometer (amortized O(1)
/// decoder calls per configuration, no division, no allocation). Local
/// states are materialized through a digit -> State table built once, so
/// the per-step cost is a table copy, not a std::function call.
template <typename State>
class ConfigOdometer {
 public:
  explicit ConfigOdometer(const ConfigCodec<State>& codec)
      : codec_(&codec),
        digits_(codec.ring_size(), 0),
        config_(codec.ring_size(), codec.decode_digit(0)) {
    states_.reserve(static_cast<std::size_t>(codec.radix()));
    for (std::uint32_t d = 0; d < codec.radix(); ++d) {
      states_.push_back(codec.decode_digit(d));
    }
  }

  /// Repositions at configuration @p idx.
  void seek(std::uint64_t idx) {
    SSR_REQUIRE(idx < codec_->total(), "configuration index out of range");
    code_ = idx;
    for (std::size_t i = 0; i < digits_.size(); ++i) {
      const auto d = static_cast<std::uint32_t>(idx % codec_->radix());
      digits_[i] = d;
      config_[i] = states_[d];
      idx /= codec_->radix();
    }
  }

  /// Carry-propagating increment to the next configuration. Callers bound
  /// their loops by ConfigCodec::total(); advancing past the last
  /// configuration wraps to zero.
  void advance() {
    ++code_;
    for (std::size_t i = 0; i < digits_.size(); ++i) {
      if (++digits_[i] < codec_->radix()) {
        config_[i] = states_[digits_[i]];
        return;
      }
      digits_[i] = 0;
      config_[i] = states_[0];
    }
    code_ = 0;
  }

  std::uint64_t code() const { return code_; }
  const std::vector<State>& config() const { return config_; }
  const std::vector<std::uint32_t>& digits() const { return digits_; }

 private:
  const ConfigCodec<State>* codec_;
  std::uint64_t code_ = 0;
  std::vector<std::uint32_t> digits_;
  std::vector<State> config_;
  std::vector<State> states_;  ///< digit -> decoded local state
};

/// Exhaustive checker over all configurations of a protocol.
template <stab::RingProtocol P>
class ModelChecker {
 public:
  using State = typename P::State;
  using Config = std::vector<State>;
  using LegitPredicate = std::function<bool(const Config&)>;
  using PrivilegedCounter = std::function<std::size_t(const Config&)>;

  ModelChecker(P protocol, ConfigCodec<State> codec, LegitPredicate legit,
               PrivilegedCounter privileged)
      : protocol_(std::move(protocol)),
        codec_(std::move(codec)),
        legit_(std::move(legit)),
        privileged_(std::move(privileged)) {
    SSR_REQUIRE(codec_.ring_size() == protocol_.size(),
                "codec/protocol ring size mismatch");
  }

  CheckReport run(const CheckOptions& options = {}) const;

  /// Installs a per-worker bit-sliced Phase A engine. Only install a slice
  /// that evaluates *exactly* the same legitimacy and privilege functions
  /// as the scalar predicates — the library's checker factories pair each
  /// protocol with its kernel; a checker built around custom predicates
  /// must leave this unset (run() then uses the scalar sweep).
  void set_phase_a_slices(PhaseASliceFactory factory) {
    phase_a_factory_ = std::move(factory);
  }
  bool has_phase_a_slices() const { return phase_a_factory_ != nullptr; }

  const ConfigCodec<State>& codec() const { return codec_; }
  const P& protocol() const { return protocol_; }
  bool legitimate(const Config& config) const { return legit_(config); }
  std::size_t privileged(const Config& config) const {
    return privileged_(config);
  }

  /// All distinct successor configurations of @p config under the
  /// distributed daemon (one per non-empty subset of the enabled
  /// processes; deduplicated, sorted ascending). Empty iff the
  /// configuration is deadlocked. Derived through State objects, not the
  /// MoveTable, so tests can hold the table against it.
  std::vector<std::uint64_t> successor_codes(const Config& config) const {
    SweepScratch s;
    enabled(config, s.idx, s.rules);
    if (s.idx.empty()) return {};
    std::vector<std::uint32_t> digits(config.size());
    for (std::size_t i = 0; i < config.size(); ++i) {
      digits[i] = codec_.encode_digit(config[i]);
    }
    successors_at(config, digits, codec_.encode(config), s);
    return std::move(s.succs);
  }

  /// This protocol's per-process move table over the codec's digits;
  /// run() builds one for its convergence pass.
  MoveTable move_table() const {
    const std::size_t n = codec_.ring_size();
    std::vector<State> states;
    states.reserve(static_cast<std::size_t>(codec_.radix()));
    for (std::uint32_t d = 0; d < codec_.radix(); ++d) {
      states.push_back(codec_.decode_digit(d));
    }
    std::vector<std::uint64_t> weights(n);
    for (std::size_t i = 0; i < n; ++i) weights[i] = codec_.weight(i);
    return MoveTable(n, codec_.radix(), std::move(weights),
                     [&](std::size_t i, std::uint32_t pred, std::uint32_t self,
                         std::uint32_t succ) -> std::uint32_t {
                       const int rule = protocol_.enabled_rule(
                           i, states[self], states[pred], states[succ]);
                       if (rule == stab::kDisabled) return MoveTable::kDisabled;
                       return codec_.encode_digit(protocol_.apply(
                           i, rule, states[self], states[pred], states[succ]));
                     });
  }

 private:
  /// Per-worker reusable buffers for the Phase A sweep (no
  /// per-configuration allocation once warm).
  struct SweepScratch {
    std::vector<std::size_t> idx;       ///< enabled process indices
    std::vector<int> rules;             ///< their enabled rules
    std::vector<std::int64_t> deltas;   ///< per enabled process: code delta
    std::vector<std::int64_t> sums;     ///< subset-sum table (size 2^m)
    std::vector<std::uint64_t> succs;   ///< deduped successor codes
  };

  /// Per-worker partial results, merged deterministically afterwards. All
  /// merges are order-independent (min / sum / max-with-lowest-index), so
  /// dynamic chunk claiming cannot change the report.
  struct Partial {
    std::uint64_t legit_count = 0;
    std::uint64_t deadlock = UINT64_MAX;  ///< lowest deadlocked config
    std::uint64_t closure = UINT64_MAX;   ///< lowest closure violation
    std::uint64_t token = UINT64_MAX;     ///< lowest token-bound violation
    std::size_t min_priv = SIZE_MAX;
    std::uint32_t max_height = 0;
    std::uint64_t max_height_at = UINT64_MAX;
  };

  /// Cache-line aligned, so workers updating their own slots never write
  /// a line another worker's slot shares.
  struct alignas(64) Worker {
    ConfigOdometer<State> od;
    SweepScratch s;
    Partial p;
    std::uint64_t edges = 0;          ///< daemon step edges seen
    std::uint64_t active0 = 0;        ///< initially active configs
    std::uint64_t finalized = 0;      ///< configs finalized this round
    std::uint64_t rescans = 0;        ///< configs whose moves were scanned
    std::uint64_t probes = 0;         ///< successors probed
    std::uint64_t cur_block = UINT64_MAX;  ///< spill peel: last block seen
    std::uint64_t blocks_read = 0;    ///< spill peel: block transitions
    std::uint64_t bytes_read = 0;     ///< spill peel: bytes streamed
    explicit Worker(const ConfigCodec<State>& codec) : od(codec) {}
  };

  /// Indices of enabled processes and their rules in @p config.
  void enabled(const Config& config, std::vector<std::size_t>& idx,
               std::vector<int>& rules) const {
    idx.clear();
    rules.clear();
    const std::size_t n = config.size();
    for (std::size_t i = 0; i < n; ++i) {
      const int r = protocol_.enabled_rule(i, config[i],
                                           config[stab::pred_index(i, n)],
                                           config[stab::succ_index(i, n)]);
      if (r != stab::kDisabled) {
        idx.push_back(i);
        rules.push_back(r);
      }
    }
  }

  /// Distinct successor codes (sorted ascending) into s.succs, for the
  /// configuration with code @p code and per-process digits @p digits,
  /// whose enabled set (s.idx / s.rules) was already computed. Composite
  /// atomicity: every selected process reads the pre-step configuration,
  /// so each subset's successor code is a pure integer sum of per-process
  /// code deltas.
  void successors_at(const Config& config,
                     const std::vector<std::uint32_t>& digits,
                     std::uint64_t code, SweepScratch& s) const {
    const std::size_t n = config.size();
    const std::size_t m = s.idx.size();
    SSR_ASSERT(m > 0 && m < 20, "enabled set size out of range");
    s.deltas.clear();
    for (std::size_t k = 0; k < m; ++k) {
      const std::size_t i = s.idx[k];
      const State next = protocol_.apply(i, s.rules[k], config[i],
                                         config[stab::pred_index(i, n)],
                                         config[stab::succ_index(i, n)]);
      const std::int64_t delta =
          static_cast<std::int64_t>(codec_.encode_digit(next)) -
          static_cast<std::int64_t>(digits[i]);
      s.deltas.push_back(delta * static_cast<std::int64_t>(codec_.weight(i)));
    }
    s.succs.clear();
    find_successor(code, s.deltas.data(), m, s.sums, [&](std::uint64_t sc) {
      s.succs.push_back(sc);
      return false;
    });
    std::sort(s.succs.begin(), s.succs.end());
    s.succs.erase(std::unique(s.succs.begin(), s.succs.end()), s.succs.end());
  }

  void phase_b(PhaseBStorage mode, util::ThreadPool& pool,
               std::vector<Worker>& ws, std::uint64_t chunk,
               const util::TwoLevelBitset& legit, const CheckOptions& options,
               CheckReport& report) const;

  P protocol_;
  ConfigCodec<State> codec_;
  LegitPredicate legit_;
  PrivilegedCounter privileged_;
  PhaseASliceFactory phase_a_factory_;
};

// --- implementation -------------------------------------------------------

template <stab::RingProtocol P>
CheckReport ModelChecker<P>::run(const CheckOptions& options) const {
  CheckReport report;
  const std::uint64_t total = codec_.total();
  report.total_configs = total;

  util::ThreadPool pool(options.threads);
  const std::size_t workers = pool.size();
  // Chunks are aligned to the bitset block size so every level-0 and
  // summary word of the shared bitsets has exactly one writer per pass.
  constexpr std::uint64_t kAlign = util::TwoLevelBitset::kBlockBits;
  const std::uint64_t chunk =
      std::clamp<std::uint64_t>((total / (workers * 8) + kAlign - 1) /
                                    kAlign * kAlign,
                                kAlign, std::uint64_t{1} << 16);

  std::vector<Worker> ws;
  ws.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) ws.emplace_back(codec_);

  // Bit-sliced Phase A: one kernel engine per worker, evaluating guards,
  // legitimacy and privilege for a whole lane word of consecutive
  // configurations per pass. Witness merging is identical to the scalar
  // walk, so the report is bit-identical in both modes (the differential
  // tests pin this).
  SSR_REQUIRE(options.phase_a != PhaseAMode::kSliced ||
                  phase_a_factory_ != nullptr,
              "PhaseAMode::kSliced requires a PhaseASlice factory "
              "(set_phase_a_slices)");
  const bool sliced_a = options.phase_a != PhaseAMode::kScalar &&
                        phase_a_factory_ != nullptr;
  std::vector<std::unique_ptr<PhaseASlice>> slices;
  if (sliced_a) {
    slices.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      slices.push_back(phase_a_factory_());
    }
    report.stats.phase_a_sliced = true;
    report.stats.phase_a_backend = slices[0]->backend_name();
    report.stats.phase_a_lanes = slices[0]->lanes();
    // Lane windows must tile the chunk grid (chunks are kAlign-aligned).
    SSR_ASSERT(kAlign % slices[0]->lanes() == 0,
               "lane count must divide the chunk alignment");
  }

  // ---- Phase A1: Lambda membership bitset. Shared across workers (each
  // word written by exactly one worker thanks to chunk alignment); the
  // closure check and the convergence pass index into it instead of
  // re-evaluating the predicate on decoded successors.
  util::TwoLevelBitset legit(total);
  if (sliced_a) {
    pool.for_chunks(0, total, chunk, [&](std::size_t w, std::uint64_t lo,
                                         std::uint64_t hi) {
      PhaseASlice& sl = *slices[w];
      const std::uint64_t lanes = sl.lanes();
      std::vector<std::uint64_t> bits((lanes + 63) / 64);
      std::uint64_t count = 0;
      for (std::uint64_t base = lo; base < hi; base += lanes) {
        const std::uint64_t cnt = std::min<std::uint64_t>(lanes, hi - base);
        sl.legit_bits(base, cnt, bits.data());
        for (std::uint64_t j = 0; j * 64 < cnt; ++j) {
          legit.set_word(base + j * 64, bits[j]);
          count += static_cast<std::uint64_t>(std::popcount(bits[j]));
        }
      }
      ws[w].p.legit_count += count;
    });
  } else {
    pool.for_chunks(0, total, chunk,
                    [&](std::size_t w, std::uint64_t lo, std::uint64_t hi) {
                      Worker& wk = ws[w];
                      wk.od.seek(lo);
                      std::uint64_t count = 0;
                      for (std::uint64_t c = lo; c < hi;
                           ++c, wk.od.advance()) {
                        if (legit_(wk.od.config())) {
                          legit.set(c);
                          ++count;
                        }
                      }
                      wk.p.legit_count += count;
                    });
  }

  // ---- Phase A2: deadlock / token-bound / closure sweep.
  if (sliced_a) {
    const SliceQuery sq{options.check_deadlock, options.check_token_bounds,
                        options.check_closure, options.min_privileged,
                        options.max_privileged};
    pool.for_chunks(0, total, chunk, [&](std::size_t w, std::uint64_t lo,
                                         std::uint64_t hi) {
      Worker& wk = ws[w];
      PhaseASlice& sl = *slices[w];
      const std::uint64_t lanes = sl.lanes();
      SliceResult sr;
      sr.deadlock = wk.p.deadlock;
      sr.token = wk.p.token;
      sr.min_priv = wk.p.min_priv;
      for (std::uint64_t base = lo; base < hi; base += lanes) {
        sl.sweep(base, std::min<std::uint64_t>(lanes, hi - base), sq, sr);
      }
      wk.p.deadlock = sr.deadlock;
      wk.p.token = sr.token;
      wk.p.min_priv = sr.min_priv;
      // Closure candidates (legitimate with enabled processes — rare for
      // a correct protocol) resolve scalar against the complete Lambda
      // bitset, exactly as the scalar sweep would. Candidates ascend, so
      // stop at the worker's current best witness.
      for (std::uint64_t c : sr.closure_candidates) {
        if (c >= wk.p.closure) break;
        wk.od.seek(c);
        enabled(wk.od.config(), wk.s.idx, wk.s.rules);
        SSR_ASSERT(!wk.s.idx.empty(), "closure candidate lost its moves");
        successors_at(wk.od.config(), wk.od.digits(), c, wk.s);
        for (std::uint64_t sc : wk.s.succs) {
          if (!legit.test(sc)) {
            wk.p.closure = c;
            break;
          }
        }
      }
    });
  } else {
    pool.for_chunks(0, total, chunk, [&](std::size_t w, std::uint64_t lo,
                                         std::uint64_t hi) {
      Worker& wk = ws[w];
      SweepScratch& s = wk.s;
      Partial& p = wk.p;
      wk.od.seek(lo);
      for (std::uint64_t c = lo; c < hi; ++c, wk.od.advance()) {
        const Config& config = wk.od.config();
        enabled(config, s.idx, s.rules);
        if (options.check_deadlock && s.idx.empty() && c < p.deadlock) {
          p.deadlock = c;
        }
        const std::size_t priv = privileged_(config);
        p.min_priv = std::min(p.min_priv, priv);
        if (!legit.test(c)) continue;
        if (options.check_token_bounds && c < p.token &&
            (priv < options.min_privileged || priv > options.max_privileged)) {
          p.token = c;
        }
        if (options.check_closure && c < p.closure && !s.idx.empty()) {
          successors_at(config, wk.od.digits(), c, s);
          for (std::uint64_t sc : s.succs) {
            if (!legit.test(sc)) {
              p.closure = c;
              break;
            }
          }
        }
      }
    });
  }

  {
    std::uint64_t deadlock = UINT64_MAX, closure = UINT64_MAX,
                  token = UINT64_MAX;
    std::size_t min_priv = SIZE_MAX;
    for (const Worker& wk : ws) {
      report.legitimate_configs += wk.p.legit_count;
      deadlock = std::min(deadlock, wk.p.deadlock);
      closure = std::min(closure, wk.p.closure);
      token = std::min(token, wk.p.token);
      min_priv = std::min(min_priv, wk.p.min_priv);
    }
    if (deadlock != UINT64_MAX) {
      report.deadlock_free = false;
      report.deadlock_witness = deadlock;
    }
    if (closure != UINT64_MAX) {
      report.closure_holds = false;
      report.closure_witness = closure;
    }
    if (token != UINT64_MAX) {
      report.token_bounds_hold = false;
      report.token_witness = token;
    }
    report.min_privileged_anywhere = min_priv == SIZE_MAX ? 0 : min_priv;
  }

  report.stats.lambda_bytes = legit.bytes();
  if (!options.check_convergence) {
    report.stats.mode = options.storage;
    report.stats.measured_peak_bytes = report.stats.lambda_bytes;
    return report;
  }

  // ---- Phase B: convergence by reverse induction from Lambda.
  const std::uint64_t budget = options.memory_budget_bytes != 0
                                   ? options.memory_budget_bytes
                                   : default_memory_budget();
  std::uint64_t projected = 0;
  const PhaseBStorage mode =
      select_phaseb_storage(options.storage, total, codec_.ring_size(),
                            codec_.radix(), budget, &projected);
  // The in-RAM peels index configurations as u32 list, watch and sentinel
  // entries (UINT32_MAX is the empty list, so it must never be a real
  // configuration); the spill peel has no u32-indexed structure, so only
  // the resident-projection check (above) bounds it.
  SSR_REQUIRE(mode == PhaseBStorage::kSpill ||
                  total < (std::uint64_t{1} << 32),
              "convergence pass supports fewer than 2^32 configurations in "
              "the in-RAM storage modes; use PhaseBStorage::kSpill");
  report.stats.mode = mode;
  report.stats.memory_budget_bytes = budget;
  report.stats.projected_peak_bytes = projected;

  phase_b(mode, pool, ws, chunk, legit, options, report);
  return report;
}

// The peel. Round r finalizes exactly the active (unfinalized,
// illegitimate, non-deadlocked) configurations whose successors ALL
// finalized in rounds < r, so the finalizing round is the height (1 + max
// successor height). A successor blocks iff its bit is set in the
// round-start `active` bitset: the round's finalizations collect in `fin`
// and are applied only after the pool barrier, so the set a round
// finalizes depends on earlier rounds alone — the peel computes the unique
// height fixpoint in any visit order and at any thread count. A round that
// finalizes nothing certifies the residue as an illegitimate cycle: every
// remaining configuration keeps an unfinalized successor, so from any of
// them the daemon can stay illegitimate forever.
//
// A visit decodes the configuration's moves, enumerates its 2^m - 1
// successors in subset-mask order and stops at the first blocked one,
// which it watches. The modes differ in which configurations a round
// visits:
//
//   kWatchLists — only those whose watched successor finalized in the
//     previous round (all active ones in round 1). Each configuration sits
//     on the list of the successor it watches: head[w] -> next[c] -> ...
//     After the barrier, every configuration the round finalized hands
//     its list to the `wake` bitset, which the next round walks in
//     ascending order. A configuration is on one live list at a time, and
//     a finalized configuration's list is walked once and dropped, so
//     `next` is reused without unlinking. A visit re-watches the first
//     blocked successor in the same subset order as every earlier round,
//     so a configuration is rescanned exactly when its watch finalizes,
//     and finalizes in the first round in which nothing blocks it.
//   kCsrFree — every active configuration; a u32 watch per configuration
//     makes the visit of one whose watch is still active a single probe
//     (watch[c] == c: no watch yet, or a self-loop, which never finalizes).
//   kSpill — every active configuration, decoding its move record from
//     the streamed file; no per-configuration watch is kept resident.
//
// kWatchLists and kCsrFree take moves from the MoveTable; kSpill from
// records the table encoded before round 1.
template <stab::RingProtocol P>
void ModelChecker<P>::phase_b(PhaseBStorage mode, util::ThreadPool& pool,
                              std::vector<Worker>& ws, std::uint64_t chunk,
                              const util::TwoLevelBitset& legit,
                              const CheckOptions& options,
                              CheckReport& report) const {
  constexpr std::uint32_t kNoWatcher = UINT32_MAX;
  const std::uint64_t total = codec_.total();
  const std::size_t n = codec_.ring_size();
  const bool solo = pool.size() == 1;
  const bool lists = mode == PhaseBStorage::kWatchLists;
  const bool csr_free = mode == PhaseBStorage::kCsrFree;
  const bool spill = mode == PhaseBStorage::kSpill;

  const MoveTable table = move_table();
  util::TwoLevelBitset active(total);  // unfinalized at round start
  util::TwoLevelBitset fin(total);     // finalized this round
  std::vector<std::uint16_t> height_raw(total, 0);
  // kWatchLists: the watch lists and the next round's rescans.
  std::vector<std::uint32_t> head(lists ? total : 0, kNoWatcher);
  std::vector<std::uint32_t> next(lists ? total : 0);
  util::TwoLevelBitset wake(lists ? total : 0);
  // kCsrFree: each configuration's watched successor.
  std::vector<std::uint32_t> watch(csr_free ? total : 0);

  MoveRecordCodec rcodec;
  SpillMoveStore spill_store;
  MoveLayout* layout = nullptr;
  if (spill) {
    rcodec = MoveRecordCodec(n, codec_.radix());
    spill_store.prepare(total, rcodec, resolve_spill_dir(options.spill_dir),
                        projected_spill_file_bytes(total, n, codec_.radix()));
    layout = &spill_store.layout();
  }

  // Init pass: mark active configurations (and wake them all for round
  // 1), tally the daemon edge count, and (spill) lay out the record
  // stream — per-config local offsets plus per-block byte totals, both
  // functions of the index alone.
  pool.for_chunks(0, total, chunk, [&](std::size_t w, std::uint64_t lo,
                                       std::uint64_t hi) {
    Worker& wk = ws[w];
    std::uint32_t digits[MoveTable::kMaxProcesses];
    std::int64_t deltas[MoveTable::kMaxProcesses];
    table.decode(lo, digits);
    std::uint64_t active_here = 0, edges = 0;
    // Returns the enabled mask (0 = inactive: legitimate or deadlocked,
    // both height 0).
    auto visit = [&](std::uint64_t c) -> std::uint32_t {
      if (legit.test(c)) return 0;
      const std::uint32_t mask = table.moves(digits, deltas);
      if (mask == 0) return 0;
      const int m = std::popcount(mask);
      SSR_ASSERT(m < 20, "enabled set size out of range");
      active.set(c);
      if (lists) wake.set(c);
      if (csr_free) watch[c] = static_cast<std::uint32_t>(c);
      height_raw[c] = HeightTable::kUnfinalized;
      ++active_here;
      edges += (std::uint64_t{1} << m) - 1;
      return mask;
    };
    if (!spill) {
      for (std::uint64_t c = lo; c < hi; ++c, table.advance(digits)) visit(c);
      wk.active0 += active_here;
      wk.edges += edges;
      return;
    }
    // Chunks are kBlockBits-aligned and the layout's block size divides
    // kBlockBits, so every record block is owned by one worker.
    for (std::uint64_t b = lo >> layout->block_shift();
         layout->block_begin(b) < hi; ++b) {
      std::uint16_t running = 0;
      const std::uint64_t bend = std::min(hi, layout->block_end(b));
      for (std::uint64_t c = layout->block_begin(b); c < bend;
           ++c, table.advance(digits)) {
        layout->set_local_offset(c, running);
        const std::uint32_t mask = visit(c);
        if (mask != 0) {
          running += static_cast<std::uint16_t>(rcodec.encoded_size(mask));
        }
      }
      layout->set_block_bytes(b, running);
    }
    wk.active0 += active_here;
    wk.edges += edges;
  });

  if (spill) {
    spill_store.finalize_layout();
    // Encode pass, out-of-core: each worker encodes one record block at a
    // time into its double buffer and hands it to the background flusher;
    // block file offsets come from the prefix-summed layout, so writes
    // from different workers never overlap.
    std::vector<SpillBlockWriter> writers;
    writers.reserve(pool.size());
    for (std::size_t w = 0; w < pool.size(); ++w) {
      writers.emplace_back(spill_store.write_queue(), std::size_t{64} << 10);
    }
    try {
      pool.for_chunks(0, total, chunk, [&](std::size_t w, std::uint64_t lo,
                                           std::uint64_t hi) {
        std::uint32_t digits[MoveTable::kMaxProcesses];
        std::int32_t digit_deltas[MoveTable::kMaxProcesses];
        for (std::uint64_t b = lo >> layout->block_shift();
             layout->block_begin(b) < hi; ++b) {
          const std::uint64_t bbytes = layout->block_bytes(b);
          if (bbytes == 0) continue;  // no active configs in this block
          std::uint8_t* base = writers[w].begin_block(bbytes);
          const std::uint64_t bbegin = layout->block_begin(b);
          const std::uint64_t bend = std::min(hi, layout->block_end(b));
          table.decode(bbegin, digits);
          for (std::uint64_t c = bbegin; c < bend;
               ++c, table.advance(digits)) {
            if (height_raw[c] != HeightTable::kUnfinalized) continue;
            std::size_t k = 0;
            const std::uint32_t mask = table.for_each_move(
                digits, [&](std::size_t, std::uint32_t self, std::uint32_t to) {
                  digit_deltas[k++] = static_cast<std::int32_t>(to) -
                                      static_cast<std::int32_t>(self);
                });
            rcodec.encode(mask, digit_deltas, base + layout->local_offset(c));
          }
          writers[w].end_block(layout->block_base(b), bbytes);
        }
      });
    } catch (...) {
      // The flush thread references the writers' buffers; stop it before
      // they unwind.
      spill_store.write_queue().abort();
      throw;
    }
    spill_store.seal_for_read(options.spill_window_blocks != 0
                                  ? options.spill_window_blocks
                                  : 256);
  }

  std::uint64_t active0 = 0;
  for (const Worker& wk : ws) active0 += wk.active0;

  std::uint64_t finalized = 0;
  std::uint32_t rounds_run = 0;
  for (std::uint32_t round = 1; finalized < active0; ++round) {
    SSR_REQUIRE(round < HeightTable::kUnfinalized - 1,
                "convergence depth exceeds the packed u16 height table "
                "(65533 rounds)");
    for (Worker& wk : ws) {
      wk.finalized = 0;
      wk.cur_block = UINT64_MAX;  // spill: each round streams afresh
    }
    if (spill) spill_store.begin_round();
    pool.for_chunks(0, total, chunk, [&](std::size_t w, std::uint64_t lo,
                                         std::uint64_t hi) {
      Worker& wk = ws[w];
      // The visited configuration's digits, its moves' code deltas and
      // (spill) its record's digit deltas.
      std::uint32_t digits[MoveTable::kMaxProcesses];
      std::int64_t deltas[MoveTable::kMaxProcesses];
      std::int32_t digit_deltas[MoveTable::kMaxProcesses];
      std::uint64_t rescans = 0, probes = 0, finalized_here = 0;
      auto visit = [&](std::uint64_t c) {
        if (csr_free) {
          const std::uint32_t w0 = watch[c];
          if (w0 != static_cast<std::uint32_t>(c) && active.test(w0)) return;
        }
        ++rescans;
        // Per-process code deltas of c's enabled moves into deltas.
        std::uint32_t mask = 0;
        if (spill) {
          // Exact streaming telemetry: chunks are aligned to whole record
          // blocks, so each block is visited by one worker and a
          // per-worker last-block edge counts it exactly once per round.
          // The progress cursor feeds the prefetch window.
          const std::uint64_t b = c >> layout->block_shift();
          if (b != wk.cur_block) {
            wk.cur_block = b;
            ++wk.blocks_read;
            wk.bytes_read += layout->block_bytes(b);
            spill_store.note_progress(layout->block_base(b) +
                                      layout->block_bytes(b));
          }
          rcodec.decode(spill_store.record_at(c), mask, digit_deltas);
          std::size_t k = 0;
          for (std::uint32_t bits = mask; bits != 0; bits &= bits - 1, ++k) {
            const auto i = static_cast<std::size_t>(std::countr_zero(bits));
            deltas[k] = static_cast<std::int64_t>(digit_deltas[k]) *
                        static_cast<std::int64_t>(codec_.weight(i));
          }
        } else {
          table.decode(c, digits);
          mask = table.moves(digits, deltas);
        }
        // The first successor still active at round start blocks c.
        std::uint64_t blocker = UINT64_MAX;
        probes += find_successor(
            c, deltas, static_cast<std::size_t>(std::popcount(mask)),
            wk.s.sums, [&](std::uint64_t sc) {
              if (!active.test(sc)) return false;
              blocker = sc;
              return true;
            });
        if (blocker != UINT64_MAX) {
          const auto c32 = static_cast<std::uint32_t>(c);
          if (csr_free) {
            watch[c] = static_cast<std::uint32_t>(blocker);
          } else if (lists && solo) {
            next[c] = head[blocker];
            head[blocker] = c32;
          } else if (lists) {
            next[c] = std::atomic_ref<std::uint32_t>(head[blocker])
                          .exchange(c32, std::memory_order_relaxed);
          }
          return;
        }
        // Every successor finalized in an earlier round; the deepest one
        // at round - 1, so c's height is exactly this round.
        height_raw[c] = static_cast<std::uint16_t>(round);
        fin.set(c);
        ++finalized_here;
      };
      if (lists) {
        wake.for_each_set(lo, hi, [&](std::uint64_t c) {
          wake.clear(c);
          visit(c);
        });
      } else {
        active.for_each_set(lo, hi, visit);
      }
      wk.rescans += rescans;
      wk.probes += probes;
      wk.finalized += finalized_here;
    });
    std::uint64_t round_final = 0;
    for (const Worker& wk : ws) round_final += wk.finalized;
    if (round_final == 0) break;  // stalled: residue is an illegit cycle
    finalized += round_final;
    rounds_run = round;
    // After the barrier: apply the round's finalizations to the probe
    // set, and wake each finalized configuration's watchers for the next
    // round. Watchers live in any chunk, so parallel wake-bit sets are
    // atomic; nothing reads them before the next barrier.
    pool.for_chunks(0, total, chunk, [&](std::size_t, std::uint64_t lo,
                                         std::uint64_t hi) {
      fin.for_each_set(lo, hi, [&](std::uint64_t c) {
        fin.clear(c);
        active.clear(c);
        if (!lists) return;
        for (std::uint32_t x = head[c]; x != kNoWatcher; x = next[x]) {
          if (solo) {
            wake.set(x);
          } else {
            wake.set_atomic(x);
          }
        }
      });
    });
  }

  if (finalized != active0) {
    report.convergence_holds = false;
    report.cycle_witness = active.find_first();
  }

  if (report.convergence_holds) {
    pool.for_chunks(0, total, chunk,
                    [&](std::size_t w, std::uint64_t lo, std::uint64_t hi) {
                      Partial& p = ws[w].p;
                      for (std::uint64_t c = lo; c < hi; ++c) {
                        const std::uint32_t h = height_raw[c];
                        if (h == 0) continue;
                        if (h > p.max_height ||
                            (h == p.max_height && c < p.max_height_at)) {
                          p.max_height = h;
                          p.max_height_at = c;
                        }
                      }
                    });
    std::uint32_t worst = 0;
    std::uint64_t worst_at = UINT64_MAX;
    for (const Worker& wk : ws) {
      if (wk.p.max_height > worst ||
          (wk.p.max_height == worst && wk.p.max_height_at < worst_at)) {
        worst = wk.p.max_height;
        worst_at = wk.p.max_height_at;
      }
    }
    report.worst_case_steps = worst;
    if (worst > 0) report.worst_case_witness = worst_at;
  }

  CheckStats& st = report.stats;
  std::uint64_t edges = 0;
  std::uint64_t blocks_read = 0;
  std::uint64_t bytes_read = 0;
  for (const Worker& wk : ws) {
    edges += wk.edges;
    st.rescans += wk.rescans;
    st.probes += wk.probes;
    blocks_read += wk.blocks_read;
    bytes_read += wk.bytes_read;
  }
  st.edge_count = edges;
  st.frontier_bytes = active.bytes();
  st.fin_bytes = fin.bytes();
  st.wake_bytes = wake.bytes();
  st.list_bytes = (head.capacity() + next.capacity()) * sizeof(std::uint32_t);
  st.watch_bytes = watch.capacity() * sizeof(std::uint32_t);
  st.offsets_bytes = spill ? layout->offset_bytes() : 0;
  st.heights_bytes = height_raw.capacity() * sizeof(std::uint16_t);
  st.move_table_bytes = table.bytes();
  if (spill) {
    st.spill_bytes = spill_store.stream_bytes();
    st.spill_path = spill_store.path();
    st.blocks_read = blocks_read;
    st.read_amplification =
        st.spill_bytes == 0 ? 0.0
                            : static_cast<double>(bytes_read) /
                                  static_cast<double>(st.spill_bytes);
  }
  // Only the spill mode stores edges (as move records, on disk).
  st.bytes_per_edge = (spill && edges != 0)
                          ? static_cast<double>(st.spill_bytes) /
                                static_cast<double>(edges)
                          : 0.0;
  st.rounds = report.convergence_holds
                  ? static_cast<std::uint32_t>(report.worst_case_steps)
                  : rounds_run;
  // measured_peak_bytes is the *resident* high-water mark; the spilled
  // stream is disk, not RAM, so it is reported via spill_bytes instead.
  st.measured_peak_bytes = st.lambda_bytes + st.frontier_bytes +
                           st.fin_bytes + st.wake_bytes + st.list_bytes +
                           st.watch_bytes + st.offsets_bytes +
                           st.heights_bytes + st.move_table_bytes;
  if (spill) spill_store.release();

  if (report.convergence_holds && options.keep_heights) {
    report.heights = HeightTable::adopt(std::move(height_raw));
  }
}

}  // namespace ssr::verify
