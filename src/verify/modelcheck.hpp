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
//     against the memory budget — see phaseb_store.hpp):
//
//       kCompressed  — one delta-compressed move record per *source*
//                      configuration (varint enabled-set mask + packed
//                      digit deltas; the whole daemon fan-out is implied
//                      by subset sums), decoded streaming each round.
//                      A watched-subset probe makes the per-round cost of
//                      a still-blocked configuration O(record).
//       kCsrFree     — zero edge storage: successors are re-derived from
//                      the odometer on every visit. Cheapest memory,
//                      most recompute.
//       kSpill       — the compressed records written to an unlinked
//                      temp file (double-buffered background writes) and
//                      streamed back per peel round through an mmap with
//                      MADV_WILLNEED prefetch running a window ahead of
//                      the consumers. Watch-free, so its *resident*
//                      footprint (bitsets + offsets + heights) undercuts
//                      even kCsrFree — the out-of-core tier for spaces
//                      no in-RAM mode fits.
//
//     Per-structure peak bytes, edge counts and round counts are reported
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
  /// configuration is deadlocked.
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

 private:
  /// Per-worker reusable buffers for the sweep (no per-configuration
  /// allocation once warm).
  struct SweepScratch {
    std::vector<std::size_t> idx;       ///< enabled process indices
    std::vector<int> rules;             ///< their enabled rules
    std::vector<std::int64_t> deltas;   ///< per enabled process: code delta
    std::vector<std::int32_t> digit_deltas;  ///< per enabled process: digit delta
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

  struct Worker {
    ConfigOdometer<State> od;
    SweepScratch s;
    Partial p;
    std::uint64_t edges = 0;          ///< daemon step edges seen
    std::uint64_t active0 = 0;        ///< initially active configs
    std::uint64_t finalized = 0;      ///< configs finalized this round
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

  /// Computes the per-enabled-process configuration-code deltas into
  /// s.deltas. Composite atomicity: every selected process reads the
  /// pre-step configuration, so the post-state of each enabled process is
  /// the same in every subset — it is applied once and each subset's
  /// successor code is a pure integer sum of per-process code deltas (no
  /// re-encoding per subset).
  void compute_deltas(const Config& config,
                      const std::vector<std::uint32_t>& digits,
                      SweepScratch& s) const {
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
  }

  /// Raw per-enabled-process *digit* deltas into s.digit_deltas (what the
  /// compressed move record stores; multiply by the positional weight to
  /// recover the code delta). A delta may be 0 for a state-preserving
  /// rule — such positions stay in the record so the compressed peel
  /// enumerates the same 2^m - 1 daemon subsets as the other backends.
  void compute_digit_deltas(const Config& config,
                            const std::vector<std::uint32_t>& digits,
                            SweepScratch& s) const {
    const std::size_t n = config.size();
    const std::size_t m = s.idx.size();
    s.digit_deltas.clear();
    for (std::size_t k = 0; k < m; ++k) {
      const std::size_t i = s.idx[k];
      const State next = protocol_.apply(i, s.rules[k], config[i],
                                         config[stab::pred_index(i, n)],
                                         config[stab::succ_index(i, n)]);
      s.digit_deltas.push_back(
          static_cast<std::int32_t>(codec_.encode_digit(next)) -
          static_cast<std::int32_t>(digits[i]));
    }
  }

  /// Invokes fn(successor_code) for each of the 2^m - 1 daemon choices
  /// (subset-sum enumeration over s.deltas; may repeat codes). Requires a
  /// prior compute_deltas on the same configuration.
  template <typename Fn>
  void for_each_successor(std::uint64_t code, SweepScratch& s, Fn&& fn) const {
    const std::size_t m = s.deltas.size();
    const std::uint32_t subsets = 1u << m;
    if (s.sums.size() < subsets) s.sums.resize(subsets);
    s.sums[0] = 0;
    for (std::uint32_t mask = 1; mask < subsets; ++mask) {
      s.sums[mask] = s.sums[mask & (mask - 1)] +
                     s.deltas[static_cast<std::size_t>(std::countr_zero(mask))];
      fn(static_cast<std::uint64_t>(static_cast<std::int64_t>(code) +
                                    s.sums[mask]));
    }
  }

  /// Distinct successor codes (sorted ascending) into s.succs, for the
  /// configuration with code @p code and per-process digits @p digits,
  /// whose enabled set (s.idx / s.rules) was already computed.
  void successors_at(const Config& config,
                     const std::vector<std::uint32_t>& digits,
                     std::uint64_t code, SweepScratch& s) const {
    compute_deltas(config, digits, s);
    s.succs.clear();
    for_each_successor(code, s,
                       [&](std::uint64_t sc) { s.succs.push_back(sc); });
    std::sort(s.succs.begin(), s.succs.end());
    s.succs.erase(std::unique(s.succs.begin(), s.succs.end()), s.succs.end());
  }

  void phase_b_packed(PhaseBStorage mode, util::ThreadPool& pool,
                      std::vector<Worker>& ws, std::uint64_t chunk,
                      const util::TwoLevelBitset& legit,
                      const CheckOptions& options, CheckReport& report) const;

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
  // The in-RAM peels index successors through u32 watch/edge entries; the
  // watch-free spill peel has no u32-indexed structure, so only the
  // resident-projection check (above) bounds it.
  SSR_REQUIRE(mode == PhaseBStorage::kSpill ||
                  total <= (std::uint64_t{1} << 32),
              "convergence pass supports at most 2^32 configurations in "
              "the in-RAM storage modes; use PhaseBStorage::kSpill");
  report.stats.mode = mode;
  report.stats.memory_budget_bytes = budget;
  report.stats.projected_peak_bytes = projected;

  phase_b_packed(mode, pool, ws, chunk, legit, options, report);
  return report;
}

// The Phase B backends all drive the same source-scanning peel:
// instead of materializing predecessor edges, each round r scans the
// still-active (unfinalized, illegitimate, non-deadlocked) configurations
// and finalizes those whose successors ALL have height < r. Successor
// heights written during round r read as >= r, so the set finalized in a
// round depends only on earlier rounds — the peel computes the unique
// height fixpoint in any scan order and at any thread count, and a round
// that finalizes nothing certifies the residue as an illegitimate cycle:
// every remaining configuration keeps an unfinalized successor, so from
// any of them the daemon can stay illegitimate forever.
//
// Per-visit cost is kept at O(1) by a watched-successor probe (the
// watched-literal trick): each active configuration remembers the code of
// one successor that was still unfinalized last time; while that single
// successor stays unfinalized — the common case — the visit is one height
// load, with no record decode or guard sweep at all. Only when the watch
// clears does the full 2^m - 1 subset-sum enumeration run (early-exiting
// at a new watch). watch[c] == c means "no watch, full-scan" — a real
// self-successor (a zero-delta daemon subset) never finalizes anyway, so
// re-scanning it each round is both sound and cheap (the scan early-exits
// at that subset).
//
// kCompressed derives the per-process code deltas from the configuration's
// move record; kCsrFree re-derives them from the odometer + protocol rules
// (zero edge bytes, one guard sweep per visit).
template <stab::RingProtocol P>
void ModelChecker<P>::phase_b_packed(PhaseBStorage mode,
                                     util::ThreadPool& pool,
                                     std::vector<Worker>& ws,
                                     std::uint64_t chunk,
                                     const util::TwoLevelBitset& legit,
                                     const CheckOptions& options,
                                     CheckReport& report) const {
  const std::uint64_t total = codec_.total();
  const std::size_t n = codec_.ring_size();
  const bool solo = pool.size() == 1;
  const bool compressed = mode == PhaseBStorage::kCompressed;
  const bool spill = mode == PhaseBStorage::kSpill;
  const bool has_records = compressed || spill;

  util::TwoLevelBitset active(total);
  std::vector<std::uint16_t> height_raw(total, 0);
  // The spill peel is watch-free: dropping the 4-bytes-per-config watch
  // table is exactly what puts its resident footprint under csr-free's.
  std::vector<std::uint32_t> watch(spill ? 0 : total, 0);

  MoveRecordCodec rcodec;
  MoveStore store;
  SpillMoveStore spill_store;
  MoveLayout* layout = nullptr;
  if (has_records) {
    rcodec = MoveRecordCodec(n, codec_.radix());
    if (compressed) {
      store.prepare(total, rcodec);
      layout = &store.layout();
    } else {
      spill_store.prepare(
          total, rcodec, resolve_spill_dir(options.spill_dir),
          projected_spill_file_bytes(total, n, codec_.radix()));
      layout = &spill_store.layout();
    }
  }

  // Init pass: mark active configurations, tally the daemon edge count,
  // and (record modes) lay out the record stream — per-config local
  // offsets plus per-block byte totals, both functions of the index alone.
  pool.for_chunks(0, total, chunk, [&](std::size_t w, std::uint64_t lo,
                                       std::uint64_t hi) {
    Worker& wk = ws[w];
    SweepScratch& s = wk.s;
    wk.od.seek(lo);
    auto visit = [&](std::uint64_t c) -> std::size_t {
      // Returns the enabled count m (0 = inactive: legitimate or
      // deadlocked, both height 0).
      if (legit.test(c)) return 0;
      enabled(wk.od.config(), s.idx, s.rules);
      const std::size_t m = s.idx.size();
      if (m == 0) return 0;
      SSR_ASSERT(m < 20, "enabled set size out of range");
      active.set(c);
      height_raw[c] = HeightTable::kUnfinalized;  // unfinalized sentinel
      if (!spill) watch[c] = static_cast<std::uint32_t>(c);  // no watch yet
      ++wk.active0;
      wk.edges += (std::uint64_t{1} << m) - 1;
      return m;
    };
    if (!has_records) {
      for (std::uint64_t c = lo; c < hi; ++c, wk.od.advance()) visit(c);
      return;
    }
    // Chunks are kBlockBits-aligned and the layout's block size divides
    // kBlockBits, so every record block is owned by one worker.
    for (std::uint64_t b = lo >> layout->block_shift();
         layout->block_begin(b) < hi; ++b) {
      std::uint16_t running = 0;
      const std::uint64_t bend = std::min(hi, layout->block_end(b));
      for (std::uint64_t c = layout->block_begin(b); c < bend;
           ++c, wk.od.advance()) {
        layout->set_local_offset(c, running);
        if (visit(c) == 0) continue;
        std::uint32_t mask = 0;
        for (std::size_t i : s.idx) mask |= std::uint32_t{1} << i;
        running += static_cast<std::uint16_t>(rcodec.encoded_size(mask));
      }
      layout->set_block_bytes(b, running);
    }
  });

  if (compressed) {
    store.finalize_layout();
    // Encode pass: re-enumerate the active configurations and write each
    // record into its precomputed slot.
    pool.for_chunks(0, total, chunk, [&](std::size_t w, std::uint64_t lo,
                                         std::uint64_t hi) {
      Worker& wk = ws[w];
      SweepScratch& s = wk.s;
      wk.od.seek(lo);
      for (std::uint64_t c = lo; c < hi; ++c, wk.od.advance()) {
        if (height_raw[c] != HeightTable::kUnfinalized) continue;
        enabled(wk.od.config(), s.idx, s.rules);
        compute_digit_deltas(wk.od.config(), wk.od.digits(), s);
        std::uint32_t mask = 0;
        for (std::size_t i : s.idx) mask |= std::uint32_t{1} << i;
        rcodec.encode(mask, s.digit_deltas.data(), store.slot(c));
      }
    });
  } else if (spill) {
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
        Worker& wk = ws[w];
        SweepScratch& s = wk.s;
        for (std::uint64_t b = lo >> layout->block_shift();
             layout->block_begin(b) < hi; ++b) {
          const std::uint64_t bbytes = layout->block_bytes(b);
          if (bbytes == 0) continue;  // no active configs in this block
          std::uint8_t* base = writers[w].begin_block(bbytes);
          const std::uint64_t bbegin = layout->block_begin(b);
          const std::uint64_t bend = std::min(hi, layout->block_end(b));
          wk.od.seek(bbegin);
          for (std::uint64_t c = bbegin; c < bend; ++c, wk.od.advance()) {
            if (height_raw[c] != HeightTable::kUnfinalized) continue;
            enabled(wk.od.config(), s.idx, s.rules);
            compute_digit_deltas(wk.od.config(), wk.od.digits(), s);
            std::uint32_t mask = 0;
            for (std::size_t i : s.idx) mask |= std::uint32_t{1} << i;
            rcodec.encode(mask, s.digit_deltas.data(),
                          base + layout->local_offset(c));
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

  // The peel. Heights are u16, kUnfinalized until set; cross-chunk
  // reads/writes go through relaxed atomic_refs when parallel (the value
  // read is never order-sensitive: anything written this round is >=
  // round either way).
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
      SweepScratch& s = wk.s;
      if (s.digit_deltas.size() < n) s.digit_deltas.resize(n);
      auto h_at = [&](std::uint64_t i) -> std::uint32_t {
        return solo ? height_raw[i]
                    : std::atomic_ref<std::uint16_t>(height_raw[i])
                          .load(std::memory_order_relaxed);
      };
      active.for_each_set(lo, hi, [&](std::uint64_t c) {
        if (!spill) {
          // Watched-successor probe: if the remembered successor is still
          // unfinalized (or finalized only this round), c cannot finalize
          // this round — one height load, nothing decoded.
          const std::uint32_t w0 = watch[c];
          if (w0 != static_cast<std::uint32_t>(c) && h_at(w0) >= round) {
            return;
          }
        }
        // Per-process code deltas of c's enabled moves into s.deltas.
        s.deltas.clear();
        if (has_records) {
          const std::uint8_t* rec;
          if (spill) {
            // Exact streaming telemetry: chunks are aligned to whole
            // record blocks, so each block is visited by one worker and
            // a per-worker last-block edge counts it exactly once per
            // round. The progress cursor feeds the prefetch window.
            const std::uint64_t b = c >> layout->block_shift();
            if (b != wk.cur_block) {
              wk.cur_block = b;
              ++wk.blocks_read;
              wk.bytes_read += layout->block_bytes(b);
              spill_store.note_progress(layout->block_base(b) +
                                        layout->block_bytes(b));
            }
            rec = spill_store.record_at(c);
          } else {
            rec = store.record_at(c);
          }
          std::uint32_t mask = 0;
          rcodec.decode(rec, mask, s.digit_deltas.data());
          std::size_t k = 0;
          for (std::uint32_t bits = mask; bits != 0; bits &= bits - 1, ++k) {
            const auto i =
                static_cast<std::size_t>(std::countr_zero(bits));
            s.deltas.push_back(
                static_cast<std::int64_t>(s.digit_deltas[k]) *
                static_cast<std::int64_t>(codec_.weight(i)));
          }
        } else {
          wk.od.seek(c);
          enabled(wk.od.config(), s.idx, s.rules);
          compute_deltas(wk.od.config(), wk.od.digits(), s);
        }
        const std::size_t m = s.deltas.size();
        // Full scan with early exit; the first still-blocked successor
        // becomes the new watch.
        const std::uint32_t subsets = std::uint32_t{1} << m;
        if (s.sums.size() < subsets) s.sums.resize(subsets);
        s.sums[0] = 0;
        bool blocked = false;
        for (std::uint32_t mask = 1; mask < subsets; ++mask) {
          s.sums[mask] =
              s.sums[mask & (mask - 1)] +
              s.deltas[static_cast<std::size_t>(std::countr_zero(mask))];
          const auto sc = static_cast<std::uint64_t>(
              static_cast<std::int64_t>(c) + s.sums[mask]);
          if (h_at(sc) >= round) {
            blocked = true;
            // sc == c (a zero-delta subset) re-arms the "no watch"
            // sentinel; such a self-loop blocks every round anyway. The
            // spill peel keeps no watch table — every active config
            // re-decodes its record each round (the stream read is what
            // the prefetch window hides).
            if (!spill) watch[c] = static_cast<std::uint32_t>(sc);
            break;
          }
        }
        if (blocked) return;
        // Every successor finalized in an earlier round; the deepest one
        // at round - 1, so c's height is exactly this round.
        if (solo) {
          height_raw[c] = static_cast<std::uint16_t>(round);
        } else {
          std::atomic_ref<std::uint16_t>(height_raw[c])
              .store(static_cast<std::uint16_t>(round),
                     std::memory_order_relaxed);
        }
        active.clear(c);
        ++wk.finalized;
      });
    });
    std::uint64_t round_final = 0;
    for (const Worker& wk : ws) round_final += wk.finalized;
    if (round_final == 0) break;  // stalled: residue is an illegit cycle
    finalized += round_final;
    rounds_run = round;
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
    blocks_read += wk.blocks_read;
    bytes_read += wk.bytes_read;
  }
  st.edge_count = edges;
  st.counts_bytes = watch.capacity() * sizeof(std::uint32_t);
  st.offsets_bytes = has_records ? layout->offset_bytes() : 0;
  st.edges_bytes = compressed ? store.stream_bytes() : 0;
  st.heights_bytes = height_raw.capacity() * sizeof(std::uint16_t);
  st.frontier_bytes = active.bytes();
  if (spill) {
    st.spill_bytes = spill_store.stream_bytes();
    st.spill_path = spill_store.path();
    st.blocks_read = blocks_read;
    st.read_amplification =
        st.spill_bytes == 0 ? 0.0
                            : static_cast<double>(bytes_read) /
                                  static_cast<double>(st.spill_bytes);
  }
  const std::uint64_t record_bytes = compressed ? st.edges_bytes
                                                : st.spill_bytes;
  st.bytes_per_edge =
      (has_records && edges != 0)
          ? static_cast<double>(record_bytes) / static_cast<double>(edges)
          : 0.0;
  st.rounds = report.convergence_holds
                  ? static_cast<std::uint32_t>(report.worst_case_steps)
                  : rounds_run;
  // measured_peak_bytes is the *resident* high-water mark; the spilled
  // stream is disk, not RAM, so it is reported via spill_bytes instead.
  st.measured_peak_bytes = st.lambda_bytes + st.counts_bytes +
                           st.offsets_bytes + st.edges_bytes +
                           st.heights_bytes + st.frontier_bytes;
  if (spill) spill_store.release();

  if (report.convergence_holds && options.keep_heights) {
    report.heights = HeightTable::adopt(std::move(height_raw));
  }
}

}  // namespace ssr::verify
