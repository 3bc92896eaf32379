// perfbench: one workload of the repository benchmark in one process.
//
// The process runs its workload as a closed loop with one client (the next
// op starts when the previous one returns), checks every op's output with
// the workload's oracle and prints one JSON result object as the last line
// of stdout. run.py builds this binary and is the command to run; NOTES.md
// says why each workload exists.
//
// The engines are driven only through their public entry points:
//   verify::make_ssrmin_checker(n, K).run(opts)
//   msgpass::make_ssrmin_cst(...) and CstSimulation::run(dt)
//   runtime::MultiRingReactor(cfg).run(d)
//   wire::encode_frame_v2_into and wire::decode_frame_any
// so a later change to any layer is measured with this same code.
//
// Every workload prints the same metrics. --trace 0 prints the end-to-end
// ones. --trace 1 is a separate run that records spans around the calls
// into each layer (kept in memory, written as Chrome trace-event JSON at
// exit) and prints the per-layer ones. There, every op also runs a traced
// twin on identical inputs, the two swapping order on odd ops: the pair
// must do identical work, and the op-time difference is the reported
// tracing overhead.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/legitimacy.hpp"
#include "core/ssrmin.hpp"
#include "msgpass/factories.hpp"
#include "runtime/reactor.hpp"
#include "util/lane_backend.hpp"
#include "util/rng.hpp"
#include "verify/checkers.hpp"
#include "wire/codec.hpp"

namespace {

using namespace ssr;
using Clock = std::chrono::steady_clock;

const Clock::time_point g_process_start = Clock::now();

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 3;
/// Repetitions of each side measurement of a traced run.
constexpr int kProbeReps = 3;

// --- statistics ------------------------------------------------------------

/// Quantile with linear interpolation between order statistics.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// --- tracing ---------------------------------------------------------------

/// In-memory span recorder. A disabled tracer records nothing, so the
/// untraced twin executes the same op code with no span bookkeeping.
class Tracer {
 public:
  struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    std::int64_t parent = -1;
    std::int64_t op = -1;
  };

  /// Closes its span when it leaves scope.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name, std::int64_t op)
        : tracer_(tracer), id_(tracer.open(std::move(name), op)) {}
    ~Scope() { tracer_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::int64_t id_;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Duration of the last closed span with this name and op id.
  double seconds(const std::string& name, std::int64_t op) const {
    for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
      if (it->op == op && it->name == name)
        return seconds_between(it->start, it->end);
    }
    return 0.0;
  }

  /// Durations of every span with this name, in recording order.
  std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_)
      if (s.name == name) out.push_back(seconds_between(s.start, s.end));
    return out;
  }

  void write_chrome_json(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const auto us = [](Clock::duration d) {
        return std::chrono::duration<double, std::micro>(d).count();
      };
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                    "\"parent\":%lld,\"op\":%lld}}",
                    i == 0 ? "" : ",", s.name.c_str(),
                    us(s.start - g_process_start), us(s.end - s.start), i,
                    static_cast<long long>(s.parent),
                    static_cast<long long>(s.op));
      out << buf;
    }
    out << "\n]}\n";
  }

 private:
  std::int64_t open(std::string name, std::int64_t op) {
    if (!enabled_) return -1;
    const std::int64_t parent = stack_.empty() ? -1 : stack_.back();
    const auto id = static_cast<std::int64_t>(spans_.size());
    spans_.push_back({std::move(name), Clock::now(), {}, parent, op});
    stack_.push_back(id);
    return id;
  }
  void close(std::int64_t id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = Clock::now();
    stack_.pop_back();
  }

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::int64_t> stack_;
};

// --- run bookkeeping --------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string trace_out;
};

/// What one process reports: the oracle tally, the metrics in print order,
/// provenance fields, layer details and the per-op work counts the
/// self-test compares between the traced and the untraced run.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::pair<std::string, std::string>> provenance;
  /// Engine-specific values of a traced run, printed beside the metrics.
  std::vector<std::pair<std::string, double>> layers;
  std::vector<std::string> counts;
  std::vector<double> op_seconds;  ///< wall time of every timed op, in order

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void note(const std::string& key, const std::string& value) {
    provenance.push_back({key, value});
  }
  void layer(const std::string& name, double value) {
    layers.push_back({name, value});
  }
  /// Records one timed op's oracle verdict.
  void op(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  /// A warm-up, side measurement or twin comparison that must hold.
  void require(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      std::cerr << "perfbench: check failed: " << what << '\n';
    }
  }
};

/// Closed-loop timer: the next op starts only if, at the pace of the ops
/// so far, it ends before the deadline (the first op always runs).
class Loop {
 public:
  explicit Loop(double seconds) : start_(Clock::now()), seconds_(seconds) {}
  bool more(double last_op_s) const {
    if (ops_ == 0) return true;
    return seconds_between(start_, Clock::now()) + last_op_s <= seconds_;
  }
  std::int64_t next() { return ops_++; }

 private:
  Clock::time_point start_;
  double seconds_;
  std::int64_t ops_ = 0;
};

// --- the workload interface ---------------------------------------------------

/// One op as the driver loop sees it.
struct Op {
  bool ok = false;        ///< the workload's oracle passed
  std::string counts;     ///< the op's deterministic work, compared by twins
  double seconds = 0.0;   ///< wall time of the whole op
  double work = 0.0;      ///< useful work done, work_per_s's numerator
  double steps = 0.0;     ///< elementary engine steps
  double outcomes = 0.0;  ///< useful outcomes
};

/// Side measurements of a traced run, taken after the loop.
struct Probes {
  double ns_per_step_small = 0.0;
  double stage_frac = 0.0;
};

/// A workload: an engine, its op and its oracle. The driver below owns the
/// loop, the timing and the metrics; every workload reports the same ones.
class Workload {
 public:
  Workload(std::string construct, std::string run, std::size_t count)
      : construct_span(std::move(construct)),
        run_span(std::move(run)),
        count_ops(count) {}
  virtual ~Workload() = default;

  /// Builds a fresh engine and runs the untimed warm-up.
  virtual void set_up(Result& res) = 0;
  /// Traced runs only: builds what the traced twin needs, under @p tracer.
  virtual void set_up_twin(Tracer& /*tracer*/) {}
  /// Runs op @p i; spans go to @p tracer, which is disabled for the twin
  /// that is timed.
  virtual Op run(std::int64_t i, Tracer& tracer) = 0;
  /// Traced runs only: the side measurements. @p ops are the untraced twins.
  virtual Probes probe(Tracer& tracer, const std::vector<Op>& ops,
                       Result& res) = 0;

  const std::string construct_span;  ///< span around the engine's constructor
  const std::string run_span;        ///< span around the engine's run call
  /// Ops whose counts feed the per-op count metrics, a fixed prefix so that
  /// those repeat exactly for a seed.
  const std::size_t count_ops;
};

// --- verify: check-ram ------------------------------------------------------

class CheckRam final : public Workload {
 public:
  struct Size {
    std::size_t n;
    std::uint32_t K;
    std::uint64_t total;
    std::uint64_t legitimate;
    std::uint64_t worst_case;
    std::size_t small_n;  ///< instance of the small-size side measurement
    std::uint32_t small_K;
  };

  CheckRam(const Size& size, Result& res)
      : Workload("verify.make_ssrmin_checker", "verify.run", 1), size_(size) {
    opts_.threads = 1;
    res.note("threads", "1");
    res.note("instance", "ssrmin(" + std::to_string(size.n) + "," +
                             std::to_string(size.K) + ")");
  }

  void set_up(Result& res) override {
    Tracer off(false);
    res.require(run(-1, off).ok, "warm-up check");
  }

  Op run(std::int64_t i, Tracer& tracer) override {
    const auto t0 = Clock::now();
    verify::CheckReport r;
    {
      Tracer::Scope span(tracer, "op", i);
      const auto checker = [&] {
        Tracer::Scope c(tracer, construct_span, i);
        return verify::make_ssrmin_checker(size_.n, size_.K);
      }();
      Tracer::Scope run(tracer, run_span, i);
      r = checker.run(opts_);
    }
    Op op;
    op.seconds = seconds_between(t0, Clock::now());
    op.ok = r.all_ok() && r.total_configs == size_.total &&
            r.legitimate_configs == size_.legitimate &&
            r.worst_case_steps == size_.worst_case;
    std::ostringstream os;
    os << "op=" << i << " rounds=" << r.stats.rounds
       << " edges=" << r.stats.edge_count
       << " peak_bytes=" << r.stats.measured_peak_bytes
       << " worst=" << r.worst_case_steps;
    op.counts = os.str();
    op.work = static_cast<double>(r.total_configs);
    op.steps = static_cast<double>(r.stats.edge_count);
    op.outcomes = static_cast<double>(r.total_configs);
    if (i == 0) stats_ = r.stats;
    return op;
  }

  /// The stage is Phase A: run() with check_convergence=false on the same
  /// instance. The small size is a full check of a smaller instance.
  Probes probe(Tracer& tracer, const std::vector<Op>& /*ops*/,
               Result& res) override {
    verify::CheckOptions phase_a_only = opts_;
    phase_a_only.check_convergence = false;
    std::vector<double> ns_small;
    for (int k = 0; k < kProbeReps; ++k) {
      {
        Tracer::Scope span(tracer, "verify.run_phase_a_only", k);
        (void)verify::make_ssrmin_checker(size_.n, size_.K).run(phase_a_only);
      }
      verify::CheckReport small;
      {
        Tracer::Scope span(tracer, "verify.run_small", k);
        small = verify::make_ssrmin_checker(size_.small_n, size_.small_K)
                    .run(opts_);
      }
      res.require(small.all_ok(), "small-instance check");
      ns_small.push_back(tracer.seconds("verify.run_small", k) * 1e9 /
                         static_cast<double>(small.stats.edge_count));
    }
    const double run_s = median(tracer.durations(run_span));
    const double phase_a_s =
        median(tracer.durations("verify.run_phase_a_only"));
    res.layer("verify.rounds", stats_.rounds);
    res.layer("verify.bytes_per_edge", stats_.bytes_per_edge);
    res.layer("verify.measured_peak_mib",
              static_cast<double>(stats_.measured_peak_bytes) /
                  (1024.0 * 1024.0));
    res.layer("verify.phase_a_ms", phase_a_s * 1e3);
    res.layer("verify.phase_b_ms_per_round",
              (run_s - phase_a_s) * 1e3 / std::max(1u, stats_.rounds));
    return {median(ns_small), phase_a_s / run_s};
  }

 private:
  Size size_;
  verify::CheckOptions opts_;
  verify::CheckStats stats_;
};

// --- msgpass: cst-1e5 --------------------------------------------------------

using SsrCst = msgpass::CstSimulation<core::SsrMinRing>;

class Cst final : public Workload {
 public:
  struct Size {
    std::size_t n;
    std::size_t small_n;  ///< ring size of the small-size side measurement
    std::size_t workers;
    double window;  ///< simulated ticks per op
  };

  Cst(const Size& size, std::uint64_t seed, Result& res)
      : Workload("msgpass.make_ssrmin_cst", "msgpass.run", 32),
        size_(size),
        seed_(seed) {
    res.note("workers", std::to_string(size.workers));
    res.note("instance", "ssrmin-cst(n=" + std::to_string(size.n) + ")");
  }

  void set_up(Result& /*res*/) override {
    Tracer off(false);
    build(plain_, size_.n, size_.workers, off);
  }

  /// The traced twin shares the seed, so window i does the same work in
  /// both.
  void set_up_twin(Tracer& tracer) override {
    build(traced_, size_.n, size_.workers, tracer);
  }

  Op run(std::int64_t i, Tracer& tracer) override {
    Tracer::Scope span(tracer, "op", i);
    msgpass::CoverageStats s;
    Op op = window(tracer.enabled() ? *traced_ : *plain_, tracer, run_span, i,
                   s);
    if (!tracer.enabled() && static_cast<std::size_t>(i) < count_ops)
      first_.push_back(s);
    return op;
  }

  /// The stage is what two workers add to an even split of one worker's
  /// work (barrier, boundary exchange, flip merge and imbalance), from the
  /// first windows replayed on one worker, which must count the same work.
  /// The small size is n = small_n at the same worker count.
  Probes probe(Tracer& tracer, const std::vector<Op>& ops,
               Result& res) override {
    Tracer off(false);
    msgpass::CoverageStats s;
    std::optional<SsrCst> sim;
    build(sim, size_.n, 1, off);
    double one = 0.0, two = 0.0, events = 0.0;
    for (std::size_t i = 0; i < first_.size(); ++i) {
      const auto op = static_cast<std::int64_t>(i);
      const Op w1 = window(*sim, tracer, "msgpass.run_workers1", op, s);
      res.require(w1.ok && w1.counts == ops[i].counts,
                  "one-worker replay matches the two-worker windows");
      one += tracer.seconds("msgpass.run_workers1", op);
      two += tracer.seconds(run_span, op);
      events += w1.steps;
    }

    build(sim, size_.small_n, size_.workers, off);
    std::vector<double> ns_small;
    for (std::int64_t i = 0; i < static_cast<std::int64_t>(4 * count_ops);
         ++i) {
      const Op w = window(*sim, tracer, "msgpass.run_small", i, s);
      res.require(w.ok, "small-ring window oracle");
      ns_small.push_back(tracer.seconds("msgpass.run_small", i) * 1e9 /
                         w.steps);
    }
    double deliveries = 0.0, rule_execs = 0.0;
    for (const msgpass::CoverageStats& w : first_) {
      deliveries += static_cast<double>(w.deliveries);
      rule_execs += static_cast<double>(w.rule_executions);
    }
    const auto k = static_cast<double>(first_.size());
    res.layer("msgpass.deliveries_per_window", deliveries / k);
    res.layer("msgpass.rule_execs_per_window", rule_execs / k);
    res.layer("msgpass.ns_per_event_w1", one * 1e9 / events);
    return {median(ns_small), (two - one / 2.0) / two};
  }

 private:
  static msgpass::NetworkParams params(std::uint64_t seed,
                                       std::size_t workers) {
    msgpass::NetworkParams p;
    p.delay_min = 0.5;
    p.delay_max = 1.0;
    p.refresh_interval = 8.0;
    p.service_min = 0.4;
    p.service_max = 0.9;
    p.seed = seed;
    p.workers = workers;
    return p;
  }

  /// Builds the simulation in @p slot from a legitimate cache-coherent
  /// start and runs it for one refresh interval, untimed.
  void build(std::optional<SsrCst>& slot, std::size_t n, std::size_t workers,
             Tracer& tracer) const {
    const auto K = static_cast<std::uint32_t>(n + 1);
    const core::SsrMinRing ring(n, K);
    const auto x = static_cast<std::uint32_t>(seed_ % K);
    const msgpass::NetworkParams p = params(seed_, workers);
    slot.reset();
    {
      Tracer::Scope span(tracer, construct_span, -1);
      slot.emplace(msgpass::make_ssrmin_cst(
          ring, core::canonical_legitimate(ring, x), p));
    }
    (void)slot->run(p.refresh_interval);
  }

  /// One run(window) of @p sim, its stats left in @p s. The oracle is
  /// Theorem 3 from a coherent legitimate start: one or two holders at
  /// every instant, never zero.
  Op window(SsrCst& sim, Tracer& tracer, const std::string& span_name,
            std::int64_t i, msgpass::CoverageStats& s) const {
    const auto t0 = Clock::now();
    {
      Tracer::Scope run(tracer, span_name, i);
      s = sim.run(size_.window);
    }
    Op op;
    op.seconds = seconds_between(t0, Clock::now());
    op.ok = s.min_holders >= 1 && s.max_holders <= 2 &&
            s.zero_token_time == 0.0;
    std::ostringstream os;
    os << "op=" << i << " events=" << s.events
       << " deliveries=" << s.deliveries
       << " rule_execs=" << s.rule_executions << " handovers=" << s.handovers
       << " min_holders=" << s.min_holders << " max_holders=" << s.max_holders;
    op.counts = os.str();
    op.work = size_.window;
    op.steps = static_cast<double>(s.events);
    op.outcomes = static_cast<double>(s.handovers);
    return op;
  }

  Size size_;
  std::uint64_t seed_;
  std::optional<SsrCst> plain_, traced_;
  /// Stats of the first count_ops untraced windows.
  std::vector<msgpass::CoverageStats> first_;
};

// --- runtime + wire: reactor-10k ---------------------------------------------

/// Virtual time one reactor op runs for.
constexpr std::chrono::microseconds kReactorOp{10000};

/// A batch of frames shaped like the reactor's: v2 frames over the
/// workload's ring ids, 4-node senders, payload = destination varint plus
/// the ring's protocol state (ssrmin: x and a flag byte, kstate: x, dual:
/// a and b), with K = 5.
struct FrameBatch {
  std::vector<std::uint64_t> ring, sender;
  std::vector<wire::Bytes> payload;
};

FrameBatch make_frames(std::size_t count, std::size_t rings,
                       std::uint64_t seed) {
  FrameBatch b;
  Rng rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t r = rng.below(rings);
    const std::uint64_t s = rng.below(4);
    wire::Bytes p;
    wire::put_varint(p, (s + (rng.below(2) == 0 ? 1 : 3)) % 4);
    switch (r % 3) {
      case 0:
        wire::put_varint(p, rng.below(5));
        p.push_back(static_cast<std::uint8_t>(rng.below(4)));
        break;
      case 1:
        wire::put_varint(p, rng.below(5));
        break;
      default:
        wire::put_varint(p, rng.below(5));
        wire::put_varint(p, rng.below(5));
        break;
    }
    b.ring.push_back(r);
    b.sender.push_back(s);
    b.payload.push_back(std::move(p));
  }
  return b;
}

/// Median ns per frame to encode the batch into one arena and to decode
/// every frame back, over a fixed number of passes. The decode span also
/// compares each frame with its source, which checks the round trip.
std::pair<double, double> codec_ns(const FrameBatch& b, Tracer& tracer,
                                   Result& res) {
  constexpr int kPasses = 64;
  const std::size_t count = b.ring.size();
  wire::Bytes arena;
  std::vector<std::size_t> offsets(count + 1, 0);
  std::vector<double> enc, dec;
  bool round_trip = true;
  for (int pass = 0; pass < kPasses; ++pass) {
    {
      Tracer::Scope span(tracer, "wire.encode_batch", pass);
      arena.clear();
      for (std::size_t i = 0; i < count; ++i) {
        offsets[i] = arena.size();
        wire::encode_frame_v2_into(arena, b.ring[i], b.sender[i],
                                   b.payload[i]);
      }
      offsets[count] = arena.size();
    }
    std::size_t good = 0;
    {
      Tracer::Scope span(tracer, "wire.decode_batch", pass);
      for (std::size_t i = 0; i < count; ++i) {
        const auto f = wire::decode_frame_any(wire::ByteView(
            arena.data() + offsets[i], offsets[i + 1] - offsets[i]));
        good += f && f->ring_id == b.ring[i] && f->sender == b.sender[i] &&
                f->payload == b.payload[i];
      }
    }
    round_trip = round_trip && good == count;
    const auto per_frame = static_cast<double>(count) / 1e9;
    enc.push_back(tracer.seconds("wire.encode_batch", pass) / per_frame);
    dec.push_back(tracer.seconds("wire.decode_batch", pass) / per_frame);
  }
  res.require(round_trip, "wire frames decode to what was encoded");
  return {median(enc), median(dec)};
}

class Reactor final : public Workload {
 public:
  struct Size {
    std::size_t rings;
    std::size_t small_rings;  ///< rings of the small-size side measurement
  };

  Reactor(const Size& size, std::uint64_t seed, Result& res)
      : Workload("runtime.MultiRingReactor", "runtime.run", 2),
        size_(size),
        seed_(seed) {
    res.note("workers", "1");
    res.note("instance", "reactor(rings=" + std::to_string(size.rings) +
                             ",nodes=4,mixed,drop=0.01)");
  }

  /// Warm-up reactors use seeds the timed ops (seed + op index) never
  /// reach.
  void set_up(Result& res) override {
    Tracer off(false);
    runtime::ReactorReport r;
    const Op warm =
        reactor(size_.rings, seed_ + (std::uint64_t{1} << 40), off, "", -1, r);
    res.require(warm.ok, "warm-up reactor");
  }

  Op run(std::int64_t i, Tracer& tracer) override {
    Tracer::Scope span(tracer, "op", i);
    runtime::ReactorReport r;
    Op op = reactor(size_.rings, seed_ + static_cast<std::uint64_t>(i),
                    tracer, "", i, r);
    if (!tracer.enabled() && static_cast<std::size_t>(i) < count_ops)
      first_.push_back(r);
    return op;
  }

  /// The stage is the wire codec: encode and decode cost per frame over a
  /// batch shaped like the reactor's, times the frames the first ops sent
  /// and received, over their run spans. The small size is a reactor of
  /// small_rings rings.
  Probes probe(Tracer& tracer, const std::vector<Op>& /*ops*/,
               Result& res) override {
    std::vector<double> ns_small;
    for (int k = 0; k < kProbeReps; ++k) {
      runtime::ReactorReport r;
      const Op op = reactor(size_.small_rings,
                            seed_ + static_cast<std::uint64_t>(k), tracer,
                            "_small", k, r);
      res.require(op.ok, "small reactor oracle");
      ns_small.push_back(tracer.seconds(run_span + "_small", k) * 1e9 /
                         op.steps);
    }
    const auto [encode_ns, decode_ns] =
        codec_ns(make_frames(4096, size_.rings, seed_), tracer, res);
    runtime::ReactorReport sum;
    double run_ns = 0.0;
    for (std::size_t i = 0; i < first_.size(); ++i) {
      const runtime::ReactorReport& r = first_[i];
      sum.rings += r.rings;
      sum.frames_sent += r.frames_sent;
      sum.frames_received += r.frames_received;
      sum.frames_dropped += r.frames_dropped;
      sum.refresh_broadcasts += r.refresh_broadcasts;
      sum.rings_legitimate += r.rings_legitimate;
      run_ns += tracer.seconds(run_span, static_cast<std::int64_t>(i)) * 1e9;
    }
    const auto sent = static_cast<double>(sum.frames_sent);
    res.layer("runtime.refresh_per_kframe",
              1000.0 * static_cast<double>(sum.refresh_broadcasts) / sent);
    res.layer("runtime.drop_frac",
              static_cast<double>(sum.frames_dropped) / sent);
    res.layer("runtime.legit_frac", static_cast<double>(sum.rings_legitimate) /
                                        static_cast<double>(sum.rings));
    res.layer("wire.encode_ns", encode_ns);
    res.layer("wire.decode_ns", decode_ns);
    const double codec_total =
        encode_ns * sent +
        decode_ns * static_cast<double>(sum.frames_received);
    return {median(ns_small), codec_total / run_ns};
  }

 private:
  static runtime::ReactorConfig config(std::size_t rings,
                                       std::uint64_t seed) {
    runtime::ReactorConfig cfg;
    cfg.rings = rings;
    cfg.nodes = 4;
    cfg.mixed = true;  // ssrmin, kstate and dual in rotation
    cfg.shards = 1;
    cfg.seed = seed;
    cfg.transport = runtime::ReactorTransport::kVirtual;
    cfg.start = runtime::RingStart::kRandom;
    cfg.fault_plan.probabilities.drop = 0.01;
    return cfg;
  }

  /// A fresh reactor run for kReactorOp, its report left in @p r; the
  /// spans carry @p suffix. The oracle is ROADMAP item 4's bar: 99% of
  /// rings legitimate, no frame rejected by the codec, and at least one
  /// handover.
  Op reactor(std::size_t rings, std::uint64_t seed, Tracer& tracer,
             const std::string& suffix, std::int64_t i,
             runtime::ReactorReport& r) const {
    const auto t0 = Clock::now();
    {
      std::optional<runtime::MultiRingReactor> engine;
      {
        Tracer::Scope c(tracer, construct_span + suffix, i);
        engine.emplace(config(rings, seed));
      }
      Tracer::Scope run(tracer, run_span + suffix, i);
      r = engine->run(kReactorOp);
    }
    Op op;
    op.seconds = seconds_between(t0, Clock::now());
    op.ok = r.rings_legitimate * 100 >= r.rings * 99 &&
            r.frames_rejected == 0 && r.handovers > 0;
    std::ostringstream os;
    os << "op=" << i << " frames=" << r.frames_sent
       << " dropped=" << r.frames_dropped << " handovers=" << r.handovers
       << " refresh=" << r.refresh_broadcasts
       << " rule_execs=" << r.rule_executions
       << " legitimate=" << r.rings_legitimate;
    op.counts = os.str();
    op.work = static_cast<double>(r.handovers);
    op.steps = static_cast<double>(r.frames_sent);
    op.outcomes = static_cast<double>(r.handovers);
    return op;
  }

  Size size_;
  std::uint64_t seed_;
  /// Reports of the first count_ops untraced ops.
  std::vector<runtime::ReactorReport> first_;
};

// --- the driver ------------------------------------------------------------

/// Sets the workload up kSetupReps times, runs its closed loop and reports
/// the end-to-end metrics (untraced run) or the per-layer ones (traced).
void drive(const Args& args, Workload& w, Result& res) {
  // setup_s: the first set-up runs from process start (static
  // initialisation and lane-backend dispatch included), each later one from
  // the end of the one before; each builds a fresh engine and warms it up.
  std::vector<double> setup_s;
  Clock::time_point from = g_process_start;
  for (int k = 0; k < kSetupReps; ++k) {
    w.set_up(res);
    const Clock::time_point now = Clock::now();
    setup_s.push_back(seconds_between(from, now));
    from = now;
  }
  Tracer off(false);
  Tracer tracer(args.trace);
  if (args.trace) w.set_up_twin(tracer);

  // A traced run leaves a quarter of its time to the side measurements.
  Loop loop(args.trace ? args.seconds * 0.75 : args.seconds);
  std::vector<Op> ops;
  std::vector<double> work_per_s, ns_per_step, run_s;
  double traced_s = 0.0, plain_s = 0.0;
  double last = 0.0;
  while (loop.more(last)) {
    const std::int64_t i = loop.next();
    std::optional<Op> twin;
    if (args.trace && i % 2 == 1) twin = w.run(i, tracer);
    Op op = w.run(i, off);
    if (args.trace && i % 2 == 0) twin = w.run(i, tracer);
    res.op(op.ok);
    res.counts.push_back(op.counts);
    res.op_seconds.push_back(op.seconds);
    work_per_s.push_back(op.work / op.seconds);
    last = op.seconds;
    if (twin) {
      res.require(twin->counts == op.counts,
                  "traced and untraced twins do identical work");
      traced_s += tracer.seconds("op", i);
      plain_s += op.seconds;
      run_s.push_back(tracer.seconds(w.run_span, i));
      ns_per_step.push_back(run_s.back() * 1e9 / op.steps);
      last += twin->seconds;
    }
    ops.push_back(std::move(op));
  }

  if (!args.trace) {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    res.metric("setup_s", median(setup_s), "s");
    res.metric("peak_rss_mib", static_cast<double>(usage.ru_maxrss) / 1024.0,
               "MiB");
    res.metric("ok_op_frac",
               static_cast<double>(res.attempted - res.failed) /
                   static_cast<double>(res.attempted),
               "1");
    res.metric("work_per_s", median(work_per_s), "1/s");
    return;
  }

  const Probes probes = w.probe(tracer, ops, res);
  const std::size_t k = std::min(ops.size(), w.count_ops);
  double steps = 0.0, outcomes = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    steps += ops[i].steps;
    outcomes += ops[i].outcomes;
  }
  res.metric("engine.construct_ms",
             median(tracer.durations(w.construct_span)) * 1e3, "ms");
  res.metric("engine.run_ms", median(run_s) * 1e3, "ms");
  res.metric("engine.steps_per_op", steps / static_cast<double>(k), "count");
  res.metric("engine.ns_per_step", median(ns_per_step), "ns");
  res.metric("engine.outcomes_per_op", outcomes / static_cast<double>(k),
             "count");
  res.metric("engine.steps_per_outcome", steps / std::max(1.0, outcomes),
             "1");
  res.metric("engine.ns_per_step_small", probes.ns_per_step_small, "ns");
  res.metric("engine.stage_frac", probes.stage_frac, "1");
  res.metric("trace.overhead_frac", (traced_s - plain_s) / plain_s, "1");
  if (!args.trace_out.empty()) tracer.write_chrome_json(args.trace_out);
}

// --- output ------------------------------------------------------------------

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print(const Args& args, const Result& res) {
  for (const std::string& line : res.counts)
    std::cout << "# counts " << args.workload << ' ' << line << '\n';
  std::cout << "# op_seconds [";
  for (std::size_t i = 0; i < res.op_seconds.size(); ++i)
    std::cout << (i == 0 ? "" : ",") << json_number(res.op_seconds[i]);
  std::cout << "]\n";
  if (!res.layers.empty()) {
    std::cout << "# layers {";
    for (std::size_t i = 0; i < res.layers.size(); ++i)
      std::cout << (i == 0 ? "" : ",") << json_string(res.layers[i].first)
                << ':' << json_number(res.layers[i].second);
    std::cout << "}\n";
  }
  std::cout << "# provenance {\"build_type\":"
            << json_string(PERFBENCH_BUILD_TYPE);
  for (const auto& [key, value] : res.provenance)
    std::cout << ',' << json_string(key) << ':' << json_string(value);
  std::cout << "}\n";
  std::cout << "{\"correct\":"
            << (res.correct && res.failed == 0 && res.attempted > 0 ? "true"
                                                                    : "false")
            << ",\"attempted\":" << res.attempted
            << ",\"failed\":" << res.failed << ",\"metrics\":{";
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    const auto& [name, vu] = res.metrics[i];
    std::cout << (i == 0 ? "" : ",") << json_string(name)
              << ":{\"value\":" << json_number(vu.first)
              << ",\"unit\":" << json_string(vu.second) << '}';
  }
  std::cout << "}}" << std::endl;
}

/// Fixed pure-compute loop, timed before and after a workload by run.py so
/// that a host slowdown can be told from a regression. It never rescales a
/// metric.
void calibrate() {
  const auto t0 = Clock::now();
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (std::uint64_t i = 0; i < (std::uint64_t{1} << 27); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x += i;
  }
  const double s = seconds_between(t0, Clock::now());
  std::printf("%.9f %llu\n", s, static_cast<unsigned long long>(x & 1));
}

int usage() {
  std::cerr << "usage: perfbench --workload check-ram|cst-1e5|"
               "reactor-10k --seed N --seconds S --trace 0|1 [--tiny] "
               "[--trace-out FILE]\n"
               "       perfbench --calibrate\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    try {
      if (a == "--calibrate") {
        calibrate();
        return 0;
      } else if (a == "--workload") {
        args.workload = value();
      } else if (a == "--seed") {
        args.seed = std::stoull(value());
      } else if (a == "--seconds") {
        args.seconds = std::stod(value());
      } else if (a == "--trace") {
        args.trace = value() == "1";
      } else if (a == "--tiny") {
        args.tiny = true;
      } else if (a == "--trace-out") {
        args.trace_out = value();
      } else {
        return usage();
      }
    } catch (const std::exception& e) {
      std::cerr << "perfbench: " << e.what() << '\n';
      return usage();
    }
  }
  if (args.seconds <= 0.0) return usage();

  Result res;
  res.note("workload", args.workload);
  res.note("seed", std::to_string(args.seed));
  res.note("size", args.tiny ? "tiny" : "full");
  res.note("lane_backend",
           util::lane_backend_name(util::detect_lane_backend()));
  const bool tiny = args.tiny;
  try {
    std::unique_ptr<Workload> w;
    if (args.workload == "check-ram") {
      w = std::make_unique<CheckRam>(
          tiny ? CheckRam::Size{3, 4, 4096, 36, 16, 3, 4}
               : CheckRam::Size{5, 6, 7962624, 90, 77, 4, 6},
          res);
    } else if (args.workload == "cst-1e5") {
      w = std::make_unique<Cst>(tiny ? Cst::Size{1000, 100, 2, 0.25}
                                     : Cst::Size{100000, 10000, 2, 0.25},
                                args.seed, res);
    } else if (args.workload == "reactor-10k") {
      w = std::make_unique<Reactor>(
          tiny ? Reactor::Size{300, 100} : Reactor::Size{10000, 1000},
          args.seed, res);
    } else {
      return usage();
    }
    drive(args, *w, res);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << args.workload << " failed: " << e.what()
              << '\n';
    return 1;
  }
  print(args, res);
  return 0;
}
