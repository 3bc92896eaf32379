// The (l, k)-critical section problem (paper §1.2, after Kakugawa 2015):
// at least l and at most k of the n processes are in the critical section
// at any time. Mutual exclusion is (0, 1); mutual inclusion is (1, n);
// SSRmin solves (1, 2).
//
// SpecMonitor audits an execution — event-sampled or time-weighted —
// against a spec, counting and timing violations in both directions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace ssr::incl {

struct CriticalSectionSpec {
  std::size_t min_in_cs = 0;  ///< l
  std::size_t max_in_cs = 0;  ///< k

  bool satisfied_by(std::size_t in_cs) const {
    return in_cs >= min_in_cs && in_cs <= max_in_cs;
  }
  std::string to_string() const;
};

/// (0, 1): classical mutual exclusion.
CriticalSectionSpec mutual_exclusion_spec();
/// (1, n): mutual inclusion.
CriticalSectionSpec mutual_inclusion_spec(std::size_t n);
/// (1, 2): what SSRmin guarantees (Theorem 1).
CriticalSectionSpec ssrmin_spec();

/// Accumulates spec compliance over an observed execution.
class SpecMonitor {
 public:
  explicit SpecMonitor(CriticalSectionSpec spec) : spec_(spec) {}

  const CriticalSectionSpec& spec() const { return spec_; }

  /// Point observation (e.g. one snapshot of the holder count).
  void observe(std::size_t in_cs);

  /// Time-weighted observation: the system had @p in_cs processes in the
  /// critical section for a duration of @p dt.
  void observe_interval(double dt, std::size_t in_cs);

  std::uint64_t observations() const { return observations_; }
  std::uint64_t violations_below() const { return below_; }
  std::uint64_t violations_above() const { return above_; }
  bool clean() const { return below_ == 0 && above_ == 0; }

  double observed_time() const { return total_time_; }
  double violation_time() const { return violation_time_; }
  /// Fraction of observed time in compliance (1.0 when nothing observed).
  double compliance() const;

 private:
  CriticalSectionSpec spec_;
  std::uint64_t observations_ = 0;
  std::uint64_t below_ = 0;
  std::uint64_t above_ = 0;
  double total_time_ = 0.0;
  double violation_time_ = 0.0;
};

}  // namespace ssr::incl
