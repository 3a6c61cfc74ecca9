// Shared-bandwidth transfer fabric. Links have fixed capacities; a transfer
// claims a path (an ordered set of links) and receives a max-min fair share
// of every link it crosses (progressive filling). This reproduces the paper's
// PCIe contention effects: two GPUs pulling through one PCIe switch uplink
// each see roughly half bandwidth (Table 2), while NVLink traffic rides its
// own links and overlaps freely with host->GPU PCIe traffic (Figure 9).
#ifndef SRC_SIM_FABRIC_H_
#define SRC_SIM_FABRIC_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/simulator.h"
#include "src/util/time.h"

namespace deepplan {

using LinkId = int;
using TransferId = std::uint64_t;

class Fabric {
 public:
  explicit Fabric(Simulator* sim);

  // Adds a link with the given capacity (bytes/second). Returns its id.
  LinkId AddLink(std::string name, double capacity_bytes_per_sec);

  int num_links() const { return static_cast<int>(links_.size()); }
  const std::string& link_name(LinkId id) const;
  double link_capacity(LinkId id) const;

  // Starts a transfer of `bytes` across `path`. `latency` is added once, after
  // the last byte drains (DMA setup + completion signalling). `done` fires at
  // completion with the transfer's elapsed time. Zero-byte transfers complete
  // after just the latency. Returns an id (informational).
  TransferId Start(std::vector<LinkId> path, std::int64_t bytes, Nanos latency,
                   std::function<void(Nanos elapsed)> done);

  // Number of in-flight transfers (draining bytes; excludes latency tails).
  int active_transfers() const { return static_cast<int>(active_.size()); }

  // Current fair-share rate of a link's busiest direction: total allocated
  // bandwidth on the link (bytes/sec). For tests and bandwidth accounting.
  double AllocatedOn(LinkId id) const;

  // Duration the transfer would take with its path to itself: bytes at the
  // path's minimum link capacity (same ceil-to-ns rounding the completion
  // scheduler applies) plus the latency tail. The profiling layer charges
  // actual - solo to contention; fair sharing can only slow a transfer, so
  // actual >= solo always.
  Nanos SoloDuration(const std::vector<LinkId>& path, std::int64_t bytes,
                     Nanos latency) const;

  // Receives the fabric's counter samples (track, series, time, value): on
  // every transfer start the running byte total ("cum/fabric.bytes",
  // "bytes"), and on every progressive-filling rate change one sample per
  // link whose allocation moved ("bw/<link name>", GB/s, "gbps"). Only a
  // fabric a trace is derived from carries one: the what-if identity replay
  // attaches it to the fabric it rebuilds per process (DESIGN.md §8); the
  // simulated run's own fabric never does.
  using CounterSink = std::function<void(const std::string& track,
                                         std::string_view series, Nanos ts,
                                         double value)>;
  void set_counter_sink(CounterSink sink) { counter_sink_ = std::move(sink); }

  // --- Reservation for a fast-forwarded cold start (DESIGN.md §16) ---
  // Reserves the idle fabric through `until` (inclusive) for work whose
  // transfers have not been issued: the first Start inside the window calls
  // `on_join` before doing anything else, which must issue them (catch-up),
  // and the reservation ends. Start after `until` leaves it untouched.
  void Reserve(Nanos until, std::function<void()> on_join);
  // True while a reservation window covers now().
  bool reserved() const;
  void ReleaseReservation() { on_join_ = nullptr; }
  // Cancels the completion event of every in-flight transfer, leaving them
  // for the next reallocation to re-issue. A catch-up calls this on its side
  // queue just before a joining Start re-solves the fabric.
  void DropCompletionEvents();
  // Points every in-flight transfer's completion event at the copy the last
  // catch-up spliced into the main queue, for a catch-up that issued the
  // transfers and has no joining Start to re-issue their completions.
  void FollowSplicedCompletionEvents();
  // Time the most recent transfer drained off its links (-1 before any).
  Nanos last_departure() const { return last_departure_; }

  // Test hook: disables the incremental (component-local) fair-share solve
  // and re-solves every active transfer on each change, as the original
  // implementation did. tests/fabric_diff_test.cc runs one fabric in each
  // mode over identical schedules and asserts bitwise-equal behavior.
  void set_full_resolve_for_testing(bool full) { force_full_resolve_ = full; }

 private:
  struct Link {
    std::string name;
    double capacity;
  };

  struct Transfer {
    TransferId id;
    std::vector<LinkId> path;
    double total_bytes = 0.0;
    double remaining_bytes;
    double rate = 0.0;       // current allocation, bytes/sec
    Nanos last_update = 0;   // sim time when remaining_bytes was settled
    Nanos started = 0;
    Nanos latency = 0;
    std::function<void(Nanos)> done;
    EventQueue::EventId completion_event = 0;
    bool has_completion_event = false;
  };

  // Settles progress to now(), recomputes the max-min allocation of the
  // transfers whose flow set changed (`seeds`: indices into active_), and
  // reschedules every transfer's completion event. Settling and completion
  // rescheduling stay global on purpose: completion times are re-quantized
  // (ceil to whole ns) from freshly settled remaining_bytes, and skipping
  // that for "unchanged" transfers would shift completions by a nanosecond
  // relative to the original implementation.
  void Reallocate(const std::vector<std::size_t>& seeds, bool seeds_closed);
  void SettleProgress();
  // Recomputes rates for the link-connected component(s) of `seeds` only;
  // other transfers keep their (bitwise-unchanged) rates. When
  // `seeds_closed` the caller guarantees `seeds` is already closed under
  // link-sharing (a union of components) and the expansion is skipped. When
  // validation is on, shadows the full re-solve and cross-checks every rate
  // bit-for-bit.
  void ComputeRates(const std::vector<std::size_t>& seeds, bool seeds_closed);
  // Progressive filling restricted to `subset` (ascending indices into
  // active_, closed under link-sharing); writes rates[i] for i in subset.
  void SolveSubset(const std::vector<std::size_t>& subset,
                   std::vector<double>& rates);
  // Expands `seeds` to their link-connected component(s), ascending.
  void CollectComponent(const std::vector<std::size_t>& seeds,
                        std::vector<std::size_t>& out);
  void ScheduleCompletions();
  void Complete(std::size_t index);
  void EmitLinkCounters();

  Simulator* sim_;
  std::vector<Link> links_;
  std::vector<Transfer> active_;
  TransferId next_id_ = 1;
  bool force_full_resolve_ = false;
  Nanos reserved_until_ = -1;
  std::function<void()> on_join_;
  Nanos last_departure_ = -1;

  // Scratch buffers reused across solves (the fabric reallocates on every
  // transfer start/completion; per-call vector churn was a measurable slice
  // of the sim-core profile).
  std::vector<std::size_t> affected_;
  std::vector<LinkId> touched_links_;
  std::vector<int> users_;          // per link, valid for touched links only
  std::vector<double> residual_;    // per link, valid for touched links only
  std::vector<char> in_component_;  // per active_ index
  std::vector<char> link_mark_;     // per link (component BFS)
  std::vector<std::size_t> all_indices_;       // 0..n-1 (full re-solve)
  std::vector<std::size_t> start_seeds_;       // seed buffer for Start
  std::vector<std::size_t> completion_seeds_;  // seed buffer for Complete
  std::vector<char> frozen_;        // per subset position
  std::vector<double> shadow_rates_;  // full re-solve result (validation)

  CounterSink counter_sink_;
  std::vector<double> last_emitted_;  // last counter sample per link
  std::int64_t cumulative_bytes_ = 0;  // cum/fabric.bytes counter track
};

}  // namespace deepplan

#endif  // SRC_SIM_FABRIC_H_
