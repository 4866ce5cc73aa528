// Cluster membership policy (ROADMAP "Distributed data plane"): decides,
// from observations derived from gossiped node status, which remote nodes
// the router may still route to and whether the fleet should grow or
// shrink. Same mold as every dpolicy object — pure, unsynchronized, no
// clocks or threads of its own: the Cluster's gossip loop (and fake-clock
// unit tests) feed it `now` plus one MemberSignals row per known peer and
// apply whatever it decides.
//
// State machine per member:
//
//          fresh gossip                 stale > suspect_after_us
//   (join) ───────────► kActive ─────────────────────► kSuspect
//             ▲            ▲                               │
//             │            │ fresh gossip (recovery)       │ stale >
//             │            └───────────────────────────────┤ evict_after_us
//             │ fresh gossip (rejoin)                      ▼
//             └──────────────────────────────────────── kLeft
//
// Suspects stay routable only as a last resort; kLeft members are evicted
// from routing entirely until they gossip again. On top of the per-member
// machine, a fleet-utilization hysteresis emits scale hints: sustained
// high average utilization across active members asks for one more node,
// sustained low utilization nominates the least-utilized member to drain —
// never below min_active.
#ifndef SRC_POLICY_MEMBERSHIP_H_
#define SRC_POLICY_MEMBERSHIP_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/clock.h"

namespace dpolicy {

enum class MemberState { kActive, kSuspect, kLeft };

std::string_view MemberStateName(MemberState state);

// One gossip-derived observation row per known peer.
struct MemberSignals {
  std::string name;
  // When the router last heard a gossip reply from this peer; 0 = never
  // (a just-added peer gets a suspect_after_us grace window from the tick
  // it first appears before staleness counts against it).
  dbase::Micros last_heard_us = 0;
  // inflight / admission cap from the peer's last gossiped status; the
  // fleet-scaling input.
  double utilization = 0.0;
};

struct MembershipOptions {
  // Staleness thresholds on the last heard gossip.
  dbase::Micros suspect_after_us = 1 * dbase::kMicrosPerSecond;
  dbase::Micros evict_after_us = 5 * dbase::kMicrosPerSecond;
  // Fleet-utilization hysteresis band for scale hints.
  double scale_out_above = 0.75;
  double scale_in_below = 0.20;
  // Minimum spacing between scale hints (either direction).
  dbase::Micros scale_hold_us = 3 * dbase::kMicrosPerSecond;
  // Scale-in never drains the fleet below this many active members.
  int min_active = 1;
};

// A member whose state changed this tick.
struct MemberTransition {
  std::string name;
  MemberState from = MemberState::kActive;
  MemberState to = MemberState::kActive;
  // "joined" / "stale" / "evicted" / "recovered" / "rejoined" — static.
  const char* reason = "";
};

struct MembershipDecision {
  std::vector<MemberTransition> transitions;
  // +1: fleet saturated, ask for one more node. -1: fleet idle, drain
  // `drain_candidate`. 0: steady.
  int desired_nodes_delta = 0;
  std::string drain_candidate;
  // "steady" / "saturated" / "idle" / "hold" — static.
  const char* reason = "steady";
};

struct MembershipStats {
  uint64_t ticks = 0;
  uint64_t suspects = 0;
  uint64_t evictions = 0;
  uint64_t recoveries = 0;  // Suspect → active.
  uint64_t rejoins = 0;     // Left → active.
  uint64_t scale_out_hints = 0;
  uint64_t scale_in_hints = 0;
};

class MembershipPolicy {
 public:
  MembershipPolicy() : MembershipPolicy(MembershipOptions{}) {}
  explicit MembershipPolicy(MembershipOptions options) : options_(options) {}

  // One gossip round: `members` is the full current peer list (a peer
  // omitted from the list is forgotten entirely — an administrative
  // removal, distinct from staleness eviction). Returns the transitions to
  // apply plus at most one scale hint.
  MembershipDecision Tick(dbase::Micros now_us, const std::vector<MemberSignals>& members);

  // kLeft for unknown names: an unknown peer is not routable.
  MemberState StateOf(const std::string& name) const;

  const MembershipStats& stats() const { return stats_; }
  const MembershipOptions& options() const { return options_; }

 private:
  struct Member {
    MemberState state = MemberState::kActive;
    dbase::Micros first_seen_us = 0;
  };

  MembershipOptions options_;
  std::map<std::string, Member> members_;
  dbase::Micros last_hint_us_ = 0;
  MembershipStats stats_;
};

}  // namespace dpolicy

#endif  // SRC_POLICY_MEMBERSHIP_H_
