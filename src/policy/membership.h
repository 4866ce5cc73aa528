// Cluster membership policy (ROADMAP "Distributed data plane"): decides,
// from observations derived from gossiped node status, which remote nodes
// the router may still route to. Same mold as every dpolicy object — pure,
// unsynchronized, no clocks or threads of its own: the Cluster's gossip
// loop (and fake-clock unit tests) feed it `now` plus one MemberSignals row
// per known peer and apply whatever it decides.
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
// from routing entirely until they gossip again. The fleet's size is not
// this policy's business: nodes join and leave by administration.
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
};

struct MembershipOptions {
  // Staleness thresholds on the last heard gossip.
  dbase::Micros suspect_after_us = 1 * dbase::kMicrosPerSecond;
  dbase::Micros evict_after_us = 5 * dbase::kMicrosPerSecond;
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
};

struct MembershipStats {
  uint64_t ticks = 0;
  uint64_t suspects = 0;
  uint64_t evictions = 0;
  uint64_t recoveries = 0;  // Suspect → active.
  uint64_t rejoins = 0;     // Left → active.
};

class MembershipPolicy {
 public:
  MembershipPolicy() : MembershipPolicy(MembershipOptions{}) {}
  explicit MembershipPolicy(MembershipOptions options) : options_(options) {}

  // One gossip round: `members` is the full current peer list (a peer
  // omitted from the list is forgotten entirely — an administrative
  // removal, distinct from staleness eviction). Returns the transitions to
  // apply.
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
  MembershipStats stats_;
};

}  // namespace dpolicy

#endif  // SRC_POLICY_MEMBERSHIP_H_
