#include "src/policy/membership.h"

#include <set>

namespace dpolicy {

std::string_view MemberStateName(MemberState state) {
  switch (state) {
    case MemberState::kActive:
      return "active";
    case MemberState::kSuspect:
      return "suspect";
    case MemberState::kLeft:
      return "left";
  }
  return "unknown";
}

MembershipDecision MembershipPolicy::Tick(dbase::Micros now_us,
                                          const std::vector<MemberSignals>& members) {
  MembershipDecision decision;
  ++stats_.ticks;

  // Forget peers that were administratively removed from the roster.
  std::set<std::string> roster;
  for (const MemberSignals& m : members) roster.insert(m.name);
  for (auto it = members_.begin(); it != members_.end();) {
    if (roster.count(it->first) == 0) {
      it = members_.erase(it);
    } else {
      ++it;
    }
  }

  for (const MemberSignals& m : members) {
    auto [it, inserted] = members_.emplace(m.name, Member{MemberState::kActive, now_us});
    Member& member = it->second;
    if (inserted) {
      decision.transitions.push_back(
          {m.name, MemberState::kActive, MemberState::kActive, "joined"});
    }
    // A never-heard peer ages from when we first saw it, so a just-added
    // node gets the suspect window to produce its first gossip.
    const dbase::Micros heard = m.last_heard_us > 0 ? m.last_heard_us : member.first_seen_us;
    const dbase::Micros age = now_us > heard ? now_us - heard : 0;

    MemberState next = member.state;
    const char* reason = nullptr;
    if (age >= options_.evict_after_us) {
      next = MemberState::kLeft;
      reason = "evicted";
    } else if (age >= options_.suspect_after_us) {
      next = MemberState::kSuspect;
      reason = "stale";
    } else {
      next = MemberState::kActive;
      reason = member.state == MemberState::kLeft ? "rejoined" : "recovered";
    }
    if (next != member.state) {
      switch (next) {
        case MemberState::kSuspect:
          ++stats_.suspects;
          break;
        case MemberState::kLeft:
          ++stats_.evictions;
          break;
        case MemberState::kActive:
          if (member.state == MemberState::kLeft) {
            ++stats_.rejoins;
          } else {
            ++stats_.recoveries;
          }
          break;
      }
      decision.transitions.push_back({m.name, member.state, next, reason});
      member.state = next;
    }
  }
  return decision;
}

MemberState MembershipPolicy::StateOf(const std::string& name) const {
  auto it = members_.find(name);
  return it == members_.end() ? MemberState::kLeft : it->second.state;
}

}  // namespace dpolicy
