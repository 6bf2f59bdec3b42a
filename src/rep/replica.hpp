// Checkpointable servant: the unit of replication.
//
// A Replica is a Servant that can externalise and restore its state. The
// default state-update hooks (for passive replication) transfer the full
// state; servants with large state override get_update/apply_update to ship
// postimages of just the modified part, as the original system's refined
// transfer scheme does.
#pragma once

#include "cdr/cdr.hpp"
#include "orb/servant.hpp"

namespace eternal::rep {

class Replica : public orb::Servant {
 public:
  /// Serialise the full application state (tier 1 of the three-tier state).
  virtual void get_state(cdr::Writer& out) const = 0;
  /// Restore the full application state.
  virtual void set_state(cdr::Decoder& in) = 0;

  /// Produce the state update (postimage) after `op` executed. Default:
  /// full state. Override to ship incremental postimages.
  virtual void get_update(const std::string& op, cdr::Writer& out) const {
    (void)op;
    get_state(out);
  }
  /// Apply a state update produced by get_update. Default: full restore.
  virtual void apply_update(const std::string& op, cdr::Decoder& in) {
    (void)op;
    set_state(in);
  }
};

}  // namespace eternal::rep
