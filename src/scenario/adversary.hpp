// Adversarial supernode behaviour against the §3.2 reputation scheme.
//
// The paper's security discussion (§3.6) anticipates supernodes that
// "deliberately delay the transmission of game videos". AdversaryModel
// generalises that single fixed-delay attacker into the classic
// reputation-attack repertoire:
//   * kFixedDelay — every member sabotages constantly (the paper's
//     attacker);
//   * kOnOff     — members alternate between honest and sabotaging
//     cycles, farming good ratings while off to spend while on;
//   * kWhitewash — members sabotage constantly but periodically shed
//     their identity: every victim's ratings of them are erased, so the
//     reborn identity scores 0 (unknown) instead of its earned bad score;
//   * kCollusion — members are organised into rings that take turns
//     sabotaging; while one ring attacks, the others behave to keep the
//     coalition's average standing high.
//
// Membership is drawn on the owning System's "malicious" fork with one
// Bernoulli trial per fleet slot, so a kFixedDelay adversary replays the
// historical fixed-delay runs byte-identically.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "core/entities.hpp"
#include "util/rng.hpp"

namespace cloudfog::scenario {

enum class AdversaryKind : std::uint8_t {
  kNone,
  kFixedDelay,
  kOnOff,
  kWhitewash,
  kCollusion,
};

const char* adversary_kind_name(AdversaryKind kind);

/// Parses a kind name ("none", "fixed_delay", "on_off", "whitewash",
/// "collusion"); returns false on an unknown name.
bool adversary_kind_from_name(std::string_view name, AdversaryKind* out);

struct AdversaryConfig {
  AdversaryKind kind = AdversaryKind::kNone;
  /// Share of the fleet recruited (one Bernoulli trial per slot).
  double fraction = 0.0;
  /// Sabotage intensity: per-packet hold-back in milliseconds.
  double delay_ms = 80.0;
  /// kOnOff: members sabotage for `on_cycles` out of every `period_cycles`.
  int period_cycles = 2;
  int on_cycles = 1;
  /// kWhitewash: identities are reborn every `whitewash_period_cycles`.
  int whitewash_period_cycles = 2;
  /// kCollusion: number of rotating rings (one attacks per cycle).
  int ring_count = 3;

  bool active() const { return kind != AdversaryKind::kNone && fraction > 0.0; }
};

/// Drives the recruited members' behaviour cycle by cycle. Constructed by
/// the owning System; `begin_cycle` must run before the cycle's first
/// subcycle so selection and QoS see this cycle's behaviour.
class AdversaryModel {
 public:
  /// Recruits members from `fleet` (one `rng.chance(fraction)` per slot,
  /// the historical membership stream) and applies the baseline sabotage
  /// of always-on kinds.
  AdversaryModel(const AdversaryConfig& cfg, std::vector<core::SupernodeState>& fleet,
                 util::Rng rng);

  const AdversaryConfig& config() const { return cfg_; }
  bool is_member(std::size_t supernode) const {
    return supernode < member_.size() && member_[supernode] != 0;
  }
  const std::vector<std::size_t>& members() const { return member_ids_; }

  /// Applies this cycle's behaviour: toggles sabotage for kOnOff and
  /// kCollusion, erases ratings of reborn identities for kWhitewash.
  void begin_cycle(int day, std::vector<core::SupernodeState>& fleet,
                   std::vector<core::PlayerState>& players);

 private:
  AdversaryConfig cfg_;
  std::vector<char> member_;              ///< per fleet slot
  std::vector<std::size_t> member_ids_;   ///< recruited slots, ascending
  std::vector<std::size_t> ring_of_;      ///< collusion ring per member
};

}  // namespace cloudfog::scenario
