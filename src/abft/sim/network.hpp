// Synchronous round-based message layer between the agents and the server.
// The system model (Section 1.4) is synchronous, so a round is: server
// broadcasts x_t, every agent's reply is delivered before the round closes,
// and a missing reply is *detectable* (step S1 eliminates the sender).  The
// network supports per-message drop injection so elimination is exercised
// under crash-style faults too, and can record a transcript for inspection.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "abft/linalg/vector.hpp"
#include "abft/util/rng.hpp"

namespace abft::sim {

using linalg::Vector;

struct GradientMessage {
  int agent = 0;
  int round = 0;
  /// Empty when the agent stayed silent or the message was dropped.
  std::optional<Vector> payload;
};

class SyncNetwork {
 public:
  /// drop_probability applies independently to every agent->server message.
  explicit SyncNetwork(double drop_probability = 0.0, std::uint64_t seed = 0);

  /// One agent->server message per call, in agent order.  An empty
  /// `payload` means the agent stayed silent (no drop draw).  Otherwise the
  /// drop coin is tossed and, when the message survives, the payload is
  /// copied into `dst` — the network writes the gradient straight into the
  /// server's ingest-batch row.  Returns true iff the server received the
  /// message.
  bool transmit_row(int agent, int round, std::span<const double> payload,
                    std::span<double> dst);

  /// Enables transcript recording (off by default: long learning runs would
  /// otherwise retain every gradient).
  void record_transcript(bool enabled) noexcept { recording_ = enabled; }

  [[nodiscard]] const std::vector<GradientMessage>& transcript() const noexcept {
    return transcript_;
  }

  [[nodiscard]] long messages_sent() const noexcept { return messages_sent_; }
  [[nodiscard]] long messages_dropped() const noexcept { return messages_dropped_; }

 private:
  double drop_probability_;
  util::Rng rng_;
  bool recording_ = false;
  std::vector<GradientMessage> transcript_;
  long messages_sent_ = 0;
  long messages_dropped_ = 0;
};

}  // namespace abft::sim
