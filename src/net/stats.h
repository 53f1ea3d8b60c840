// The socket counters of the two network front ends. They live in their
// own header, free of any other dependency, so that serving::StatsSnapshot
// can hold them as they are instead of copying them field by field into
// mirror structs of its own.
#pragma once

#include <cstdint>

namespace deepcsi::net {

// TcpIngestServer::stats().
struct IngestStats {
  std::uint64_t conns_accepted = 0;
  std::uint64_t conns_rejected = 0;   // over max_conns, closed on accept
  std::uint64_t conns_shed = 0;       // refused by the accept_gate
  std::uint64_t conns_open = 0;
  std::uint64_t frames = 0;           // complete frames reassembled
  std::uint64_t reports_submitted = 0;
  std::uint64_t reports_dropped = 0;  // submit() -> kRejected
  std::uint64_t malformed_payloads = 0;  // well-framed but undecodable
  std::uint64_t protocol_errors = 0;     // framing poisoned -> conn closed
  std::uint64_t pauses = 0;              // EPOLLIN toggled off (backpressure)
};

// VerdictPublisher::stats().
struct PublisherStats {
  std::uint64_t subscribers_accepted = 0;
  std::uint64_t subscribers_rejected = 0;  // over max_conns
  std::uint64_t subscribers_open = 0;
  std::uint64_t frames_published = 0;   // publish() calls
  std::uint64_t frames_dropped = 0;     // per-subscriber slow-reader drops
  std::uint64_t bytes_sent = 0;
  std::uint64_t partial_writes = 0;     // sends that left a remainder
};

}  // namespace deepcsi::net
