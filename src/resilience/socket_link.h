// The localhost TCP byte pipe under a ReplicationLink (replication.h):
// real kernel socket semantics — a byte stream with no message boundaries,
// partial reads and writes, torn connections, reconnects that discard the
// bytes in flight.  The pipe is syscalls only; framing, the fault sites and
// the virtual clock live in the link, so a chaos plan lands on the same
// frame here as over the in-memory pipe.
//
// Connect() listens on an ephemeral 127.0.0.1 port the first time, then
// connects and accepts through that listener (again on every reconnect).
// The primary holds the connecting end, the replica the accepted end; both
// are non-blocking with Nagle off, since latency is virtual ticks.
//
// Thread-compatibility matches the module: one thread drives the link.
#pragma once

#include <memory>

#include "resilience/replication.h"

namespace dcart::resilience {

std::unique_ptr<BytePipe> MakeSocketPipe();

}  // namespace dcart::resilience
