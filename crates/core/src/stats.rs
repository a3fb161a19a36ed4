//! Core-level instrumentation.

use nm_metrics::Counter;

/// Event counters of one communication core.
///
/// Used by tests (to assert protocol behaviour: did aggregation happen,
/// did the rendezvous path run) and by the bench harness (to attribute
/// overheads to lock counts and packet counts).
#[derive(Debug, Default)]
pub struct CoreStats {
    /// `isend` calls.
    pub sends_posted: Counter,
    /// `irecv` calls.
    pub recvs_posted: Counter,
    /// Messages sent through the eager path.
    pub eager_sent: Counter,
    /// Messages sent through the rendezvous path.
    pub rdv_started: Counter,
    /// Wire packets injected.
    pub packets_tx: Counter,
    /// Wire packets received.
    pub packets_rx: Counter,
    /// Packets that carried more than one entry (aggregation hits).
    pub aggregated_packets: Counter,
    /// Eager messages that arrived before their receive was posted.
    pub unexpected_msgs: Counter,
    /// Rendezvous CTS sent (receiver side handshakes).
    pub rdv_accepted: Counter,
    /// Progression passes executed.
    pub progress_passes: Counter,
    /// Undecodable or unmatchable wire packets (protocol errors).
    pub wire_errors: Counter,
    /// Frames dropped for a CRC mismatch (corrupted in transit). Only a
    /// reliable lane seals its frames; an unreliable one computes no
    /// checksum, so this stays 0 on an unreliable core.
    pub corrupt_dropped: Counter,
    /// Frames retransmitted, whatever provoked the resend (an ack
    /// timeout or the peer's gap report). Counts resends the NIC
    /// accepted, not attempts it refused.
    pub retransmits: Counter,
    /// The subset of `retransmits` sent at once on a gap report (an
    /// ack-only frame naming the head of the window with at least three
    /// frames behind it) instead of after the timeout.
    pub fast_retransmits: Counter,
    /// Acknowledgement-only frames injected.
    pub acks_tx: Counter,
    /// Duplicate frames suppressed by the receive window.
    pub dup_dropped: Counter,
    /// Frames received out of wire order and buffered for resequencing.
    pub ooo_buffered: Counter,
    /// Rails declared dead after consecutive retransmit exhaustions.
    pub rails_failed: Counter,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_start_at_zero() {
        let s = CoreStats::default();
        assert_eq!(s.sends_posted.get(), 0);
        assert_eq!(s.packets_tx.get(), 0);
        s.sends_posted.incr();
        assert_eq!(s.sends_posted.get(), 1);
    }
}
