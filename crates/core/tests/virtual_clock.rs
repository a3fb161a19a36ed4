//! A core runs on its drivers' clock: over a virtual-time fabric, request
//! deadlines and retransmit timeouts pass only when that clock is
//! advanced, never because wall-clock time went by. On that clock a
//! round trip is whatever the test scripts, so the retransmit timeout
//! estimated from round trips is pinned here to the nanosecond.

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;

use nm_core::{CommCore, CommError, CoreBuilder, CoreConfig, GateId, ReliabilityConfig, Request};
use nm_fabric::{ClockSource, Fabric, NodePorts, WireModel};

const G: GateId = GateId(0);

/// Two cores over one Myri-10G rail on a virtual clock, plus the ports
/// (for reaching a driver behind a core's back) and the clock.
fn virtual_pair(config: CoreConfig) -> (Arc<CommCore>, Arc<CommCore>, NodePorts, ClockSource) {
    let (fabric, clock) = Fabric::virtual_time();
    let (pa, pb) = fabric.pair(&[WireModel::myri_10g()], true);
    let a = CoreBuilder::new(config.clone())
        .add_gate(pa.drivers())
        .build();
    let b = CoreBuilder::new(config).add_gate(pb.drivers()).build();
    (a, b, pb, clock)
}

#[test]
fn a_request_deadline_passes_on_the_virtual_clock_only() {
    let (_a, b, _pb, clock) = virtual_pair(CoreConfig::default());
    let req = b.irecv(G, 7).unwrap();
    b.expire_after(&req, Duration::from_millis(1));

    std::thread::sleep(Duration::from_millis(20));
    for _ in 0..100 {
        b.progress();
    }
    assert!(!req.is_complete(), "expired on wall-clock time");

    clock.advance(1_000_000);
    b.progress();
    assert!(req.is_complete(), "deadline passed on the core's clock");
    assert_eq!(req.take_error(), Some(CommError::Timeout));
}

#[test]
fn a_lost_frame_is_resent_when_the_virtual_clock_passes_the_rto() {
    let reliability = ReliabilityConfig::enabled();
    let rto = reliability.rto_base_ns;
    let (a, b, pb, clock) = virtual_pair(CoreConfig::default().reliability(reliability));
    let recv = b.irecv(G, 1).unwrap();
    a.isend(G, 1, Bytes::from_static(b"once")).unwrap();
    a.progress();

    // The first data frame is lost: taken off the wire before `b` sees it.
    clock.advance(10_000);
    assert!(pb.sim_drivers()[0].nic().poll_recv_vci(0).is_some());

    std::thread::sleep(Duration::from_millis(20));
    for step in 0..=1_000u64 {
        clock.advance_to(10_000 + step * (rto - 1 - 10_000) / 1_000);
        a.progress();
        b.progress();
    }
    assert_eq!(clock.now_ns(), rto - 1);
    assert_eq!(a.stats().retransmits.get(), 0, "resent before the RTO");
    assert!(!recv.is_complete());

    clock.advance(1);
    a.progress();
    assert_eq!(a.stats().retransmits.get(), 1);
    clock.advance(10_000);
    b.progress();
    assert!(recv.is_complete());
    assert_eq!(recv.take_data().unwrap(), Bytes::from_static(b"once"));
    assert_eq!(a.stats().retransmits.get(), 1);
}

/// One message a → b whose round trip, as a measures it, is exactly
/// `rtt_ns`: a posts at the current virtual time, b takes the frame in
/// and acks it halfway through, and a takes the ack in at the end.
fn round_trip(a: &CommCore, b: &CommCore, clock: &ClockSource, rtt_ns: u64) {
    let t0 = clock.now_ns();
    let recv = b.irecv(G, 1).unwrap();
    a.isend(G, 1, Bytes::from_static(b"ping")).unwrap();
    a.progress();
    clock.advance_to(t0 + rtt_ns / 2);
    b.progress();
    assert!(
        recv.is_complete(),
        "the frame needs longer than {rtt_ns} / 2 ns"
    );
    clock.advance_to(t0 + rtt_ns);
    a.progress();
    assert_eq!(a.pending().unacked_frames, 0, "the ack needs longer");
}

/// Posts one message a → b and takes its frame off b's wire before b
/// sees it; returns the virtual time of the post and b's receive.
fn post_and_lose(
    a: &CommCore,
    b: &CommCore,
    pb: &NodePorts,
    clock: &ClockSource,
) -> (u64, Request) {
    let posted_at = clock.now_ns();
    let recv = b.irecv(G, 1).unwrap();
    a.isend(G, 1, Bytes::from_static(b"lost")).unwrap();
    a.progress();
    clock.advance(5_000);
    assert!(pb.sim_drivers()[0].nic().poll_recv_vci(0).is_some());
    (posted_at, recv)
}

/// Polls a at every µs up to 1 ns before `at` and checks nothing was
/// resent, then at `at` and checks that the lost frame was, once.
fn assert_resent_exactly_at(a: &CommCore, clock: &ClockSource, at: u64) {
    let before = a.stats().retransmits.get();
    while clock.now_ns() + 1_000 < at {
        clock.advance(1_000);
        a.progress();
    }
    clock.advance_to(at - 1);
    a.progress();
    assert_eq!(a.stats().retransmits.get(), before, "resent before {at} ns");
    clock.advance(1);
    a.progress();
    assert_eq!(
        a.stats().retransmits.get(),
        before + 1,
        "not resent at {at} ns"
    );
}

#[test]
fn the_rto_follows_the_measured_round_trips() {
    let reliability = ReliabilityConfig::enabled();
    assert_eq!(reliability.rto_base_ns, 20_000);
    let (a, b, pb, clock) = virtual_pair(CoreConfig::default().reliability(reliability));

    // First sample 10 µs: srtt 10 000, rttvar 5 000, RTO 30 000 ns.
    round_trip(&a, &b, &clock, 10_000);
    let (posted_at, recv) = post_and_lose(&a, &b, &pb, &clock);
    assert_resent_exactly_at(&a, &clock, posted_at + 30_000);
    clock.advance(5_000);
    b.progress();
    assert!(recv.is_complete());
    clock.advance(5_000);
    a.progress();
    assert_eq!(a.pending().unacked_frames, 0);

    // Karn's rule: that ack answered a resent frame and measured
    // nothing, so the next sample, 30 µs, is the second: rttvar
    // (3·5 000 + |10 000 − 30 000|) / 4 = 8 750, srtt (7·10 000 +
    // 30 000) / 8 = 12 500, RTO 12 500 + 4·8 750 = 47 500 ns. Had the
    // resent frame's 40 µs counted, the RTO would be 65 781 ns.
    round_trip(&a, &b, &clock, 30_000);
    let (posted_at, recv) = post_and_lose(&a, &b, &pb, &clock);
    assert_resent_exactly_at(&a, &clock, posted_at + 47_500);
    clock.advance(5_000);
    b.progress();
    assert_eq!(recv.take_data().unwrap(), Bytes::from_static(b"lost"));
    assert_eq!(a.stats().retransmits.get(), 2);
}

#[test]
fn a_measured_rto_below_the_floor_waits_for_rto_base_ns() {
    let reliability = ReliabilityConfig::enabled();
    let floor = reliability.rto_base_ns;
    let (a, b, pb, clock) = virtual_pair(CoreConfig::default().reliability(reliability));

    // One 6 µs sample: srtt + 4·rttvar = 6 000 + 4·3 000 = 18 000 ns,
    // under the 20 µs floor.
    round_trip(&a, &b, &clock, 6_000);
    let (posted_at, _recv) = post_and_lose(&a, &b, &pb, &clock);
    assert_resent_exactly_at(&a, &clock, posted_at + floor);
}

#[test]
#[should_panic(expected = "runs on a different clock")]
fn a_core_refuses_rails_on_two_clocks() {
    let (fabric, _clock) = Fabric::virtual_time();
    let (pa, _pb) = fabric.pair(&[WireModel::myri_10g()], true);
    let (real, _) = nm_fabric::LoopbackDriver::pair(4);
    let mut rails = pa.drivers();
    rails.push(Arc::new(real));
    CoreBuilder::new(CoreConfig::default())
        .add_gate(rails)
        .build();
}
