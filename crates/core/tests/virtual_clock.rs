//! A core runs on its drivers' clock: over a virtual-time fabric, request
//! deadlines and retransmit timeouts pass only when that clock is
//! advanced, never because wall-clock time went by.

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;

use nm_core::{CommCore, CommError, CoreBuilder, CoreConfig, GateId, ReliabilityConfig};
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
