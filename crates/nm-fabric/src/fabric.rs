//! Fabric builder: multi-node, multi-rail worlds.

use std::sync::Arc;

use crate::{ClockSource, Driver, SimNic, SimNicDriver, WireModel};

/// The drivers one node uses to reach one peer — one per rail.
///
/// NewMadeleine's multirail support distributes packets of one logical
/// message across several NICs; a `NodePorts` bundles the per-rail drivers
/// of a single peer connection (the paper's Fig 1 shows two drivers under
/// one transfer layer).
#[derive(Clone)]
pub struct NodePorts {
    rails: Vec<Arc<SimNicDriver>>,
}

impl NodePorts {
    /// Per-rail drivers, as the trait objects `nm-core` consumes.
    pub fn drivers(&self) -> Vec<Arc<dyn Driver>> {
        self.rails
            .iter()
            .map(|d| Arc::clone(d) as Arc<dyn Driver>)
            .collect()
    }

    /// Per-rail concrete drivers (for counter access in benches).
    pub fn sim_drivers(&self) -> &[Arc<SimNicDriver>] {
        &self.rails
    }

    /// Number of rails.
    pub fn num_rails(&self) -> usize {
        self.rails.len()
    }
}

/// Builder for simulated worlds.
pub struct Fabric {
    clock: ClockSource,
}

impl Fabric {
    /// A fabric stamping packets with the given clock.
    pub fn new(clock: ClockSource) -> Self {
        Fabric { clock }
    }

    /// A fabric on real (monotonic) time.
    pub fn real_time() -> Self {
        Self::new(ClockSource::real())
    }

    /// A fabric on a virtual clock (returned alongside for advancing).
    pub fn virtual_time() -> (Self, ClockSource) {
        let clock = ClockSource::manual();
        (Self::new(clock.clone()), clock)
    }

    /// The fabric clock.
    pub fn clock(&self) -> &ClockSource {
        &self.clock
    }

    /// Connects two nodes with one rail per wire model.
    ///
    /// `thread_safe_drivers = false` declares the paper's MX situation;
    /// the library serializes access to each driver context either way
    /// (see [`crate::DriverCaps::thread_safe`]).
    pub fn pair(&self, models: &[WireModel], thread_safe_drivers: bool) -> (NodePorts, NodePorts) {
        self.pair_vcis(models, thread_safe_drivers, 1)
    }

    /// Connects two nodes with one rail per wire model, every rail NIC
    /// carrying `n_vcis` independent VCI contexts (per-context tx/rx
    /// rings and completion polling — the Zambre-style dedicated
    /// communication endpoints).
    pub fn pair_vcis(
        &self,
        models: &[WireModel],
        thread_safe_drivers: bool,
        n_vcis: usize,
    ) -> (NodePorts, NodePorts) {
        assert!(!models.is_empty(), "at least one rail required");
        let mut a_rails = Vec::with_capacity(models.len());
        let mut b_rails = Vec::with_capacity(models.len());
        for (i, model) in models.iter().enumerate() {
            let (na, nb) =
                SimNic::pair_vcis(&format!("rail{i}"), *model, self.clock.clone(), n_vcis);
            a_rails.push(Arc::new(SimNicDriver::new(na, thread_safe_drivers)));
            b_rails.push(Arc::new(SimNicDriver::new(nb, thread_safe_drivers)));
        }
        (NodePorts { rails: a_rails }, NodePorts { rails: b_rails })
    }

    /// Builds a fully connected world of `n` nodes, one rail per model
    /// between every unordered pair.
    ///
    /// Returns `ports[i][j]`: the ports node `i` uses to reach node `j`
    /// (`None` on the diagonal).
    pub fn clique(
        &self,
        n: usize,
        models: &[WireModel],
        thread_safe_drivers: bool,
    ) -> Vec<Vec<Option<NodePorts>>> {
        let mut ports: Vec<Vec<Option<NodePorts>>> =
            (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
        #[allow(clippy::needless_range_loop)] // i/j index two rows symmetrically
        for i in 0..n {
            for j in (i + 1)..n {
                let (pi, pj) = self.pair(models, thread_safe_drivers);
                ports[i][j] = Some(pi);
                ports[j][i] = Some(pj);
            }
        }
        ports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    #[test]
    fn pair_connects_both_ways() {
        let (fabric, clock) = Fabric::virtual_time();
        let (a, b) = fabric.pair(&[WireModel::ideal()], true);
        assert_eq!(a.num_rails(), 1);
        a.drivers()[0]
            .post_vci(0, Bytes::from_static(b"hi"))
            .unwrap();
        clock.advance(1);
        assert_eq!(
            b.drivers()[0].poll_vci(0),
            Some(Bytes::from_static(b"hi").into())
        );
        b.drivers()[0]
            .post_vci(0, Bytes::from_static(b"yo"))
            .unwrap();
        assert_eq!(
            a.drivers()[0].poll_vci(0),
            Some(Bytes::from_static(b"yo").into())
        );
    }

    #[test]
    fn multirail_pair_has_independent_rails() {
        let (fabric, _clock) = Fabric::virtual_time();
        let models = [WireModel::ideal(), WireModel::ideal()];
        let (a, b) = fabric.pair(&models, true);
        assert_eq!(a.num_rails(), 2);
        a.drivers()[0]
            .post_vci(0, Bytes::from_static(b"r0"))
            .unwrap();
        a.drivers()[1]
            .post_vci(0, Bytes::from_static(b"r1"))
            .unwrap();
        assert_eq!(
            b.drivers()[0].poll_vci(0),
            Some(Bytes::from_static(b"r0").into())
        );
        assert_eq!(
            b.drivers()[1].poll_vci(0),
            Some(Bytes::from_static(b"r1").into())
        );
    }

    #[test]
    fn pair_vcis_wires_matching_contexts() {
        let (fabric, _clock) = Fabric::virtual_time();
        let (a, b) = fabric.pair_vcis(&[WireModel::ideal()], true, 3);
        let (da, db) = (&a.drivers()[0], &b.drivers()[0]);
        assert_eq!(da.num_vcis(), 3);
        da.post_vci(1, Bytes::from_static(b"v1")).unwrap();
        da.post_vci(2, Bytes::from_static(b"v2")).unwrap();
        assert_eq!(db.poll_vci(0), None);
        assert_eq!(db.poll_vci(1), Some(Bytes::from_static(b"v1").into()));
        assert_eq!(db.poll_vci(2), Some(Bytes::from_static(b"v2").into()));
    }

    #[test]
    fn clique_full_connectivity() {
        let (fabric, clock) = Fabric::virtual_time();
        let ports = fabric.clique(3, &[WireModel::ideal()], true);
        #[allow(clippy::needless_range_loop)] // i/j double-index the matrix
        for i in 0..3 {
            assert!(ports[i][i].is_none());
            for j in 0..3 {
                if i == j {
                    continue;
                }
                let msg = Bytes::from(format!("{i}->{j}"));
                ports[i][j].as_ref().unwrap().drivers()[0]
                    .post_vci(0, msg.clone())
                    .unwrap();
                clock.advance(1);
                assert_eq!(
                    ports[j][i].as_ref().unwrap().drivers()[0].poll_vci(0),
                    Some(msg.into())
                );
            }
        }
    }
}
