//! Seeded payloads and the checker that verifies what was delivered.
//!
//! A [`Pool`] is built before the timed region from `--seed` and a flow
//! number; message `i` of the flow sends `pool.get(i)`. Each payload
//! starts with its sequence number (mixed with a per-flow key) and the
//! rest is a pseudo-random fill, so a delivered payload tells which
//! message it was and whether a single byte changed. A [`Checker`]
//! follows one (gate, tag) flow and compares every delivered payload,
//! byte for byte, with the one that should arrive next.

use bytes::Bytes;

/// xorshift64*: the only randomness the benchmark uses.
fn next(state: &mut u64) -> u64 {
    *state ^= *state >> 12;
    *state ^= *state << 25;
    *state ^= *state >> 27;
    state.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Payloads of one flow, built once.
pub struct Pool {
    payloads: Vec<Bytes>,
}

impl Pool {
    /// `count` payloads of `size` bytes (at least 8) for flow `flow`.
    pub fn new(seed: u64, flow: u64, size: usize, count: usize) -> Pool {
        assert!(size >= 8 && count > 0);
        let key = {
            let mut s = seed ^ flow.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            next(&mut s)
        };
        let payloads = (0..count as u64)
            .map(|j| {
                let mut buf = Vec::with_capacity(size);
                buf.extend_from_slice(&(j ^ key).to_le_bytes());
                let mut s = key ^ j.wrapping_add(1).wrapping_mul(0xD1B5_4A32_D192_ED03) | 1;
                while buf.len() < size {
                    let word = next(&mut s).to_le_bytes();
                    let take = word.len().min(size - buf.len());
                    buf.extend_from_slice(&word[..take]);
                }
                Bytes::from(buf)
            })
            .collect();
        Pool { payloads }
    }

    /// The payload of the flow's `i`-th message (a reference-count bump).
    #[inline]
    pub fn get(&self, i: u64) -> Bytes {
        self.payloads[(i % self.payloads.len() as u64) as usize].clone()
    }

    /// Which message of the pool `data` is, if it is one, intact.
    fn position(&self, data: &[u8]) -> Option<usize> {
        self.payloads.iter().position(|p| p[..] == *data)
    }
}

/// What was wrong with the deliveries of one flow.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Failures {
    /// No payload where one was due (error, timeout, empty request).
    pub missing: u64,
    /// An intact payload of this flow, but not the one due next.
    pub out_of_order: u64,
    /// Bytes that match no payload of this flow.
    pub corrupt: u64,
}

impl Failures {
    pub fn total(&self) -> u64 {
        self.missing + self.out_of_order + self.corrupt
    }

    pub fn merged(self, other: Failures) -> Failures {
        Failures {
            missing: self.missing + other.missing,
            out_of_order: self.out_of_order + other.out_of_order,
            corrupt: self.corrupt + other.corrupt,
        }
    }
}

/// Verifies the deliveries of one (gate, tag) flow, in order.
pub struct Checker<'a> {
    pool: &'a Pool,
    next: u64,
    pub checked: u64,
    pub failures: Failures,
}

impl<'a> Checker<'a> {
    pub fn new(pool: &'a Pool) -> Self {
        Checker {
            pool,
            next: 0,
            checked: 0,
            failures: Failures::default(),
        }
    }

    /// Checks the flow's next delivery. `None` is a delivery that never
    /// produced a payload.
    pub fn check(&mut self, delivered: Option<&[u8]>) {
        let want = self.pool.get(self.next);
        self.next += 1;
        self.checked += 1;
        match delivered {
            None => self.failures.missing += 1,
            Some(got) if got == &want[..] => {}
            Some(got) => match self.pool.position(got) {
                Some(_) => self.failures.out_of_order += 1,
                None => self.failures.corrupt += 1,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_payloads_other_seed_other_payloads() {
        let a = Pool::new(7, 0, 64, 16);
        let b = Pool::new(7, 0, 64, 16);
        let c = Pool::new(8, 0, 64, 16);
        let d = Pool::new(7, 1, 64, 16);
        for i in 0..16 {
            assert_eq!(a.get(i), b.get(i));
            assert_ne!(a.get(i), c.get(i));
            assert_ne!(a.get(i), d.get(i));
        }
        assert_eq!(a.get(3), a.get(19), "the pool wraps");
        assert_eq!(Pool::new(1, 0, 13, 2).get(0).len(), 13);
    }

    #[test]
    fn in_order_intact_deliveries_pass() {
        let pool = Pool::new(1, 0, 8, 32);
        let mut c = Checker::new(&pool);
        for i in 0..100 {
            c.check(Some(&pool.get(i)));
        }
        assert_eq!(c.checked, 100);
        assert_eq!(c.failures.total(), 0);
    }

    #[test]
    fn swapped_and_corrupted_payloads_are_caught() {
        let pool = Pool::new(42, 3, 1024, 32);
        let mut c = Checker::new(&pool);
        c.check(Some(&pool.get(0)));
        // Messages 1 and 2 delivered in the wrong order.
        c.check(Some(&pool.get(2)));
        c.check(Some(&pool.get(1)));
        assert_eq!(c.failures.out_of_order, 2);
        // Message 3 with one bit flipped in the fill, far from the header.
        let mut bad = pool.get(3).to_vec();
        bad[700] ^= 0x01;
        c.check(Some(&bad));
        assert_eq!(c.failures.corrupt, 1);
        // Message 4 truncated, message 5 never delivered.
        c.check(Some(&pool.get(4)[..1000]));
        c.check(None);
        assert_eq!(
            c.failures,
            Failures {
                missing: 1,
                out_of_order: 2,
                corrupt: 2
            }
        );
        // The checker resynchronises: message 6 is fine again.
        c.check(Some(&pool.get(6)));
        assert_eq!(c.failures.total(), 5);
        assert_eq!(c.checked, 7);
    }
}
