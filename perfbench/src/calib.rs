//! Host-speed calibration.
//!
//! The benchmark runs on shared hosts whose speed moves by up to 2× for
//! minutes at a time. The slowdown is in the memory hierarchy: steal
//! time stays near zero and a pure-ALU loop barely slows, while the
//! co-simulation, which chases pointers through a few MB of freshly
//! allocated objects, slows the most. A run's medians follow that host
//! state, so two sets of runs of the same code can disagree by more than
//! any useful bound.
//!
//! A [`Probe`] is a fixed amount of work of the same kind that runs none
//! of the program's code: hash-map updates that allocate and free small
//! vectors, then a strided walk over boxed records, some 4 MB in all,
//! every byte freed before the sample ends. The benchmark samples it
//! right after every pass, and scales each timing of that pass by
//! `REFERENCE_NS / sample`: the time the operation would have taken on a
//! host where the probe takes [`REFERENCE_NS`]. Medians over the run are
//! then taken of the scaled timings. The raw figures and the probe are
//! printed beside the scaled ones.

use std::collections::HashMap;
use std::time::Instant;

/// Probe time the scaled timings are expressed against: roughly the
/// probe's median on an uncontended 2.0 GHz Xeon vCPU.
pub const REFERENCE_NS: f64 = 4.0e6;

/// Distinct keys of the probe's hash map.
const KEYS: u64 = 1 << 16;
/// Map updates per sample.
const UPDATES: u64 = 20_000;
/// Boxed records walked per sample, and walks over them.
const RECORDS: usize = 30_000;
const WALKS: usize = 4;

#[derive(Default)]
pub struct Probe {
    samples: Vec<f64>,
}

impl Probe {
    /// Runs the probe once and records its wall time.
    pub fn sample(&mut self) {
        let t = Instant::now();
        let acc = work();
        self.samples.push(t.elapsed().as_nanos() as f64);
        std::hint::black_box(acc);
    }

    /// The recorded probe times in ns, in sampling order.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// The probe's work, the same on every call.
fn work() -> u64 {
    let (mut x, mut acc) = (0x9e37_79b9_7f4a_7c15_u64, 0u64);
    let mut map: HashMap<u64, Vec<u64>> = HashMap::new();
    for i in 0..UPDATES {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let bucket = map.entry(x % KEYS).or_default();
        bucket.push(i ^ x);
        if bucket.len() > 2 {
            let drained: Vec<u64> = bucket.drain(..).collect();
            acc = acc.wrapping_add(drained.iter().sum::<u64>());
        }
    }
    let mut records: Vec<Box<[u64; 4]>> = (0..RECORDS as u64)
        .map(|i| Box::new([i, i + 1, acc, x]))
        .collect();
    for walk in 0..WALKS {
        for k in 0..RECORDS {
            let r = &mut records[(k * 7919 + walk) % RECORDS];
            r[0] = r[0].wrapping_add(r[2] ^ r[3]);
            acc ^= r[0];
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_keeps_one_sample_per_call() {
        let mut p = Probe::default();
        assert!(p.samples().is_empty());
        for _ in 0..3 {
            p.sample();
        }
        assert_eq!(p.samples().len(), 3);
        assert!(p.samples().iter().all(|&ns| ns > 0.0));
    }

    #[test]
    fn probe_work_is_the_same_on_every_call() {
        assert_eq!(work(), work());
    }
}
