//! A fixed CPU reference kernel, independent of the engine, timed between
//! rounds on the workload's own threads. Its time tracks how fast the
//! machine runs the benchmark's code at that moment (a shared 2-vCPU VM
//! slows by up to 2× for minutes at a time), so every timing can be
//! reported beside it.

use crate::stats::Samples;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The reference kernel: ordered-map inserts and probes, string
/// formatting and a sort — the kind of work the engine's executor does.
pub fn kernel() -> u64 {
    let mut x = 0x9e37_79b9_u64;
    let mut next = || {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        x >> 17
    };
    let mut map = BTreeMap::new();
    for i in 0..3000u64 {
        map.insert(next() % 50_000, i);
    }
    let mut acc = 0u64;
    for _ in 0..15_000 {
        if let Some(v) = map.get(&(next() % 50_000)) {
            acc = acc.wrapping_add(*v);
        }
    }
    let mut keys: Vec<String> =
        (0..1500).map(|_| format!("key-{:09}", next() % 1_000_000_000)).collect();
    keys.sort_unstable();
    acc.wrapping_add(keys[keys.len() / 2].len() as u64)
}

/// Times the kernel at most once per `every`.
#[derive(Debug)]
pub struct Calibrator {
    every: Duration,
    last: Option<Instant>,
    pub samples: Samples,
}

impl Calibrator {
    pub fn new(every: Duration) -> Calibrator {
        Calibrator { every, last: None, samples: Samples::default() }
    }

    /// Time the kernel once.
    pub fn sample(&mut self) {
        let t = Instant::now();
        black_box(kernel());
        self.samples.push(t.elapsed().as_secs_f64() * 1e6);
        self.last = Some(Instant::now());
    }

    /// Time the kernel if `every` has passed since the last sample.
    pub fn tick(&mut self) {
        if self.last.is_none_or(|l| l.elapsed() >= self.every) {
            self.sample();
        }
    }
}
