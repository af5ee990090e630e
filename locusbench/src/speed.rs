//! The host's momentary speed, from a fixed unit of reference work timed
//! between operations.
//!
//! The hosts this runs on share their CPUs: the same pure loop took
//! anywhere from 0.37 s to 0.73 s from one second to the next on the
//! reference host. Host times are therefore reported *normalised*: each
//! raw time is multiplied by [`NOMINAL_REF_NS`] over the reference work's
//! recent median time, i.e. expressed at the speed the host had when the
//! nominal figure was taken. A change to the program moves the raw times
//! and not the reference work, so it shows in full.
//!
//! The reference work is the kind of work the simulator spends its time
//! on: a breadth-first search over a dense link matrix and an ordered map
//! with string keys. Over 80 one-second windows of 256-site reads on the
//! reference host, raw time per read varied with a coefficient of
//! variation of 0.14; divided by this work's time it varied by 0.04. A
//! 5 µs map-and-allocation loop tracked the host only half as strongly
//! and left 0.14.

use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// Reference-work time on the reference host when it ran undisturbed
/// (the 10th percentile of many samples), ns.
pub const NOMINAL_REF_NS: f64 = 50_000.0;

/// Recent samples the speed estimate is the median of.
const WINDOW: usize = 15;

/// Raw time between two speed samples.
const SAMPLE_EVERY_NS: u128 = 5_000_000;

/// Sites in the reference link matrix.
const REF_SITES: usize = 128;

fn reference_work(links: &[bool]) -> usize {
    let mut seen = [false; REF_SITES];
    let mut queue = VecDeque::from([0]);
    seen[0] = true;
    while let Some(u) = queue.pop_front() {
        for v in 0..REF_SITES {
            if links[u * REF_SITES + v] && !seen[v] {
                seen[v] = true;
                queue.push_back(v);
            }
        }
    }
    let mut map = BTreeMap::new();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in 0..128u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(format!("k{}", x % 1024), i);
    }
    let hits = (0..256)
        .filter(|k| map.contains_key(&format!("k{k}")))
        .count();
    hits + seen.iter().filter(|&&s| s).count()
}

/// A clock of normalised host time: raw time since the last reading,
/// scaled by nominal over the median of the recent reference samples.
/// The samples themselves are kept off the clock.
pub struct HostClock {
    links: Vec<bool>,
    recent: VecDeque<f64>,
    scale: f64,
    last: Instant,
    last_sample: Instant,
    norm_ns: f64,
}

impl Default for HostClock {
    fn default() -> Self {
        let mut c = HostClock {
            links: vec![true; REF_SITES * REF_SITES],
            recent: VecDeque::new(),
            scale: 1.0,
            last: Instant::now(),
            last_sample: Instant::now(),
            norm_ns: 0.0,
        };
        for _ in 0..WINDOW {
            let t = c.reference_ns();
            c.recent.push_back(t);
        }
        c.rescale();
        c.last = Instant::now();
        c
    }
}

impl HostClock {
    /// Times one unit of reference work, ns.
    fn reference_ns(&self) -> f64 {
        let t0 = Instant::now();
        black_box(reference_work(black_box(&self.links)));
        t0.elapsed().as_nanos() as f64
    }

    fn rescale(&mut self) {
        let mut v: Vec<f64> = self.recent.iter().copied().collect();
        self.scale = NOMINAL_REF_NS / median(&mut v);
    }

    /// Normalised nanoseconds since the clock started.
    pub fn now_ns(&mut self) -> f64 {
        let now = Instant::now();
        self.norm_ns += (now - self.last).as_nanos() as f64 * self.scale;
        self.last = now;
        self.norm_ns
    }

    /// Takes a reference sample if enough raw time has passed since the
    /// last one.
    pub fn maybe_sample(&mut self) {
        if self.last_sample.elapsed().as_nanos() < SAMPLE_EVERY_NS {
            return;
        }
        self.now_ns();
        if self.recent.len() == WINDOW {
            self.recent.pop_front();
        }
        let t = self.reference_ns();
        self.recent.push_back(t);
        self.rescale();
        self.last = Instant::now();
        self.last_sample = self.last;
    }
}
