//! Machine-speed calibration.
//!
//! The benchmark was built on a shared 2-core host. There, memory-bound code
//! ran up to 1.5× slower for minutes at a time while other tenants loaded
//! the caches and the memory bus, and a pure ALU loop moved only ~1.15×. No
//! median within a 25 s run removes a slow phase that lasts minutes.
//!
//! So each run also times a fixed loop owned by the benchmark: random-window
//! scans over a 100k-point grid, the access pattern of the program's LBS
//! queries and graph walks. The loop runs just before and just after each
//! measurement behind a wall-clock end-to-end metric, and the measurement
//! is scaled by the median of those passes against the loop's reference
//! time. Program changes cannot move the loop, so a faster program still
//! reads faster, and a slower machine no longer does. Raw values are
//! printed beside the scaled ones.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// Points and grid of the loop: about the program's population and density.
const POINTS: usize = 100_000;
const CELLS: usize = 316;
/// Windows of 9×9 cells, ~80 points each, per pass (~15 ms).
const WINDOWS: usize = 45_000;
const SPAN: usize = 9;
/// Seconds one pass takes on the reference machine in a quiet phase (the
/// 2-core Xeon sandbox the benchmark was tuned on). Scaled metrics read as
/// if measured at that speed.
pub const REFERENCE_S: f64 = 0.0125;

pub struct Calibration {
    /// Cell-sorted points; cell `c` holds `points[start[c]..start[c + 1]]`.
    start: Vec<u32>,
    points: Vec<(f64, f64)>,
    samples: Vec<f64>,
}

impl Calibration {
    /// Builds the loop's grid from a fixed xorshift stream (not timed).
    pub fn new() -> Calibration {
        let mut s = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let raw: Vec<(f64, f64)> = (0..POINTS).map(|_| (next(), next())).collect();
        let cell = |(x, y): (f64, f64)| {
            let c = |v: f64| ((v * CELLS as f64) as usize).min(CELLS - 1);
            c(y) * CELLS + c(x)
        };
        let mut start = vec![0u32; CELLS * CELLS + 1];
        for &p in &raw {
            start[cell(p) + 1] += 1;
        }
        for i in 1..start.len() {
            start[i] += start[i - 1];
        }
        let mut fill = start.clone();
        let mut points = vec![(0.0, 0.0); POINTS];
        for &p in &raw {
            let c = cell(p);
            points[fill[c] as usize] = p;
            fill[c] += 1;
        }
        Calibration {
            start,
            points,
            samples: Vec::new(),
        }
    }

    /// One pass: count the points within a radius of each window's centre.
    fn pass(&self) -> u64 {
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        let r2 = (SPAN as f64 / 2.0 / CELLS as f64).powi(2);
        let mut hits = 0u64;
        for _ in 0..WINDOWS {
            s = s
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let cx = (s >> 33) as usize % (CELLS - SPAN);
            let cy = (s >> 13) as usize % (CELLS - SPAN);
            let qx = (cx as f64 + SPAN as f64 / 2.0) / CELLS as f64;
            let qy = (cy as f64 + SPAN as f64 / 2.0) / CELLS as f64;
            for y in cy..cy + SPAN {
                let lo = self.start[y * CELLS + cx] as usize;
                let hi = self.start[y * CELLS + cx + SPAN] as usize;
                for &(x, yy) in &self.points[lo..hi] {
                    hits += u64::from((x - qx).powi(2) + (yy - qy).powi(2) <= r2);
                }
            }
        }
        hits
    }

    fn timed_pass(&mut self) -> f64 {
        let t = Instant::now();
        black_box(self.pass());
        let secs = t.elapsed().as_secs_f64();
        self.samples.push(secs);
        secs
    }

    /// Runs `measure` between calibration passes, two before and two after.
    /// Returns its result and how much slower than the reference the
    /// machine ran around it (> 1: slower): the median of the four passes
    /// over the reference. The machine flips between fast and slow states
    /// within a second, so one pass per side is too noisy an estimate.
    pub fn around<T>(&mut self, measure: impl FnOnce() -> T) -> (T, f64) {
        let mut passes = [self.timed_pass(), self.timed_pass(), 0.0, 0.0];
        let out = measure();
        passes[2] = self.timed_pass();
        passes[3] = self.timed_pass();
        (out, median(&passes) / REFERENCE_S)
    }

    /// Median pass time of this run, in seconds, for the provenance line.
    pub fn seconds(&self) -> f64 {
        median(&self.samples)
    }

    pub fn samples(&self) -> usize {
        self.samples.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_is_deterministic_and_brackets_the_measurement() {
        let mut c = Calibration::new();
        assert_eq!(c.pass(), c.pass());
        assert!(c.pass() > 0);
        let (out, factor) = c.around(|| 7);
        assert_eq!(out, 7);
        assert_eq!(c.samples(), 4);
        assert!(factor > 0.0);
    }
}
