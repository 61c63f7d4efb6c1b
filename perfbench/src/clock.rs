//! The benchmark's one wall-clock source.
//!
//! Every timing in the benchmark starts from [`now`]; the clock is read
//! around calls into the program, never inside them, and no reading
//! feeds a decision.

use std::time::{Duration, Instant};

/// The monotonic clock.
pub fn now() -> Instant {
    // qdn-lint: allow(nondet-time, reason="benchmark timing around calls into the program; no reading reaches a decision")
    Instant::now()
}

/// `d` in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `d` in microseconds.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Runs `f` and returns its result with the wall time it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = now();
    let result = f();
    (result, start.elapsed())
}
