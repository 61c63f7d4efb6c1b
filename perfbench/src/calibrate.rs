//! Machine-speed calibration.
//!
//! A small virtual machine on a shared host changes speed by up to 2×
//! over seconds to minutes, and a thread's CPU time tracks its wall time,
//! so neither clock alone separates a slower program from a slower
//! machine. The benchmark therefore times a fixed reference computation
//! next to the work it measures, while the program is idle, on as many
//! threads as that work keeps busy: one for the serve workloads (pinned
//! to one CPU) and for set-up, two for the reproduction's trial fan-out.
//! The reference is part of the benchmark and calls nothing in the
//! program.
//!
//! A timing `t` measured next to reference samples `r` is reported as
//! `t · REFERENCE_MS / median(r)`: the time the work takes on a machine
//! that runs the reference in exactly [`REFERENCE_MS`]. A change to the
//! program moves the scaled time; a change in the machine's speed moves
//! `t` and `r` together and cancels.

use std::hint::black_box;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

use crate::clock;
use crate::stats;

/// The reference's wall time on the machine the scaled timings are
/// expressed for. A 2-vCPU Intel Xeon at 2.1 GHz takes 1.0 to 1.3 ms
/// per sample on one thread, so scaled timings read close to its own.
pub const REFERENCE_MS: f64 = 1.0;

/// Seed of the reference computation (through `black_box`, so the
/// compiler cannot fold it).
const SEED: u64 = 0x5eed_ca11_b4a7_e000;

/// The reference computation: a branchy random walk over a 128 KiB
/// table, a float sort, ordered-map inserts and string formatting, the
/// kinds of work the program's decisions and codecs do.
fn reference(seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut table = vec![0u32; 1 << 15];
    let mut acc = 0u64;
    for i in 0..100_000u32 {
        let r = next();
        let slot = &mut table[(r as usize) & ((1 << 15) - 1)];
        *slot = slot.wrapping_add(i);
        if *slot & 1 == 0 {
            acc = acc.wrapping_add(u64::from(*slot));
        } else {
            acc ^= r;
        }
    }
    let mut keyed: Vec<(u32, f64)> = (0..6000u32)
        .map(|i| (i, (next() >> 11) as f64 / (1u64 << 53) as f64))
        .collect();
    keyed.sort_by(|a, b| a.1.total_cmp(&b.1));
    let map: std::collections::BTreeMap<u32, f64> = keyed
        .iter()
        .take(3000)
        .map(|&(i, f)| (i, f.sqrt()))
        .collect();
    let mut text = String::new();
    for (k, f) in map.iter().take(800) {
        text.push_str(&format!("{k}:{f:.6},"));
    }
    acc ^ map.values().sum::<f64>().to_bits() ^ text.len() as u64
}

/// Runs the reference on the calling thread, and with two threads on a
/// helper thread at the same time.
pub struct Calibrator {
    helper: Option<Helper>,
}

const GONE: &str = "calibration thread is gone";

struct Helper {
    go: Sender<()>,
    done: Receiver<()>,
    thread: JoinHandle<()>,
}

impl Calibrator {
    /// A calibrator for work that keeps `threads` (1 or 2) threads busy.
    pub fn new(threads: usize) -> Result<Calibrator, String> {
        if threads < 2 {
            return Ok(Calibrator { helper: None });
        }
        let (go, wake) = channel::<()>();
        let (finished, done) = channel::<()>();
        let thread = std::thread::Builder::new()
            .name("perfbench-calibrate".into())
            .spawn(move || {
                while wake.recv().is_ok() {
                    black_box(reference(black_box(SEED)));
                    if finished.send(()).is_err() {
                        break;
                    }
                }
            })
            .map_err(|e| format!("spawn calibration thread: {e}"))?;
        Ok(Calibrator {
            helper: Some(Helper { go, done, thread }),
        })
    }

    /// One reference sample: ms until every thread is done.
    pub fn sample(&self) -> Result<f64, String> {
        let start = clock::now();
        if let Some(helper) = &self.helper {
            helper.go.send(()).map_err(|_| GONE.to_string())?;
        }
        black_box(reference(black_box(SEED)));
        if let Some(helper) = &self.helper {
            helper.done.recv().map_err(|_| GONE.to_string())?;
        }
        Ok(clock::ms(start.elapsed()))
    }

    /// `n` samples.
    pub fn samples(&self, n: usize) -> Result<Vec<f64>, String> {
        (0..n).map(|_| self.sample()).collect()
    }
}

impl Drop for Calibrator {
    fn drop(&mut self) {
        if let Some(Helper { go, thread, .. }) = self.helper.take() {
            // Closing the channel ends the helper's loop.
            drop(go);
            let _ = thread.join();
        }
    }
}

/// The factor that scales a timing measured next to `samples` to the
/// reference machine.
pub fn scale(samples: &[f64]) -> f64 {
    REFERENCE_MS / stats::median(samples)
}
