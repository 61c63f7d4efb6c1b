// True negatives for raw-spawn (D3): pool submission, non-spawning
// `thread::` items, quoted/commented mentions, and lookalike paths.
use std::thread;

// A comment mentioning thread::spawn or thread::Builder is not a finding.

fn on_the_pool(n: usize) -> Vec<u64> {
    threadpool::global_with(2).map_indexed(n, |i| i as u64 * 2)
}

fn join(handle: thread::JoinHandle<u64>) -> u64 {
    handle.join().unwrap_or(0)
}

fn park_briefly() {
    thread::yield_now();
    thread::sleep(std::time::Duration::from_millis(1));
}

fn quoted() -> &'static str {
    "thread::spawn and thread::scope and thread::Builder"
}

std::thread_local! {
    static SCRATCH: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

fn long_lived_owner() -> std::io::Result<thread::JoinHandle<()>> {
    // qdn-lint: allow(raw-spawn, reason="long-lived state-owner thread, not decision-path parallelism")
    thread::Builder::new().name("owner".into()).spawn(|| {})
}
