//! A host-speed reference that shares no code with the stack under test.
//!
//! On a host whose cores are shared with other tenants (a two-core Xeon
//! VM, measured), the speed of a core drifts by up to 2× over minutes. A
//! short, fixed workload of the benchmark's own — formatting, allocation
//! and hashing, on one thread per core — is timed between slices of load,
//! so each slice's numbers can be read against the speed the host had
//! just then. The CPU time the hypervisor steals is read from the kernel
//! around each slice too, for the slices no speed reading can correct.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One unit of reference work: format 64 numbers, copy the bytes into a
/// fresh vector, and hash them.
fn unit(buf: &mut String, acc: &mut u64) {
    buf.clear();
    for i in 0..64u64 {
        let _ = write!(buf, "{},", acc.wrapping_add(i) % 100_003);
    }
    let bytes: Vec<u64> = buf.bytes().map(u64::from).collect();
    for x in black_box(bytes) {
        *acc = (*acc ^ x).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// CPU time the hypervisor has stolen from this machine, and all CPU
/// time, in clock ticks since boot: the `steal` column and the sum of the
/// first eight columns of the `cpu` line of `/proc/stat`. `None` where
/// that cannot be read.
#[must_use]
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    parse_cpu_ticks(stat.lines().next()?)
}

fn parse_cpu_ticks(line: &str) -> Option<(u64, u64)> {
    let mut fields = line.split_whitespace();
    if fields.next()? != "cpu" {
        return None;
    }
    let ticks: Vec<u64> = fields
        .take(8)
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    let &steal = ticks.get(7)?;
    Some((steal, ticks.iter().sum()))
}

/// The share of CPU time stolen between two [`cpu_ticks`] readings; 0
/// when either is missing or no tick passed.
#[must_use]
pub fn stolen_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

/// Reference units per second, summed over `threads` threads that each
/// run the reference for `window`.
#[must_use]
pub fn host_speed(threads: usize, window: Duration) -> f64 {
    let counts: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let mut buf = String::with_capacity(512);
                    let mut acc = t as u64;
                    let start = Instant::now();
                    let mut n = 0u64;
                    while start.elapsed() < window {
                        for _ in 0..16 {
                            unit(&mut buf, &mut acc);
                        }
                        n += 16;
                    }
                    black_box(acc);
                    n
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a reference thread panicked"))
            .collect()
    });
    counts.iter().sum::<u64>() as f64 / window.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_is_the_eighth_column_of_the_cpu_line() {
        let line = "cpu  100 5 50 800 10 0 5 30 7 0";
        assert_eq!(parse_cpu_ticks(line), Some((30, 1000)));
        assert_eq!(parse_cpu_ticks("cpu0 1 2 3 4 5 6 7 8"), None);
        assert_eq!(parse_cpu_ticks("cpu 1 2 3"), None);
        assert_eq!(
            stolen_share(Some((30, 1000)), Some((55, 1100))),
            0.25,
            "25 of 100 ticks stolen"
        );
        assert_eq!(stolen_share(None, Some((55, 1100))), 0.0);
    }
}
