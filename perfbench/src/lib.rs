//! The repository benchmark: host time of a DRAM-variant sweep (one
//! DRAM-bound and one issue-bound point among them) and of uncached
//! `ptsim-serve`, each measured from outside by timing calls into the
//! public API (see `README.md` in this directory).
//!
//! The library half holds everything the self-tests exercise; `main.rs`
//! only sequences the workloads and prints.

pub mod metrics;
pub mod serve;
pub mod sim;
pub mod stats;

/// SplitMix64: the benchmark's only random source. A seed names one
/// stream on every host and build.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream starting at `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this one),
/// in MiB, or `None` where `/proc` is unavailable.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Worker threads the host offers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
