//! Golden-stream oracle for the DRAM scheduler.
//!
//! Drives `DramSim` with seeded traffic — sequential, bank-stride and
//! random addresses, mixed reads and writes, staggered nondecreasing
//! arrivals that land both behind and ahead of the scheduling frontier —
//! over FR-FCFS/FCFS × queue depth 4/32/128 × 1/4/16 channels, and pins
//! the FNV-1a of every configuration's `(RequestId, Cycle)` completion
//! stream and of its `DramStats` JSON. Any change to a scheduling decision,
//! a completion time or a statistic moves a pin.

use ptsim_common::config::{DramConfig, MemSchedulerPolicy};
use ptsim_common::fingerprint::{fnv1a, Fnv};
use ptsim_common::json::ToJson;
use ptsim_common::{Cycle, RequestId};
use ptsim_dram::{DramSim, MemRequest};

/// Requests per configuration.
const REQUESTS: u64 = 3000;

/// SplitMix64: a tiny seeded generator, so every build replays the same
/// stream without an RNG dependency.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Runs the seeded traffic through one configuration; returns the
/// completion-stream fingerprint, the stats-JSON fingerprint and the
/// completion count.
fn golden(policy: MemSchedulerPolicy, queue_depth: usize, channels: usize) -> (u64, u64, u64) {
    let cfg = DramConfig { channels, queue_depth, scheduler: policy, ..DramConfig::hbm2_tpu_v3() };
    let tx = cfg.transaction_bytes;
    let bank_stride =
        tx * channels as u64 * (cfg.row_bytes / tx) * cfg.banks_per_channel as u64 + tx;
    let mut rng = SplitMix64(channels as u64 * 1_000 + queue_depth as u64 * 10 + policy as u64);
    let mut dram = DramSim::new(&cfg, 940.0);
    let mut done = Vec::new();
    let (mut seq, mut strided) = (0u64, 0x40_0000u64);
    let mut arrival = 0u64;
    let mut horizon = 0u64;
    for i in 0..REQUESTS {
        let r = rng.next();
        let addr = match r % 3 {
            0 => {
                seq += tx;
                seq
            }
            1 => {
                strided += bank_stride;
                strided
            }
            _ => (rng.next() % (1 << 26)) & !(tx - 1),
        };
        let id = RequestId::new(i);
        let req = if (r >> 8).is_multiple_of(3) {
            MemRequest::write(id, addr, tx, (r >> 16) as u32 % 4)
        } else {
            MemRequest::read(id, addr, tx, (r >> 16) as u32 % 4)
        };
        // Bursts (gap 0) and spread-out arrivals, at the same offered load
        // per channel whatever the channel count.
        if (r >> 24) % 2 == 1 {
            arrival += (r >> 32) % (1 + 48 / channels as u64);
        }
        while !dram.try_enqueue(req, Cycle::new(arrival)) {
            // Backpressure: advance to the next event, then retry "now".
            horizon = dram.next_event().map_or(horizon + 1, Cycle::raw).max(horizon + 1);
            dram.advance(Cycle::new(horizon));
            done.extend(dram.pop_completed());
            arrival = arrival.max(horizon);
        }
        // Irregular horizons: some arrivals stay ahead of the frontier,
        // others land behind it.
        if (r >> 40).is_multiple_of(4) {
            horizon = horizon.max(arrival.saturating_sub(16)) + (r >> 48) % 40;
            dram.advance(Cycle::new(horizon));
            done.extend(dram.pop_completed());
        }
    }
    while dram.busy() {
        horizon = dram.next_event().map_or(horizon + 1, Cycle::raw).max(horizon + 1);
        dram.advance(Cycle::new(horizon));
        done.extend(dram.pop_completed());
    }
    let mut stream = Fnv::new();
    for (id, at) in &done {
        stream.write_u64(id.raw());
        stream.write_u64(at.raw());
    }
    (stream.finish(), fnv1a(dram.stats().to_json_string().as_bytes()), done.len() as u64)
}

#[test]
fn completion_streams_match_pins() {
    use MemSchedulerPolicy::{Fcfs, FrFcfs};
    // (policy, queue depth, channels, completion stream, stats JSON).
    #[rustfmt::skip]
    let pins: [(MemSchedulerPolicy, usize, usize, u64, u64); 18] = [
        (FrFcfs, 4, 1, 0x5e393e6b1f9f8c37, 0x48f89c1f0568b918),
        (FrFcfs, 4, 4, 0x6e871b7938593dac, 0xe2ca998747454e14),
        (FrFcfs, 4, 16, 0xd2f51898e82c4e54, 0xef8cd9b6b9a7634c),
        (FrFcfs, 32, 1, 0x6bf4c83804feb9da, 0xd1ba3926ec108ac5),
        (FrFcfs, 32, 4, 0xdef0c9495f676844, 0x53952213fee1aa6e),
        (FrFcfs, 32, 16, 0xc0e934d57384c0e6, 0xffaf4fb457c6c821),
        (FrFcfs, 128, 1, 0x12e292faedf95dc4, 0x15c85c23c2ade513),
        (FrFcfs, 128, 4, 0x4ca835565f1118e0, 0x1a6baed95b41de09),
        (FrFcfs, 128, 16, 0x3c7efbc8ebf614e9, 0xe14648578d03c873),
        (Fcfs, 4, 1, 0x0ed10e69e8c49af4, 0x8ff57e2cd9904e30),
        (Fcfs, 4, 4, 0xb0ab9996c4fce64e, 0x9afafe2703e039ea),
        (Fcfs, 4, 16, 0xb6dd526d490e914f, 0x635d80d481f318b6),
        (Fcfs, 32, 1, 0xd54393c5543c3f1d, 0x71b0a632ea78e447),
        (Fcfs, 32, 4, 0x0be2da446a9ddb5f, 0x167cc9fbdb10bcb3),
        (Fcfs, 32, 16, 0x8b60ed6dd39a7d02, 0x64eab969545ab14a),
        (Fcfs, 128, 1, 0x9527a4bf0c8c5856, 0x178dd4c4b9c197a4),
        (Fcfs, 128, 4, 0x184736fc967ffb6e, 0xaa9425668cd3d903),
        (Fcfs, 128, 16, 0x73897882c43c814c, 0x68b8990ad1dd0317),
    ];
    let mut mismatches = Vec::new();
    for (policy, depth, channels, want_stream, want_stats) in pins {
        let (stream, stats, n) = golden(policy, depth, channels);
        assert_eq!(n, REQUESTS, "{policy:?} q{depth} ch{channels}: lost completions");
        if (stream, stats) != (want_stream, want_stats) {
            mismatches.push(format!(
                "({policy:?}, {depth}, {channels}, 0x{stream:016x}, 0x{stats:016x}),"
            ));
        }
    }
    assert!(mismatches.is_empty(), "golden streams moved:\n{}", mismatches.join("\n"));
}
