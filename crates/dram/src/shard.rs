//! Sharded DRAM driver for the lookahead-barrier parallel backend.
//!
//! [`ShardedDram`] temporarily takes ownership of a [`DramSim`]'s channels,
//! partitions them into contiguous [`ChannelGroup`]s, and advances busy
//! groups on a [`ShardPool`] worker each epoch while the caller overlaps
//! its own work. Everything else — admission, next-event merging,
//! completion draining — runs on the coordinator between epochs, against
//! the same per-channel code the serial model uses.
//!
//! Bit-identity with the serial model is structural, not re-sorted:
//!
//! - Channels are disjoint state; a channel advanced to horizon `H` by a
//!   worker performs exactly the scheduling decisions it would serially,
//!   because cross-channel coupling does not exist inside the DRAM model
//!   (channels share nothing but the config).
//! - Serial [`DramSim::advance`] retires completions by iterating channels
//!   in index order, each appending in its local retirement order. Groups
//!   hold contiguous ascending channel ranges and each group appends its
//!   channels' completions in that same order into a group-local outbox;
//!   concatenating outboxes in group index order therefore reproduces the
//!   serial completion sequence exactly.
//! - Idle groups still advance every epoch (inline on the coordinator —
//!   an idle channel's advance only bumps its scheduling frontier, which
//!   is cheaper than a condvar round trip but *must not be skipped*: a
//!   stale frontier would change the channel's `next_event` lower bound
//!   and with it the driver's horizon decisions).

use crate::channel::Channel;
use crate::DramSim;
use ptsim_common::{CancelToken, Cycle, RequestId};
use ptsim_event::{partition_even, EpochShard, ShardPool};

/// Hard cap on worker shards; beyond this, coordination cost dwarfs the
/// per-epoch channel work on any plausible host.
const MAX_GROUPS: usize = 64;

/// A contiguous run of DRAM channels advanced together by one worker.
pub struct ChannelGroup {
    channels: Vec<Channel>,
    /// Completions retired this epoch, in serial (channel-then-time) order.
    out: Vec<(RequestId, Cycle)>,
}

impl ChannelGroup {
    /// True while any member channel has queued or in-flight work.
    pub fn busy(&self) -> bool {
        self.channels.iter().any(Channel::busy)
    }
}

impl EpochShard for ChannelGroup {
    fn run_epoch(&mut self, horizon: Cycle) {
        for ch in &mut self.channels {
            ch.advance(horizon, &mut self.out);
        }
    }
}

/// A [`DramSim`] re-hosted on a shard pool for one parallel run.
///
/// Built with [`ShardedDram::new`] (which empties the source model's
/// channel list) and dismantled with [`ShardedDram::restore`] (which puts
/// the channels — and their accumulated stats — back).
pub struct ShardedDram {
    pool: ShardPool<ChannelGroup>,
    /// Channel index → (group, index within group).
    locate: Vec<(u32, u32)>,
    completed: Vec<(RequestId, Cycle)>,
    tx_bytes: u64,
    num_channels: u64,
}

impl ShardedDram {
    /// Takes `dram`'s channels and spreads them over at most `workers`
    /// groups (clamped to the channel count and an internal cap), each with
    /// a dedicated worker thread.
    pub fn new(dram: &mut DramSim, workers: usize) -> Self {
        let channels = std::mem::take(&mut dram.channels);
        let n = channels.len();
        let ranges = partition_even(n, workers.clamp(1, MAX_GROUPS));
        let mut locate = vec![(0u32, 0u32); n];
        for (g, range) in ranges.iter().enumerate() {
            for (local, ch) in range.clone().enumerate() {
                locate[ch] = (g as u32, local as u32);
            }
        }
        let mut channels = channels.into_iter();
        let groups = ranges
            .iter()
            .map(|r| ChannelGroup {
                channels: channels.by_ref().take(r.len()).collect(),
                out: Vec::new(),
            })
            .collect();
        ShardedDram {
            pool: ShardPool::new(groups),
            locate,
            completed: std::mem::take(&mut dram.completed),
            tx_bytes: dram.cfg.transaction_bytes,
            num_channels: dram.cfg.channels as u64,
        }
    }

    /// Number of worker groups actually created.
    pub fn groups(&self) -> usize {
        self.pool.len()
    }

    /// Arms cooperative cancellation on the underlying worker pool: once
    /// `token` fires, channel groups stop advancing (the run is unwinding;
    /// [`restore`](Self::restore) still returns every channel intact).
    pub fn set_cancel(&self, token: &CancelToken) {
        self.pool.set_cancel(token);
    }

    fn channel_of(&self, addr: u64) -> usize {
        ((addr / self.tx_bytes) % self.num_channels) as usize
    }

    /// Routes a request to its channel's home group; same admission rule
    /// (and `false`-on-full backpressure) as [`DramSim::try_enqueue`], and
    /// the same precondition: per channel, `now` is nondecreasing across
    /// admissions.
    pub fn try_enqueue(&mut self, req: crate::MemRequest, now: Cycle) -> bool {
        let (g, local) = self.locate[self.channel_of(req.addr)];
        self.pool.shard_mut(g as usize).channels[local as usize].try_enqueue(req, now)
    }

    /// Earliest future event over every channel — identical to the serial
    /// model's merge.
    pub fn next_event(&self) -> Option<Cycle> {
        (0..self.pool.len())
            .flat_map(|g| self.pool.shard(g).channels.iter())
            .filter_map(Channel::next_event)
            .min()
    }

    /// True if any channel holds queued or in-flight work.
    pub fn busy(&self) -> bool {
        (0..self.pool.len()).any(|g| self.pool.shard(g).busy())
    }

    /// Moves this epoch's completions (serial order) into `out`.
    pub fn drain_completions_into(&mut self, out: &mut Vec<(RequestId, Cycle)>) {
        out.append(&mut self.completed);
    }

    /// Advances every channel to `to`, running busy groups on their worker
    /// threads while `overlap` executes on the calling thread. On return,
    /// completions are merged in serial order and every channel is back
    /// under coordinator ownership.
    pub fn advance_overlapped(&mut self, to: Cycle, overlap: impl FnOnce()) {
        // Idle groups advance inline: no completions are possible (nothing
        // queued or in flight), only the scheduling frontier moves.
        for g in 0..self.pool.len() {
            if !self.pool.shard(g).busy() {
                self.pool.shard_mut(g).run_epoch(to);
            }
        }
        self.pool.run_epoch_where(to, ChannelGroup::busy, overlap);
        for g in 0..self.pool.len() {
            let group = self.pool.shard_mut(g);
            self.completed.append(&mut group.out);
        }
    }

    /// Convenience serial-thread advance (used by tests): identical to
    /// [`advance_overlapped`](Self::advance_overlapped) with no overlap.
    pub fn advance(&mut self, to: Cycle) {
        self.advance_overlapped(to, || {});
    }

    /// Returns the channels (with their stats) and any undrained
    /// completions to `dram`, stopping all workers.
    pub fn restore(mut self, dram: &mut DramSim) {
        for group in self.pool.into_shards() {
            for ch in group.channels {
                dram.channels.push(ch);
            }
            // Normally empty (merged each epoch), but never drop work.
            debug_assert!(group.out.is_empty());
            self.completed.extend(group.out);
        }
        dram.completed.append(&mut self.completed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemRequest;
    use ptsim_common::config::DramConfig;
    use ptsim_common::RequestId;
    use ptsim_event::CompletionSource;

    fn cfg(channels: usize) -> DramConfig {
        DramConfig { channels, ..DramConfig::hbm2_tpu_v3() }
    }

    /// A deterministic pseudo-random request stream (SplitMix64-ish).
    fn mix(x: u64) -> u64 {
        let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Drives the same scripted workload through a serial `DramSim` and a
    /// `ShardedDram` with `workers` groups; returns both completion logs.
    #[allow(clippy::type_complexity)]
    fn race(
        channels: usize,
        workers: usize,
    ) -> (Vec<(RequestId, Cycle)>, Vec<(RequestId, Cycle)>, crate::DramStats, crate::DramStats)
    {
        let c = cfg(channels);
        let mut serial = DramSim::new(&c, 940.0);
        let mut donor = DramSim::new(&c, 940.0);
        let mut sharded = ShardedDram::new(&mut donor, workers);

        let mut serial_log = Vec::new();
        let mut sharded_log = Vec::new();
        let mut now = Cycle::ZERO;
        for step in 0..400u64 {
            // A burst of requests, addresses scattered over channels/rows.
            for i in 0..3u64 {
                let r = mix(step * 31 + i);
                let addr = (r % 4096) * 64;
                let id = RequestId::new(step * 8 + i);
                let req = if r & 1 == 0 {
                    MemRequest::read(id, addr, 64, (r % 4) as u32)
                } else {
                    MemRequest::write(id, addr, 64, (r % 4) as u32)
                };
                let a = serial.try_enqueue(req, now);
                let b = sharded.try_enqueue(req, now);
                assert_eq!(a, b, "admission diverged at step {step}");
            }
            // Advance both to the same (varying) horizon.
            now = now + 1 + mix(step) % 37;
            serial.advance(now);
            sharded.advance(now);
            serial.drain_completions_into(&mut serial_log);
            sharded.drain_completions_into(&mut sharded_log);
        }
        // Drain the tail.
        now += 1_000_000;
        serial.advance(now);
        sharded.advance(now);
        serial.drain_completions_into(&mut serial_log);
        sharded.drain_completions_into(&mut sharded_log);

        let mut rest = DramSim::new(&c, 940.0);
        rest.channels.clear();
        sharded.restore(&mut rest);
        (serial_log, sharded_log, serial.stats(), rest.stats())
    }

    #[test]
    fn one_worker_matches_serial_exactly() {
        let (s, p, ss, ps) = race(4, 1);
        assert_eq!(s, p);
        assert_eq!(ss, ps);
    }

    #[test]
    fn per_channel_groups_match_serial_exactly() {
        let (s, p, ss, ps) = race(4, 4);
        assert_eq!(s, p);
        assert_eq!(ss, ps);
    }

    #[test]
    fn uneven_groups_match_serial_exactly() {
        // 4 channels over 3 workers: groups of 2/1/1.
        let (s, p, _, _) = race(4, 3);
        assert_eq!(s, p);
    }

    #[test]
    fn more_workers_than_channels_collapses_groups() {
        let c = cfg(2);
        let mut donor = DramSim::new(&c, 940.0);
        let sharded = ShardedDram::new(&mut donor, 16);
        assert_eq!(sharded.groups(), 2);
        sharded.restore(&mut donor);
        let (s, p, _, _) = race(2, 16);
        assert_eq!(s, p);
    }

    #[test]
    fn restore_round_trips_channels_and_stats() {
        let c = cfg(4);
        let mut dram = DramSim::new(&c, 940.0);
        let mut sharded = ShardedDram::new(&mut dram, 2);
        for i in 0..16u64 {
            sharded.try_enqueue(MemRequest::read(RequestId::new(i), i * 64, 64, 0), Cycle::ZERO);
        }
        sharded.advance(Cycle::new(1_000_000));
        sharded.restore(&mut dram);
        // Channels are back, completions retrievable through the serial API.
        assert_eq!(dram.pop_completed().len(), 16);
        assert_eq!(dram.stats().reads, 16);
        assert!(!dram.busy());
    }

    #[test]
    fn zero_workers_clamps_to_one_group() {
        let c = cfg(3);
        let mut donor = DramSim::new(&c, 940.0);
        let sharded = ShardedDram::new(&mut donor, 0);
        assert_eq!(sharded.groups(), 1);
        sharded.restore(&mut donor);
    }
}
