//! A modeled storage device for durability experiments.
//!
//! The WAL's cost model mirrors the NIC's: appends *serialize* through
//! one device. An append occupies the disk for a fixed setup cost plus
//! a bandwidth-proportional transfer time; an fsync adds a (much
//! larger) flush cost. [`DiskModel`] tracks the device's busy horizon
//! so concurrent appends queue exactly like frames on a TX path, and
//! returns the completion instant the caller should gate on (a durable
//! server holds each write ack until its group commit's fsync
//! completes). Every append is fsynced, as in `hts-wal`.

use crate::{Bandwidth, Nanos};

/// Physical characteristics of the modeled log device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskConfig {
    /// Fixed per-append setup cost (syscall + block allocation).
    pub append_latency: Nanos,
    /// Sequential write bandwidth of the device.
    pub write_bandwidth: Bandwidth,
    /// Cost of one fsync (flush + device cache barrier).
    pub fsync_latency: Nanos,
    /// Replay bandwidth at recovery (sequential read + apply).
    pub replay_bandwidth: Bandwidth,
}

impl DiskConfig {
    /// A commodity NVMe SSD: ~10 µs append setup, ~1 GB/s sequential
    /// writes, ~0.5 ms fsync (flush-to-media barrier), ~2 GB/s replay.
    pub fn nvme_ssd() -> Self {
        DiskConfig {
            append_latency: Nanos::from_micros(10),
            write_bandwidth: Bandwidth::gbps(8),
            fsync_latency: Nanos::from_micros(500),
            replay_bandwidth: Bandwidth::gbps(16),
        }
    }

    /// A spinning disk: ~50 µs setup, ~150 MB/s sequential writes, ~8 ms
    /// fsync (rotational latency + seek), ~300 MB/s replay.
    pub fn spinning_disk() -> Self {
        DiskConfig {
            append_latency: Nanos::from_micros(50),
            write_bandwidth: Bandwidth::mbps(1200),
            fsync_latency: Nanos::from_millis(8),
            replay_bandwidth: Bandwidth::mbps(2400),
        }
    }

    /// How long replaying a `bytes`-long log tail takes at recovery.
    pub fn replay_time(&self, bytes: u64) -> Nanos {
        self.replay_bandwidth.transmission_time(bytes as usize)
    }
}

impl Default for DiskConfig {
    fn default() -> Self {
        DiskConfig::nvme_ssd()
    }
}

/// The busy-horizon tracker: one device, FIFO appends.
///
/// # Examples
///
/// ```
/// use hts_sim::{DiskConfig, DiskModel, Nanos};
///
/// let mut disk = DiskModel::new(DiskConfig::nvme_ssd());
/// let first = disk.append(Nanos::ZERO, 4096);
/// // A second append issued at the same instant queues behind the first.
/// let second = disk.append(Nanos::ZERO, 4096);
/// assert!(second > first);
/// ```
#[derive(Debug, Clone)]
pub struct DiskModel {
    config: DiskConfig,
    free_at: Nanos,
    /// Total bytes appended (the log length, for replay-time modeling).
    appended_bytes: u64,
}

impl DiskModel {
    /// A fresh, idle device.
    pub fn new(config: DiskConfig) -> Self {
        DiskModel {
            config,
            free_at: Nanos::ZERO,
            appended_bytes: 0,
        }
    }

    /// The device's configuration.
    pub fn config(&self) -> &DiskConfig {
        &self.config
    }

    /// Bytes appended since creation (or the last [`truncate`](Self::truncate)).
    pub fn appended_bytes(&self) -> u64 {
        self.appended_bytes
    }

    /// Queues an append of `bytes` at `now` and its fsync, returning the
    /// instant it is durable.
    pub fn append(&mut self, now: Nanos, bytes: usize) -> Nanos {
        let start = self.free_at.max(now);
        let end = start
            + self.config.append_latency
            + self.config.write_bandwidth.transmission_time(bytes)
            + self.config.fsync_latency;
        self.free_at = end;
        self.appended_bytes += bytes as u64;
        end
    }

    /// Models log compaction: the replayable tail resets to `bytes`.
    pub fn truncate(&mut self, bytes: u64) {
        self.appended_bytes = bytes;
    }

    /// How long a restart spends replaying the current log tail.
    pub fn replay_time(&self) -> Nanos {
        self.config.replay_time(self.appended_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn appends_serialize_through_the_device() {
        let mut disk = DiskModel::new(DiskConfig::nvme_ssd());
        let a = disk.append(Nanos::ZERO, 1024);
        let b = disk.append(Nanos::ZERO, 1024);
        assert_eq!(b.as_nanos() - a.as_nanos(), a.as_nanos());
        // An append issued after the device idles starts fresh.
        let later = Nanos::from_millis(5);
        let c = disk.append(later, 1024);
        assert_eq!(c.as_nanos() - later.as_nanos(), a.as_nanos());
    }

    #[test]
    fn fsync_dominates_small_appends() {
        let cfg = DiskConfig::nvme_ssd();
        let mut disk = DiskModel::new(cfg);
        let done = disk.append(Nanos::ZERO, 64);
        let write = cfg.append_latency + cfg.write_bandwidth.transmission_time(64);
        assert_eq!(
            done.as_nanos() - write.as_nanos(),
            cfg.fsync_latency.as_nanos()
        );
        assert!(cfg.fsync_latency > write);
    }

    #[test]
    fn replay_time_tracks_log_length_and_compaction() {
        let mut disk = DiskModel::new(DiskConfig::nvme_ssd());
        assert_eq!(disk.replay_time(), Nanos::ZERO);
        for _ in 0..100 {
            disk.append(Nanos::ZERO, 64 * 1024);
        }
        let long = disk.replay_time();
        assert!(long > Nanos::ZERO);
        disk.truncate(64 * 1024);
        assert!(disk.replay_time() < long);
    }
}
