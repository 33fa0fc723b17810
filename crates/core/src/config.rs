//! Protocol configuration and ablation flags.

/// How a server multiplexes its own new writes with forwarded ring traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FairnessMode {
    /// The paper's rule (§3 lines 53–75): per-origin forwarded-message
    /// counters; the origin with the fewest forwarded messages goes next
    /// (the local server competes as its own origin). Guarantees every
    /// origin a fair share of the ring and thus write liveness.
    #[default]
    Fair,
    /// Always initiate a local write when one is queued, otherwise forward
    /// in arrival order. Under sustained local load this starves the ring —
    /// the failure mode the paper's fairness rule exists to prevent
    /// (ablation A3).
    LocalFirst,
    /// Always forward queued ring traffic before initiating local writes.
    /// Under sustained ring load local clients starve.
    ForwardFirst,
}

/// Whether a server persists its committed writes.
///
/// The paper's model is crash-**stop**: server state lives in RAM and a
/// crash is forever. [`SyncAlways`](Durability::SyncAlways) upgrades
/// the system to crash-**recovery** — each step's committed
/// `(tag, value)` pairs are handed out by [`LaneCore::take_commits`] for
/// the runtime to log (`hts-net` appends them to an `hts-wal` log, the
/// simulator to its modeled disk), every append is fsynced before the
/// step's acks and ring batches leave, and a restarted server rebuilds
/// from that log and rejoins the ring.
///
/// [`LaneCore::take_commits`]: crate::LaneCore::take_commits
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// No persistence — the paper's crash-stop model (default).
    #[default]
    Volatile,
    /// Log committed writes; fsync before the client sees the ack and
    /// before the commit is forwarded around the ring.
    SyncAlways,
}

impl Durability {
    /// Whether committed writes are logged at all.
    pub fn is_persistent(self) -> bool {
        !matches!(self, Durability::Volatile)
    }
}

/// How ring frames coalesce into batches on their way to the wire.
///
/// The ring's throughput headline rests on each server talking to one
/// successor — but shipping one frame per TCP write (and one fsync per
/// commit) squanders it on per-message overheads. Batching drains
/// everything ready for the successor into a single wire message
/// ([`RingBatch`](hts_types::Message::RingBatch)), one flush, and lets the
/// WAL cover every commit in the batch with one fsync (group commit).
/// Frames inside a batch keep their exact one-at-a-time order, so the
/// per-link FIFO guarantee the rejoin/resync protocol depends on is
/// untouched; `max_frames: 1` reproduces the unbatched runtime bit for
/// bit (the fig1 benchmark's batching ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Most frames one batch may carry (≥ 1; 1 disables coalescing).
    pub max_frames: usize,
    /// Byte budget per batch (encoded frame bodies; soft cap — the frame
    /// that crosses it still ships, so a jumbo value cannot wedge the
    /// ring). This is the **head-of-line latency knob**: a batch is one
    /// wire message, decoded only when fully received, so its first
    /// frame waits for the whole batch to serialize. The 16 KiB default
    /// coalesces small frames (tag-only write notices, small values)
    /// aggressively while letting large values travel essentially alone.
    pub max_bytes: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            max_frames: 64,
            max_bytes: 16 * 1024,
        }
    }
}

impl BatchConfig {
    /// A configuration that disables coalescing (one frame per write,
    /// one fsync per commit) — the pre-batching runtime, kept for
    /// ablations and A/B tests.
    pub fn unbatched() -> Self {
        BatchConfig {
            max_frames: 1,
            ..BatchConfig::default()
        }
    }

    /// A batch cap of `max_frames` with the default byte budget.
    pub fn with_max_frames(max_frames: usize) -> Self {
        BatchConfig {
            max_frames: max_frames.max(1),
            ..BatchConfig::default()
        }
    }

    /// Clamps the knobs into the range the wire format supports — the
    /// transports call this before building batches, so a hostile or
    /// typo'd config degrades instead of panicking the sender or
    /// tripping the receiver's frame-size cap:
    ///
    /// * `max_frames` into `[1, MAX_BATCH_FRAMES]` (the batch count
    ///   prefix is 16-bit);
    /// * `max_bytes` into `[1, 16 MiB]` — with the soft-cap overshoot
    ///   of one frame this stays far below the 64 MiB receive limit
    ///   (a *single* frame beyond it is unshippable batched or not).
    pub fn normalized(self) -> Self {
        const MAX_BATCH_BUDGET_BYTES: usize = 16 * 1024 * 1024;
        BatchConfig {
            max_frames: self.max_frames.clamp(1, hts_types::codec::MAX_BATCH_FRAMES),
            max_bytes: self.max_bytes.clamp(1, MAX_BATCH_BUDGET_BYTES),
        }
    }
}

/// Protocol options. [`Config::default`] is the paper-faithful,
/// full-performance configuration. Every field is one of two kinds, and
/// its doc says which: a **paper ablation** switches one design choice
/// of the algorithm off (or on) so an experiment can show what it buys;
/// an **operator knob** is a deployment setting two real deployments
/// would set differently.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Config {
    /// *Paper ablation* (A1). Carry the value in steady-state `write`
    /// ring messages instead of resolving it from the pending cache.
    /// Doubles ring bandwidth per write; the paper's measured 81 Mbit/s
    /// write throughput on 100 Mbit/s links is impossible with this on.
    pub write_carries_value: bool,
    /// *Paper ablation* (A2). Let a read return immediately when the
    /// locally stored tag already dominates every pending pre-write.
    /// The paper always waits for the next `write` message.
    pub read_fast_path: bool,
    /// *Paper ablation* (A3). Scheduling of local writes vs. forwarded
    /// traffic; anything but [`FairnessMode::Fair`] starves one side.
    pub fairness: FairnessMode,
    /// *Operator knob*. Persistence of committed writes (crash-stop vs
    /// crash-recovery).
    pub durability: Durability,
    /// *Operator knob*. Ring frame coalescing (see [`BatchConfig`]).
    /// The default batches up to 64 frames per wire message; this
    /// changes scheduling granularity only, never protocol semantics.
    pub batching: BatchConfig,
    /// *Operator knob*. Parallel ring **lanes** (default 1). Objects
    /// are partitioned across `lanes` fully independent ring instances
    /// ([`LaneMap`](crate::LaneMap) placement): each lane owns its own
    /// protocol cores, its own successor link (a separate TCP stream in
    /// `hts-net`, a separate ring NIC in the simulator), and — with a
    /// persistent [`Durability`] — its own WAL, so one node scales
    /// across cores/links instead of funneling every object through a
    /// single event loop. Per-object semantics are untouched: an object
    /// lives on exactly one lane, and each lane preserves the per-link
    /// FIFO the rejoin/resync protocol depends on. `1` is the paper's
    /// single ring.
    pub lanes: u16,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            write_carries_value: false,
            read_fast_path: false,
            fairness: FairnessMode::Fair,
            durability: Durability::Volatile,
            batching: BatchConfig::default(),
            lanes: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_faithful() {
        let c = Config::default();
        assert!(!c.write_carries_value);
        assert!(!c.read_fast_path);
        assert_eq!(c.fairness, FairnessMode::Fair);
        assert_eq!(c.durability, Durability::Volatile);
        assert!(!c.durability.is_persistent());
        assert_eq!(c.lanes, 1);
    }

    #[test]
    fn persistent_settings_are_persistent() {
        assert!(Durability::SyncAlways.is_persistent());
        assert!(!Durability::Volatile.is_persistent());
    }

    #[test]
    fn batch_config_constructors() {
        let d = BatchConfig::default();
        assert_eq!(d.max_frames, 64);
        assert_eq!(d.max_bytes, 16 * 1024);

        let un = BatchConfig::unbatched();
        assert_eq!(un.max_frames, 1);
        assert_eq!(un.max_bytes, d.max_bytes);

        // A zero cap would wedge the ring; it clamps to 1.
        assert_eq!(BatchConfig::with_max_frames(0).max_frames, 1);
        assert_eq!(BatchConfig::with_max_frames(8).max_frames, 8);
    }

    #[test]
    fn normalized_clamps_into_wire_limits() {
        let hostile = BatchConfig {
            max_frames: usize::MAX,
            max_bytes: usize::MAX,
        }
        .normalized();
        assert_eq!(hostile.max_frames, hts_types::codec::MAX_BATCH_FRAMES);
        assert_eq!(hostile.max_bytes, 16 * 1024 * 1024);

        let zeroed = BatchConfig {
            max_frames: 0,
            max_bytes: 0,
        }
        .normalized();
        assert_eq!(zeroed.max_frames, 1);
        assert_eq!(zeroed.max_bytes, 1);

        // A sane config is untouched.
        assert_eq!(BatchConfig::default().normalized(), BatchConfig::default());
    }
}
