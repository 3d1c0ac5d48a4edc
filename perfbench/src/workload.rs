//! The three benchmark workloads: how each builds its session, generates
//! its trace from the seed, and how long its untimed and timed prefixes
//! are.

use dsg::prelude::*;
use dsg_workloads::{Datacenter, RotatingHotSet, UniformRandom, Workload};

/// Peers in every workload's network.
pub const PEERS: u64 = 1024;

/// Requests per chunk on the batched workload (one `submit_batch` call).
pub const BATCH_CHUNK: usize = 8;

/// Plan shards on the batched workload.
pub const BATCH_SHARDS: usize = 2;

/// Journal frames per fsync on the durable workloads: one group commit per
/// snapshot interval (`PersistConfig::snapshot_every`, 32 epochs of one
/// request each). The store lives inside the benchmark's checkout, on
/// whatever device holds it; an fsync per frame there measures that device's
/// flush queue, whose latency drifts between runs by more than any bound
/// the benchmark could hold.
pub const JOURNAL_FSYNC_EVERY: u64 = 32;

/// Points of the timed region at which the durable workloads pin their
/// store for `recover_s`. A reopen's time follows the structure's size,
/// and the size at the end of a run follows the seed: on `hot-durable`,
/// peers plus dummies ranged from 2775 to 4955 over eight seeds, while
/// their median over ten points spread through the run ranged only from
/// 2459 to 2771.
pub const RECOVERY_POINTS: usize = 10;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Uniform pairs through the durable service under the gated policy:
    /// the gate routes almost everything, so service, journal, checkpoint
    /// and audit do most of the work.
    ColdDurable,
    /// A rotating hot set through the durable service under the gated
    /// policy: the gate admits most requests, so the restructure path does
    /// half the work on the same layers.
    HotDurable,
    /// Datacenter traffic through `DsgSession::submit_batch` in chunks of
    /// [`BATCH_CHUNK`] with [`BATCH_SHARDS`] plan shards and the paper's
    /// ungated algorithm: multi-pair epochs with no service or store.
    RackBatch,
}

impl Kind {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Kind; 3] = [Kind::ColdDurable, Kind::HotDurable, Kind::RackBatch];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::ColdDurable => "cold-durable",
            Kind::HotDurable => "hot-durable",
            Kind::RackBatch => "rack-batch",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|kind| kind.name() == name)
    }

    /// Whether the workload is served through a durable `DsgService`.
    pub fn durable(self) -> bool {
        !matches!(self, Kind::RackBatch)
    }

    /// Requests per chunk: one for the closed-loop service workloads
    /// (one outstanding request means one request per ingest chunk).
    pub fn chunk(self) -> usize {
        if self.durable() {
            1
        } else {
            BATCH_CHUNK
        }
    }

    /// Plan shards of the session.
    pub fn shards(self) -> usize {
        if self.durable() {
            1
        } else {
            BATCH_SHARDS
        }
    }

    /// The adaptation policy's name, for the run header.
    pub fn policy_name(self) -> &'static str {
        if self.durable() {
            "gated"
        } else {
            "always"
        }
    }

    /// Untimed warm-up prefix, in requests. The balanced initial structure
    /// is reshaped by the first requests: on `rack-batch` the first 2400
    /// cost several times its steady state and the next 800 still
    /// twice, on `hot-durable` the first 1000 about twice, so the timed
    /// region starts after them.
    pub fn default_warmup(self) -> usize {
        match self {
            Kind::ColdDurable => 1000,
            Kind::HotDurable => 1500,
            Kind::RackBatch => 3200,
        }
    }

    /// Timed requests per second of `--seconds`: the steady-state rate of
    /// a 2-vCPU reference box, so that a run measures about `--seconds`
    /// there. The count is a function of `--seconds` alone, never of the
    /// clock, so every count the run reports repeats exactly for a seed.
    pub fn requests_per_second(self) -> usize {
        match self {
            Kind::ColdDurable => 4200,
            Kind::HotDurable => 2100,
            Kind::RackBatch => 1300,
        }
    }

    /// The `DsgBuilder` of the workload's `n`-peer session.
    pub fn builder(self, peers: u64, seed: u64) -> DsgBuilder {
        let builder = DsgSession::builder()
            .peers(0..peers)
            .seed(seed)
            .shards(self.shards());
        if self.durable() {
            builder.policy(PolicyConfig::gated())
        } else {
            builder
        }
    }

    /// The workload's request trace of `len` requests for `seed`.
    pub fn trace(self, peers: u64, seed: u64, len: usize) -> Vec<Request> {
        match self {
            Kind::ColdDurable => UniformRandom::new(peers, seed).generate(len),
            Kind::HotDurable => RotatingHotSet::new(peers, 32, 0.9, 200, seed).generate(len),
            Kind::RackBatch => Datacenter::new(peers, 16, 8, 0.9, 0.1, seed).generate(len),
        }
    }
}

/// The service configuration of the durable workloads: the library
/// defaults, with persistence at its default snapshot cadence and the
/// journal fsynced every [`JOURNAL_FSYNC_EVERY`] frames.
pub fn service_config() -> ServiceConfig {
    ServiceConfig {
        persist: Some(PersistConfig::default().with_fsync_every(JOURNAL_FSYNC_EVERY)),
        ..ServiceConfig::default()
    }
}

/// One run's sizes: the workload, its seed, and how much it serves.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// The workload.
    pub kind: Kind,
    /// Seed of the trace and of the session.
    pub seed: u64,
    /// Network size.
    pub peers: u64,
    /// Untimed warm-up requests.
    pub warmup: usize,
    /// Timed requests.
    pub timed: usize,
    /// Set-ups timed for `setup_s` (the run's own set-up is one of them).
    pub setups: usize,
    /// Reopens timed for `recover_s`, shared out over the recovery
    /// points' stores.
    pub recoveries: usize,
}

impl Plan {
    /// The standard plan of a run measuring about `seconds`.
    pub fn new(kind: Kind, seed: u64, seconds: u64) -> Plan {
        let chunk = kind.chunk();
        let warmup = kind.default_warmup();
        let mut timed = (seconds as usize * kind.requests_per_second()).div_ceil(chunk) * chunk;
        if kind.durable() {
            // End one request after a checkpoint, so the run's last
            // recovery point is its end.
            let every = snapshot_every();
            timed += (every + 1 - (warmup + timed) % every) % every;
        }
        Plan {
            kind,
            seed,
            peers: PEERS,
            warmup,
            timed,
            setups: 101,
            recoveries: 20 * RECOVERY_POINTS,
        }
    }

    /// Warm-up plus timed requests.
    pub fn total(&self) -> usize {
        self.warmup + self.timed
    }

    /// The run's whole trace: warm-up prefix then timed region.
    pub fn trace(&self) -> Vec<Request> {
        self.kind.trace(self.peers, self.seed, self.total())
    }

    /// The `DsgBuilder` of the run's session.
    pub fn builder(&self) -> DsgBuilder {
        self.kind.builder(self.peers, self.seed)
    }

    /// Requests served (counted from the start of the warm-up) after which
    /// a durable run pins its store for `recover_s`: up to
    /// [`RECOVERY_POINTS`] points spread evenly over the timed region, the
    /// last as late as possible, each one request after a checkpoint, so
    /// that a pinned store replays exactly one journal frame when reopened.
    /// A longer suffix makes a reopen's time depend on how many of its
    /// requests restructure. Empty on the batched workload.
    pub fn recovery_points(&self) -> Vec<usize> {
        if !self.kind.durable() {
            return Vec::new();
        }
        let every = snapshot_every();
        let after_checkpoint: Vec<usize> = (self.warmup + 1..=self.total())
            .filter(|served| served % every == 1 % every)
            .collect();
        let points = RECOVERY_POINTS.min(after_checkpoint.len());
        (1..=points)
            .map(|k| after_checkpoint[(k * after_checkpoint.len()).div_ceil(points) - 1])
            .collect()
    }
}

/// Epochs between the durable workloads' checkpoints; one request is one
/// epoch there.
fn snapshot_every() -> usize {
    service_config()
        .persist
        .map_or(1, |persist| persist.snapshot_every.max(1) as usize)
}
