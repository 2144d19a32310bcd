//! What both serving workloads share: the durable 4-shard server and
//! their fresh records and update streams.

use crate::report::mix;
use crate::D;
use kspr::KsprConfig;
use kspr_datagen::Distribution;
use kspr_serve::{ServeOptions, Server, ShardedEngine};
use std::path::Path;

/// Shards of every serving workload's engine.
pub const SHARDS: usize = 4;

pub fn config() -> KsprConfig {
    KsprConfig::default().with_shards(SHARDS)
}

/// Starts a durable server over `raw` in `dir`.
pub fn start(raw: &[Vec<f64>], dir: &Path) -> Server {
    let engine = ShardedEngine::new(raw.to_vec(), config());
    Server::start_durable(engine, ServeOptions::default(), dir)
        .expect("the scratch directory is writable")
}

/// Fresh records from the data distribution, drawn in seeded chunks so a
/// stream never runs out however fast the server answers.
pub struct Fresh {
    seed: u64,
    chunk: u64,
    buf: Vec<Vec<f64>>,
}

impl Fresh {
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            chunk: 0,
            buf: Vec::new(),
        }
    }

    pub fn next_record(&mut self) -> Vec<f64> {
        if self.buf.is_empty() {
            self.buf = kspr_datagen::generate(
                Distribution::Independent,
                256,
                D,
                mix(self.seed, self.chunk),
            );
            self.buf.reverse();
            self.chunk += 1;
        }
        self.buf.pop().expect("a refilled chunk is not empty")
    }
}

/// One update as the benchmark issued it.
#[derive(Clone)]
pub enum Update {
    Insert(Vec<f64>),
    /// Delete of the `n`-th insert of the stream.
    DeleteInsert(usize),
    /// Delete of an original record by id.
    DeleteOriginal(u64),
}
