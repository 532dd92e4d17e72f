//! # bcl-platform — the HW/SW communication substrate and co-simulation
//!
//! This crate is the "supported platform" layer of the paper (§4.4, §7):
//! the low-level machinery the BCL compiler generates *around* the
//! partitions so that they compose into a working system.
//!
//! * [`link`] models the physical channel of the ML507 platform
//!   (LocalLink + HDMA: ~100-cycle round trip, 400 MB/s, 4:1 CPU:FPGA
//!   clock ratio).
//! * [`transactor`] implements the generated interface logic of Figure 6:
//!   marshaling/demarshaling to 32-bit words, round-robin arbitration of
//!   the shared link among virtual channels, and credit-based flow control
//!   that rules out deadlock and head-of-line blocking.
//! * [`cosim`] couples a software partition (cost-modeled interpreter) and
//!   a hardware partition (cycle-accurate rule simulator) on a common
//!   FPGA-cycle timeline — the moral equivalent of running the generated
//!   system on the board. It can checkpoint the whole system on a
//!   consistent cut, restore it bit- and cycle-identically, and recover
//!   from scripted hardware-partition faults by restarting from the last
//!   checkpoint or failing over to an all-software fused design
//!   ([`cosim::RecoveryPolicy`]) — and later revive a failed-over
//!   partition back into hardware ([`link::PartitionFault::ReviveAt`] /
//!   [`cosim::Cosim::revive`]), completing the
//!   Running → Dead → SoftwareOwned → Reviving → Running lifecycle
//!   ([`cosim::PartitionLifecycle`]).
//! * [`persist`] makes checkpoints durable: a versioned, CRC-protected
//!   on-disk snapshot format (`BCKP`), crash-consistent autosave
//!   ([`persist::CheckpointPolicy`]), and cross-process live migration
//!   ([`cosim::Cosim::resume_from_file`]) — a run killed at any instant
//!   resumes bit- and cycle-identically in a fresh process.
//! * [`workload`] is the one driver every evaluation application runs
//!   through: an app supplies a [`workload::Workload`] (design, domain
//!   map, input stream, sink) and the [`workload::Driver`] builds, runs,
//!   recovers, autosaves, resumes and migrates it.
//!
//! ```
//! use bcl_core::builder::{dsl::*, ModuleBuilder};
//! use bcl_core::domain::{HW, SW};
//! use bcl_core::program::Program;
//! use bcl_core::types::Type;
//! use bcl_core::value::Value;
//! use bcl_platform::cosim::Cosim;
//! use bcl_platform::link::LinkConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut m = ModuleBuilder::new("Echo");
//! m.source("src", Type::Int(32), SW);
//! m.sink("snk", Type::Int(32), SW);
//! m.sync("toHw", 2, Type::Int(32), SW, HW);
//! m.sync("toSw", 2, Type::Int(32), HW, SW);
//! m.rule("feed", with_first("x", "src", enq("toHw", var("x"))));
//! m.rule("echo", with_first("x", "toHw", enq("toSw", var("x"))));
//! m.rule("drain", with_first("x", "toSw", enq("snk", var("x"))));
//! let design = bcl_core::elaborate(&Program::with_root(m.build()))?;
//! let parts = bcl_core::partition::partition(&design, SW)?;
//! let mut cosim = Cosim::new(&parts, SW, HW, LinkConfig::default(), Default::default())?;
//! cosim.push_source("src", Value::int(32, 7));
//! let outcome = cosim.run_until(|c| c.sink_count("snk") == 1, 10_000)?;
//! assert!(outcome.is_done());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod cosim;
pub mod link;
pub mod persist;
pub mod transactor;
pub mod wire;
pub mod workload;

pub use cosim::{Checkpoint, Cosim, CosimOutcome, PartitionLifecycle, RecoveryPolicy};
pub use link::{
    ml507_link, Dir, FaultConfig, FaultKind, Link, LinkConfig, LinkSnapshot, LinkStats, Message,
    PartitionFault, ScriptedFault,
};
pub use persist::{CheckpointPolicy, PersistError, FORMAT_VERSION, MAGIC, MIN_FORMAT_VERSION};
pub use transactor::{ChannelDiag, ChannelReport, Transactor, TransactorSnapshot, TransportStats};

use std::fmt;

/// Errors raised while assembling a platform (bad partition topology,
/// missing channel endpoints, illegal hardware designs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlatformError {
    msg: String,
}

impl PlatformError {
    /// Creates an error with the given message.
    pub fn new(msg: impl Into<String>) -> Self {
        PlatformError { msg: msg.into() }
    }

    /// The human-readable message.
    pub fn message(&self) -> &str {
        &self.msg
    }
}

impl fmt::Display for PlatformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "platform error: {}", self.msg)
    }
}

impl std::error::Error for PlatformError {}
