//! # metadis
//!
//! Metadata-free accurate disassembly of complex x86-64 binaries.
//!
//! This is the umbrella crate of the workspace: it re-exports the public API
//! of every layer so downstream users can depend on a single crate.
//!
//! * [`isa`] — x86-64 decoder and assembler ([`x86_isa`]).
//! * [`elf`] — minimal ELF64 reader/writer ([`elfobj`]).
//! * [`gen`] — ground-truth synthetic binary generator ([`bingen`]).
//! * [`core`] — the disassembly pipeline: superset disassembly, statistical
//!   code model, behavioral data hints, prioritized error correction
//!   ([`disasm_core`]).
//! * [`baselines`] — linear sweep, recursive traversal and Miller-style
//!   probabilistic disassembly comparators ([`disasm_baselines`]).
//! * [`eval`] — ground-truth metrics and the experiment harness
//!   ([`disasm_eval`]).
//! * [`cli`] — the `metadis` command-line interface
//!   (disasm / gen / compare / cfg / report / diff / score / serve).
//! * [`http`] — bounded, incremental HTTP/1.1 framing (std-only) used by
//!   the service layer's nonblocking event loop.
//! * [`serve`] — service mode: a nonblocking reactor with admission
//!   control and load shedding in front of the batch worker pool, plus a
//!   Prometheus `/metrics` + readiness `/healthz` exposition surface.
//!
//! ## Quickstart
//!
//! ```
//! use metadis::gen::{GenConfig, Workload};
//! use metadis::core::{Disassembler, Config};
//! use metadis::eval::image_of;
//!
//! // Generate a synthetic stripped binary with embedded data...
//! let workload = Workload::generate(&GenConfig::small(7));
//! // ...and disassemble it without any metadata.
//! let result = Disassembler::new(Config::default()).disassemble(&image_of(&workload));
//! assert!(!result.inst_starts.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod http;
pub mod serve;

/// The counting allocator (default feature `count-alloc`): every binary and
/// test of this package accounts heap traffic through [`obs::alloc`].
/// Counting stays off until [`obs::alloc::set_enabled`] — the CLI enables
/// it per invocation — so carrying the wrapper costs one predicted branch
/// per allocation.
#[cfg(feature = "count-alloc")]
#[global_allocator]
static GLOBAL_ALLOC: obs::alloc::CountingAlloc = obs::alloc::CountingAlloc::new();

/// Serializes the unit tests that drive the process-global logger: every
/// in-process [`cli::run`] installs and tears down its sink and level, so
/// on the test harness's parallel threads one invocation's teardown could
/// detach another's `--log` file mid-run, or a level set elsewhere could
/// leak into a `--log-level warn` run.
#[cfg(test)]
static LOGGER_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

pub use bingen as gen;
pub use disasm_baselines as baselines;
pub use disasm_core as core;
pub use disasm_eval as eval;
pub use elfobj as elf;
pub use x86_isa as isa;
