//! # disasm-baselines
//!
//! Reimplementations of the comparator disassemblers the paper evaluates
//! against. The originals (objdump, IDA/Ghidra, the probabilistic
//! disassembler of Miller et al.) are external or closed-source tools; per
//! the reproduction's substitution rule they are rebuilt here on the same
//! decoder substrate so that accuracy differences reflect *algorithms*, not
//! decode-table quality.
//!
//! * [`linear`] — linear sweep (objdump-style): decode sequentially from the
//!   section start, resynchronizing one byte after an invalid encoding.
//! * [`recursive`] — recursive traversal (IDA/Ghidra-style): follow control
//!   flow from the entry point, optionally seeding unreachable regions via
//!   function-prologue scanning.
//! * [`probabilistic`] — a probabilistic disassembler in the style of
//!   Miller et al. (ICSE'19): superset disassembly plus fixed-probability
//!   hints (control-flow convergence, register def-use, terminated chains)
//!   combined into a per-candidate data probability, thresholded with
//!   occlusion resolution.
//!
//! All three return the same [`disasm_core::Disassembly`] type as the main
//! pipeline, so the evaluation harness scores every tool identically.

#![forbid(unsafe_code)]
#![allow(clippy::needless_range_loop)] // indexed loops over parallel arrays are intentional
#![warn(missing_docs)]

pub mod linear;
pub mod probabilistic;
pub mod recursive;

use disasm_core::{Disassembly, Image, Recorder};

/// The comparator tools, as an enumerable set for experiment sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Baseline {
    /// Linear sweep (objdump-style).
    LinearSweep,
    /// Recursive traversal without prologue scanning.
    Recursive,
    /// Recursive traversal with prologue scanning (IDA-style).
    RecursiveScan,
    /// Miller-style probabilistic disassembly.
    Probabilistic,
}

impl Baseline {
    /// All baselines in presentation order.
    pub const ALL: [Baseline; 4] = [
        Baseline::LinearSweep,
        Baseline::Recursive,
        Baseline::RecursiveScan,
        Baseline::Probabilistic,
    ];

    /// Human-readable tool name used in tables.
    pub fn name(self) -> &'static str {
        match self {
            Baseline::LinearSweep => "linear-sweep",
            Baseline::Recursive => "recursive",
            Baseline::RecursiveScan => "recursive+scan",
            Baseline::Probabilistic => "probabilistic",
        }
    }

    /// Run the baseline on an image. The result's
    /// [`PipelineTrace`](disasm_core::PipelineTrace) carries
    /// one coarse phase named after the tool, so `metadis compare` can show
    /// per-tool timing with the same schema as the main pipeline.
    pub fn disassemble(self, image: &Image) -> Disassembly {
        let mut rec = Recorder::start(image.text.len() as u64);
        let ph = rec.phase(self.name());
        let mut d = match self {
            Baseline::LinearSweep => linear::disassemble(image),
            Baseline::Recursive => recursive::disassemble(image, false),
            Baseline::RecursiveScan => recursive::disassemble(image, true),
            Baseline::Probabilistic => probabilistic::disassemble(image),
        };
        let instructions = d.inst_starts.len() as u64;
        ph.done(instructions, &[("instructions", instructions)]);
        d.trace = rec.finish();
        d
    }
}

/// Build a [`Disassembly`] from per-byte ownership (shared by the baseline
/// implementations).
pub(crate) fn assemble_result(
    n: usize,
    owners: &[Option<u32>],
    func_starts: Vec<u32>,
) -> Disassembly {
    use disasm_core::ByteClass;
    let mut byte_class = Vec::with_capacity(n);
    let mut inst_starts = Vec::new();
    for (i, o) in owners.iter().enumerate() {
        match o {
            Some(owner) if *owner as usize == i => {
                inst_starts.push(*owner);
                byte_class.push(ByteClass::InstStart);
            }
            Some(_) => byte_class.push(ByteClass::InstBody),
            None => byte_class.push(ByteClass::Data),
        }
    }
    let mut func_starts = func_starts;
    func_starts.sort_unstable();
    func_starts.dedup();
    Disassembly {
        byte_class,
        inst_starts,
        func_starts,
        jump_tables: Vec::new(),
        corrections: Vec::new(),
        decisions_by_priority: [0; disasm_core::Priority::COUNT],
        trace: disasm_core::PipelineTrace::new(),
        provenance: disasm_core::Prov::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let names: std::collections::BTreeSet<_> = Baseline::ALL.iter().map(|b| b.name()).collect();
        assert_eq!(names.len(), Baseline::ALL.len());
    }

    #[test]
    fn all_baselines_run_on_simple_code() {
        let text = vec![0x55, 0x48, 0x89, 0xe5, 0x5d, 0xc3];
        let image = Image::new(0x1000, text);
        for b in Baseline::ALL {
            let d = b.disassemble(&image);
            assert!(d.is_inst_start(0), "{}", b.name());
        }
    }
}
