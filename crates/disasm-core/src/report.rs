//! Structured analysis reports over a finished disassembly.
//!
//! Downstream consumers (auditors, rewriting pipelines) want aggregates, not
//! raw byte classes: how much of the section is code, where the functions
//! are and how big they are, which gaps remain, how much indirect control
//! flow was resolved.

use crate::cfg::Cfg;
use crate::{ByteClass, Disassembly, Image};
use std::fmt;

/// A contiguous function extent, inferred from sorted function starts: each
/// function runs to the next function start (trailing data/padding is
/// trimmed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionExtent {
    /// Entry offset.
    pub start: u32,
    /// One past the last code byte attributed to this function.
    pub end: u32,
    /// Number of accepted instructions inside the extent.
    pub instructions: usize,
    /// Number of basic blocks inside the extent.
    pub blocks: usize,
}

impl FunctionExtent {
    /// Size in bytes.
    pub fn len(&self) -> u32 {
        self.end - self.start
    }

    /// `true` for a degenerate empty extent.
    pub fn is_empty(&self) -> bool {
        self.end == self.start
    }
}

/// Aggregated statistics of one disassembly.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Total text bytes.
    pub text_bytes: usize,
    /// Bytes classified as instructions.
    pub code_bytes: usize,
    /// Bytes classified as data.
    pub data_bytes: usize,
    /// Bytes classified as padding.
    pub padding_bytes: usize,
    /// Accepted instructions.
    pub instructions: usize,
    /// Identified function extents.
    pub functions: Vec<FunctionExtent>,
    /// Detected jump tables.
    pub jump_tables: usize,
    /// Classified data regions, with counts per [`crate::DataKind`]:
    /// (jump tables, string pools, pointer arrays, numeric pools, opaque).
    pub data_kinds: [usize; 5],
    /// Indirect jumps resolved through a table, vs total indirect jumps.
    pub resolved_indirect: (usize, usize),
    /// Number of error-correction overrides applied.
    pub corrections: usize,
}

impl Report {
    /// Build the report for a disassembly of `image`.
    pub fn build(image: &Image, d: &Disassembly) -> Report {
        let cfg = Cfg::build(image, d);
        let code_bytes = d.count(ByteClass::InstStart) + d.count(ByteClass::InstBody);
        let data_bytes = d.count(ByteClass::Data);
        let padding_bytes = d.count(ByteClass::Padding);

        // function extents: from each start to the next start, trimmed to
        // the last code byte
        let mut functions = Vec::with_capacity(d.func_starts.len());
        for (i, &start) in d.func_starts.iter().enumerate() {
            let limit = d
                .func_starts
                .get(i + 1)
                .copied()
                .unwrap_or(image.text.len() as u32);
            let mut end = start;
            for b in start..limit {
                if matches!(
                    d.byte_class.get(b as usize),
                    Some(ByteClass::InstStart) | Some(ByteClass::InstBody)
                ) {
                    end = b + 1;
                }
            }
            let instructions = d
                .inst_starts
                .iter()
                .filter(|&&o| o >= start && o < limit)
                .count();
            let blocks = cfg
                .blocks()
                .filter(|b| b.start >= start && b.start < limit)
                .count();
            functions.push(FunctionExtent {
                start,
                end,
                instructions,
                blocks,
            });
        }

        // data-region kind census
        let mut data_kinds = [0usize; 5];
        for r in crate::datatype::classify_data_regions(image, d) {
            let idx = match r.kind {
                crate::DataKind::JumpTable => 0,
                crate::DataKind::StringPool => 1,
                crate::DataKind::PointerArray => 2,
                crate::DataKind::Numeric => 3,
                crate::DataKind::Opaque => 4,
            };
            data_kinds[idx] += 1;
        }

        // indirect-jump resolution rate
        let mut indirect_total = 0usize;
        let dispatch_offsets: std::collections::BTreeSet<u32> =
            d.jump_tables.iter().map(|t| t.jmp_off).collect();
        let mut resolved = 0usize;
        for &off in &d.inst_starts {
            if let Ok(inst) = x86_isa::decode_at(&image.text, off as usize) {
                if inst.flow == x86_isa::Flow::JmpInd {
                    indirect_total += 1;
                    if dispatch_offsets.contains(&off) {
                        resolved += 1;
                    }
                }
            }
        }

        Report {
            text_bytes: image.text.len(),
            code_bytes,
            data_bytes,
            padding_bytes,
            instructions: d.inst_starts.len(),
            functions,
            jump_tables: d.jump_tables.len(),
            data_kinds,
            resolved_indirect: (resolved, indirect_total),
            corrections: d.corrections.len(),
        }
    }

    /// Fraction of text bytes classified as code.
    pub fn code_fraction(&self) -> f64 {
        self.code_bytes as f64 / self.text_bytes.max(1) as f64
    }

    /// Average function size in bytes (0 when no functions were found).
    pub fn avg_function_size(&self) -> f64 {
        if self.functions.is_empty() {
            0.0
        } else {
            self.functions.iter().map(|f| f.len() as f64).sum::<f64>() / self.functions.len() as f64
        }
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "text: {} bytes — code {} ({:.1}%), data {}, padding {}",
            self.text_bytes,
            self.code_bytes,
            self.code_fraction() * 100.0,
            self.data_bytes,
            self.padding_bytes
        )?;
        writeln!(
            f,
            "instructions: {}, functions: {} (avg {:.0} bytes), jump tables: {}",
            self.instructions,
            self.functions.len(),
            self.avg_function_size(),
            self.jump_tables
        )?;
        writeln!(
            f,
            "indirect jumps resolved: {}/{}, corrections applied: {}",
            self.resolved_indirect.0, self.resolved_indirect.1, self.corrections
        )?;
        write!(
            f,
            "data regions: {} jump-table, {} string, {} pointer-array, {} numeric, {} opaque",
            self.data_kinds[0],
            self.data_kinds[1],
            self.data_kinds[2],
            self.data_kinds[3],
            self.data_kinds[4]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Config, Disassembler};

    fn report_of(w: &bingen::Workload) -> Report {
        let image = Image::new(w.text_base(), w.text.clone()).with_entry(w.entry_off);
        let d = Disassembler::new(Config::default()).disassemble(&image);
        Report::build(&image, &d)
    }

    #[test]
    fn aggregates_add_up() {
        let w = bingen::Workload::generate(&bingen::GenConfig::small(21));
        let r = report_of(&w);
        assert_eq!(r.code_bytes + r.data_bytes + r.padding_bytes, r.text_bytes);
        assert!(r.instructions > 0);
        assert!(r.code_fraction() > 0.5);
    }

    #[test]
    fn function_extents_ordered_and_disjoint() {
        let w = bingen::Workload::generate(&bingen::GenConfig::small(22));
        let r = report_of(&w);
        assert!(!r.functions.is_empty());
        for pair in r.functions.windows(2) {
            assert!(pair[0].start < pair[1].start);
            assert!(pair[0].end <= pair[1].start);
        }
        for f in &r.functions {
            assert!(!f.is_empty());
            assert!(f.instructions > 0);
            assert!(f.blocks > 0);
        }
    }

    #[test]
    fn indirect_jumps_resolved_via_tables() {
        let mut cfg = bingen::GenConfig::small(23);
        cfg.functions = 30;
        let w = bingen::Workload::generate(&cfg);
        let r = report_of(&w);
        assert!(r.jump_tables > 0);
        assert!(r.data_kinds.iter().sum::<usize>() > 0);
        let (resolved, total) = r.resolved_indirect;
        assert!(total >= r.jump_tables);
        assert!(resolved as f64 >= 0.8 * r.jump_tables as f64);
    }

    #[test]
    fn display_is_informative() {
        let w = bingen::Workload::generate(&bingen::GenConfig::small(24));
        let s = report_of(&w).to_string();
        assert!(s.contains("instructions"));
        assert!(s.contains("jump tables"));
        assert!(s.contains("data regions:"));
    }
}
