//! Control-flow graph reconstruction over an accepted disassembly.
//!
//! Downstream binary-analysis consumers (instrumentation, rewriting,
//! lifting) want basic blocks, not byte classes. This module partitions the
//! accepted instruction stream into basic blocks, wires fall-through /
//! branch / call edges (including recovered jump-table dispatch edges) and
//! groups blocks into functions by reachability from entry points.

use crate::superset::NO_TARGET;
use crate::{Disassembly, Image};
use std::collections::{BTreeMap, BTreeSet};
use x86_isa::Flow;

/// A basic block: a maximal straight-line run of accepted instructions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasicBlock {
    /// Offset of the first instruction.
    pub start: u32,
    /// Offset one past the last byte of the last instruction.
    pub end: u32,
    /// Instruction start offsets, in order.
    pub insts: Vec<u32>,
    /// Successor block starts (fall-through and branch targets).
    pub succs: Vec<u32>,
    /// Direct call targets made from this block.
    pub calls: Vec<u32>,
    /// `true` if the block ends in `ret`.
    pub returns: bool,
}

/// The reconstructed control-flow graph.
#[derive(Debug, Clone, Default)]
pub struct Cfg {
    blocks: BTreeMap<u32, BasicBlock>,
}

impl Cfg {
    /// Build the CFG for a disassembly of `image`.
    pub fn build(image: &Image, d: &Disassembly) -> Cfg {
        let text = &image.text;
        let starts: BTreeSet<u32> = d.inst_starts.iter().copied().collect();

        // Pass 1: decode accepted instructions, note leaders.
        let mut flow_of: BTreeMap<u32, (u8, Flow)> = BTreeMap::new();
        let mut leaders: BTreeSet<u32> = BTreeSet::new();
        leaders.extend(d.func_starts.iter().copied());
        if let Some(e) = image.entry {
            if starts.contains(&e) {
                leaders.insert(e);
            }
        }
        for &off in &d.inst_starts {
            let Ok(inst) = x86_isa::decode_at(text, off as usize) else {
                continue;
            };
            let next = off + inst.len as u32;
            if let Some(rel) = inst.flow.rel_target() {
                let tgt = off as i64 + inst.len as i64 + rel as i64;
                if tgt >= 0 && starts.contains(&(tgt as u32)) {
                    leaders.insert(tgt as u32);
                }
            }
            match inst.flow {
                // calls return: they do not end basic blocks
                Flow::Seq | Flow::CallRel(_) | Flow::CallInd => {}
                _ => {
                    // any other control transfer ends a block; the next
                    // accepted instruction (if contiguous) starts one
                    if starts.contains(&next) {
                        leaders.insert(next);
                    }
                }
            }
            flow_of.insert(off, (inst.len, inst.flow));
        }
        // Jump-table dispatch targets are leaders too.
        for t in &d.jump_tables {
            for &target in &t.targets {
                if starts.contains(&target) {
                    leaders.insert(target);
                }
            }
        }
        // Gaps (data/padding) break blocks: an instruction whose predecessor
        // is not contiguous starts a block.
        let mut prev_end: Option<u32> = None;
        for &off in &d.inst_starts {
            if prev_end != Some(off) {
                leaders.insert(off);
            }
            if let Some(&(len, _)) = flow_of.get(&off) {
                prev_end = Some(off + len as u32);
            }
        }

        // Pass 2: slice instruction runs into blocks at leaders.
        let mut blocks: BTreeMap<u32, BasicBlock> = BTreeMap::new();
        let mut cur: Option<BasicBlock> = None;
        let jt_by_dispatch: BTreeMap<u32, &crate::DetectedTable> =
            d.jump_tables.iter().map(|t| (t.jmp_off, t)).collect();
        for &off in &d.inst_starts {
            let Some(&(len, flow)) = flow_of.get(&off) else {
                continue;
            };
            let is_leader = leaders.contains(&off);
            if is_leader {
                if let Some(b) = cur.take() {
                    blocks.insert(b.start, b);
                }
                cur = Some(BasicBlock {
                    start: off,
                    end: off,
                    insts: Vec::new(),
                    succs: Vec::new(),
                    calls: Vec::new(),
                    returns: false,
                });
            }
            let Some(b) = cur.as_mut() else {
                continue;
            };
            // non-contiguous instruction (shouldn't happen: gap ⇒ leader)
            b.insts.push(off);
            b.end = off + len as u32;
            let next = b.end;
            let target = |rel: i32| {
                let t = off as i64 + len as i64 + rel as i64;
                if t >= 0 && starts.contains(&(t as u32)) {
                    t as u32
                } else {
                    NO_TARGET
                }
            };
            let mut close = false;
            match flow {
                Flow::Seq => {}
                Flow::JmpRel(r) => {
                    let t = target(r);
                    if t != NO_TARGET {
                        b.succs.push(t);
                    }
                    close = true;
                }
                Flow::CondRel(r) => {
                    let t = target(r);
                    if t != NO_TARGET {
                        b.succs.push(t);
                    }
                    if starts.contains(&next) {
                        b.succs.push(next);
                    }
                    close = true;
                }
                Flow::CallRel(r) => {
                    let t = target(r);
                    if t != NO_TARGET {
                        b.calls.push(t);
                    }
                    // calls do not end blocks
                }
                Flow::CallInd => {}
                Flow::JmpInd => {
                    if let Some(t) = jt_by_dispatch.get(&off) {
                        b.succs.extend(t.targets.iter().copied());
                    }
                    close = true;
                }
                Flow::Ret => {
                    b.returns = true;
                    close = true;
                }
                Flow::Term => {
                    close = true;
                }
            }
            if close {
                let done = cur.take().unwrap();
                blocks.insert(done.start, done);
            }
        }
        if let Some(b) = cur.take() {
            blocks.insert(b.start, b);
        }
        // Fall-through edges between adjacent blocks (leader split mid-run).
        let starts_of_blocks: Vec<u32> = blocks.keys().copied().collect();
        for &bs in &starts_of_blocks {
            let b = &blocks[&bs];
            let end = b.end;
            let last = *b.insts.last().unwrap_or(&bs);
            let falls = matches!(
                flow_of.get(&last),
                Some((_, Flow::Seq)) | Some((_, Flow::CallRel(_))) | Some((_, Flow::CallInd))
            );
            if falls && blocks.contains_key(&end) {
                blocks.get_mut(&bs).unwrap().succs.push(end);
            }
        }
        for b in blocks.values_mut() {
            b.succs.sort_unstable();
            b.succs.dedup();
            b.calls.sort_unstable();
            b.calls.dedup();
        }
        Cfg { blocks }
    }

    /// Number of basic blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// `true` if the CFG has no blocks.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// The block starting at `off`, if any.
    pub fn block(&self, off: u32) -> Option<&BasicBlock> {
        self.blocks.get(&off)
    }

    /// Iterate blocks in address order.
    pub fn blocks(&self) -> impl Iterator<Item = &BasicBlock> {
        self.blocks.values()
    }

    /// Block starts reachable from `entry` through successor edges
    /// (intra-procedural closure).
    pub fn reachable_from(&self, entry: u32) -> BTreeSet<u32> {
        let mut seen = BTreeSet::new();
        let mut work = vec![entry];
        while let Some(b) = work.pop() {
            if !self.blocks.contains_key(&b) || !seen.insert(b) {
                continue;
            }
            work.extend(&self.blocks[&b].succs);
        }
        seen
    }

    /// All direct call edges `(from_block, callee)` in address order.
    pub fn call_edges(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for b in self.blocks.values() {
            for &c in &b.calls {
                out.push((b.start, c));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Config, Disassembler};
    use x86_isa::{Asm, Cond, Gp, Mem, OpSize};

    fn cfg_of(text: Vec<u8>) -> (Image, Disassembly, Cfg) {
        let image = Image::new(0x1000, text);
        let d = Disassembler::new(Config::default()).disassemble(&image);
        let cfg = Cfg::build(&image, &d);
        (image, d, cfg)
    }

    #[test]
    fn straight_line_is_one_block() {
        let mut a = Asm::new();
        a.push_r(Gp::RBP);
        a.mov_rr(OpSize::Q, Gp::RBP, Gp::RSP);
        a.pop_r(Gp::RBP);
        a.ret();
        let (_, _, cfg) = cfg_of(a.finish().unwrap());
        assert_eq!(cfg.len(), 1);
        let b = cfg.block(0).unwrap();
        assert_eq!(b.insts.len(), 4);
        assert!(b.returns);
        assert!(b.succs.is_empty());
    }

    #[test]
    fn diamond_makes_four_blocks() {
        let mut a = Asm::new();
        let l_else = a.label();
        let l_end = a.label();
        a.cmp_ri(OpSize::Q, Gp::RAX, 0);
        a.jcc_label(Cond::E, l_else);
        a.mov_ri32(Gp::RAX, 1);
        a.jmp_label(l_end);
        a.bind(l_else);
        a.mov_ri32(Gp::RAX, 2);
        a.bind(l_end);
        a.ret();
        let (_, _, cfg) = cfg_of(a.finish().unwrap());
        assert_eq!(cfg.len(), 4, "{:?}", cfg.blocks().collect::<Vec<_>>());
        let head = cfg.block(0).unwrap();
        assert_eq!(head.succs.len(), 2);
        // both paths converge on the ret block
        let reach = cfg.reachable_from(0);
        assert_eq!(reach.len(), 4);
    }

    #[test]
    fn loop_back_edge() {
        let mut a = Asm::new();
        a.mov_ri32(Gp::RCX, 10);
        let top = a.here();
        a.dec_r(OpSize::D, Gp::RCX);
        a.jcc_short(Cond::NE, top);
        a.ret();
        let (_, _, cfg) = cfg_of(a.finish().unwrap());
        let loop_block = cfg.block(5).unwrap();
        assert!(loop_block.succs.contains(&5), "{loop_block:?}");
    }

    #[test]
    fn call_edge_does_not_split_block_but_is_recorded() {
        let mut a = Asm::new();
        let f = a.label();
        a.mov_ri32(Gp::RDI, 1);
        a.call_label(f);
        a.mov_ri32(Gp::RAX, 0);
        a.ret();
        a.bind(f);
        a.ret();
        let (_, _, cfg) = cfg_of(a.finish().unwrap());
        let entry = cfg.block(0).unwrap();
        assert_eq!(entry.insts.len(), 4);
        assert_eq!(cfg.call_edges().len(), 1);
        // the callee sits immediately after the caller's ret
        assert_eq!(cfg.call_edges()[0].1, entry.end);
    }

    #[test]
    fn jump_table_dispatch_edges() {
        let mut a = Asm::new();
        let l_table = a.label();
        let l_default = a.label();
        let l_end = a.label();
        let cases: Vec<_> = (0..3).map(|_| a.label()).collect();
        a.cmp_ri(OpSize::Q, Gp::RDI, 2);
        a.jcc_label(Cond::A, l_default);
        a.lea_rip_label(Gp::RAX, l_table);
        a.movsxd_load(Gp::RCX, Mem::base_index(Gp::RAX, Gp::RDI, 4, 0));
        a.add_rr(OpSize::Q, Gp::RCX, Gp::RAX);
        a.jmp_ind(Gp::RCX);
        a.bind(l_table);
        for &c in &cases {
            a.dd_label_diff(c, l_table);
        }
        let mut case_offs = Vec::new();
        for &c in &cases {
            a.bind(c);
            case_offs.push(a.len() as u32);
            a.mov_ri32(Gp::RAX, 9);
            a.jmp_label(l_end);
        }
        a.bind(l_default);
        a.bind(l_end);
        a.ret();
        let (_, d, cfg) = cfg_of(a.finish().unwrap());
        assert_eq!(d.jump_tables.len(), 1);
        // the dispatch block must have an edge to every case
        let dispatch = cfg
            .blocks()
            .find(|b| case_offs.iter().all(|c| b.succs.contains(c)))
            .expect("dispatch block with table edges");
        assert!(dispatch.succs.len() >= 3, "{dispatch:?}");
        // every case is reachable from the function head
        let reach = cfg.reachable_from(0);
        for c in case_offs {
            assert!(reach.contains(&c));
        }
    }

    #[test]
    fn blocks_tile_their_instructions() {
        let w = bingen::Workload::generate(&bingen::GenConfig::small(77));
        let image = Image::new(w.text_base(), w.text.clone()).with_entry(w.entry_off);
        let d = Disassembler::new(Config::default()).disassemble(&image);
        let cfg = Cfg::build(&image, &d);
        let mut seen = BTreeSet::new();
        for b in cfg.blocks() {
            assert!(b.start < b.end);
            for &i in &b.insts {
                assert!(seen.insert(i), "instruction {i} in two blocks");
            }
        }
        assert_eq!(seen.len(), d.inst_starts.len());
    }
}
