//! Structural jump-table detection.
//!
//! Jump tables are the most common — and most damaging — form of data
//! embedded in `.text`: they sit in the middle of functions and their bytes
//! decode as plausible instructions. The detector recognizes the dominant
//! compiler dispatch idioms:
//!
//! * **PIC** (4-byte signed offsets relative to the table):
//!   `lea B, [rip+T]` … `movsxd X, [B + I*4]` … `add X, B` … `jmp X`
//! * **Compact** (1/2-byte unsigned offsets, the `-Os` idiom):
//!   `lea B, [rip+T]` … `movzx X, byte [B + I]` … `add X, B` … `jmp X`
//! * **Absolute in text** (8-byte virtual addresses):
//!   `lea B, [rip+T]` … `mov X, [B + I*8]` … `jmp X`
//! * **Absolute in `.rodata`** (GCC's default placement):
//!   `mov X, [I*8 + table_va]` … `jmp X`, resolved through the image's
//!   data regions.
//!
//! A bounds check (`cmp I, N; ja default` up-chain) caps the entry count
//! when present; otherwise entries are followed while their decoded targets
//! remain viable candidates and the table has not run into its own targets.

use crate::limits::{Deadline, Degradation, LimitKind};
use crate::superset::Superset;
use crate::viability::Viability;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use x86_isa::{decode_at, Gp, Inst, MemOperand, Mnemonic, Operand, Reg};

/// Memoized full-`Inst` decoder for the offsets the detector inspects.
///
/// The anchor scan, dispatch-idiom walk, and bounds-check probe repeatedly
/// decode the same handful of offsets (a `lea` is decoded once as an anchor
/// and again inside every chain that reaches it; predecessors overlap
/// between anchors). Since the superset table only stores prescan
/// summaries, each of those was a full operand-materializing decode — the
/// cache makes every revisit a map hit and counts the decodes saved in
/// `hits` (reported as [`DetectOutcome::redecodes`]).
struct DecodeCache {
    map: HashMap<u32, Option<Inst>>,
    hits: u64,
}

impl DecodeCache {
    fn new() -> DecodeCache {
        DecodeCache {
            map: HashMap::new(),
            hits: 0,
        }
    }

    /// Decode `text` at `off`, returning the cached instruction when the
    /// offset was already visited (`None` is cached for invalid decodes
    /// too — re-asking about junk bytes is just as common).
    fn decode(&mut self, text: &[u8], off: u32) -> Option<&Inst> {
        match self.map.entry(off) {
            Entry::Occupied(e) => {
                self.hits += 1;
                e.into_mut().as_ref()
            }
            Entry::Vacant(v) => v.insert(decode_at(text, off as usize).ok()).as_ref(),
        }
    }
}

/// A detected jump table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectedTable {
    /// Offset of the first table byte in text (meaningful only when
    /// `in_text`; `u32::MAX` for tables living in a data region).
    pub table_off: u32,
    /// Virtual address of the first table byte (always valid).
    pub table_va: u64,
    /// `true` if the table bytes live inside the text section (the hard
    /// case); `false` for tables found in a non-executable data region.
    pub in_text: bool,
    /// Entry size in bytes: 1/2 = compact unsigned offsets, 4 = signed PIC
    /// offsets, 8 = absolute addresses.
    pub entry_size: u8,
    /// Decoded dispatch targets (text offsets), one per accepted entry.
    pub targets: Vec<u32>,
    /// Offset of the instruction that materializes the table address (the
    /// `lea`, or the absolute `mov` load for data-region tables).
    pub lea_off: u32,
    /// Offset of the indirect `jmp`.
    pub jmp_off: u32,
    /// `true` if a `cmp`/`ja` bounds check capped the entry count (such
    /// interpretations are preferred when several anchors resolve to the
    /// same table).
    pub bounded: bool,
    /// `true` if the entry scan was cut off by the `max_entries` budget
    /// rather than by a bounds check or a natural stop condition; the table
    /// may extend further than `targets` records.
    pub capped: bool,
}

impl DetectedTable {
    /// Number of entries.
    pub fn entries(&self) -> u32 {
        self.targets.len() as u32
    }

    /// Total table size in bytes.
    pub fn byte_len(&self) -> u32 {
        self.entries() * self.entry_size as u32
    }
}

/// Result of a budgeted jump-table scan: the surviving tables plus a
/// structured record for every budget the scan ran into.
#[derive(Debug, Clone, Default)]
pub struct DetectOutcome {
    /// Deduplicated detected tables.
    pub tables: Vec<DetectedTable>,
    /// One record per budget hit: an entry cap per capped table, plus at
    /// most one deadline record if the anchor scan stopped early.
    pub degradations: Vec<Degradation>,
    /// Full decodes the scan saved by revisiting an already-decoded offset.
    pub redecodes: u64,
}

/// Scan the whole text for jump tables — both tables embedded in text
/// (anchored on a RIP-relative `lea`) and tables living in data regions
/// (anchored on an absolute-address indexed `mov`). `max_entries` caps how
/// many entries are followed when no bounds check is found.
pub fn detect(
    text: &[u8],
    text_va: u64,
    data_regions: &[(u64, Vec<u8>)],
    ss: &Superset,
    viab: &Viability,
    max_entries: u32,
) -> Vec<DetectedTable> {
    detect_budgeted(
        text,
        text_va,
        data_regions,
        ss,
        viab,
        max_entries,
        &Deadline::unlimited(),
    )
    .tables
}

/// Budgeted variant of [`detect`]: polls `deadline` while scanning anchors
/// and reports every budget hit as a [`Degradation`]. Stopping the anchor
/// scan early only loses table detections (their bytes fall back to the
/// statistical and default phases); it never fabricates one.
#[allow(clippy::too_many_arguments)]
pub fn detect_budgeted(
    text: &[u8],
    text_va: u64,
    data_regions: &[(u64, Vec<u8>)],
    ss: &Superset,
    viab: &Viability,
    max_entries: u32,
    deadline: &Deadline,
) -> DetectOutcome {
    let mut out = Vec::new();
    let mut degradations = Vec::new();
    let mut cache = DecodeCache::new();
    for (scanned, (off, cand)) in ss.valid().enumerate() {
        if scanned.is_multiple_of(1024) && deadline.exceeded() {
            degradations.push(Degradation {
                phase: "jumptable",
                limit: LimitKind::Deadline,
                completed: scanned as u64,
            });
            break;
        }
        if !viab.is_viable(off) || cand.len == 0 {
            continue;
        }
        // Anchor on `lea B, [rip+disp]` for text-embedded tables.
        if let Some((base_reg, table_off)) = rip_lea(text, &mut cache, off) {
            if (table_off as usize) < text.len() {
                if let Some(t) = match_dispatch(
                    text,
                    text_va,
                    ss,
                    viab,
                    &mut cache,
                    off,
                    base_reg,
                    table_off,
                    max_entries,
                ) {
                    out.push(t);
                }
            }
        }
        // Anchor on `mov X, [I*8 + table_va]` for data-region tables.
        if let Some(t) = match_data_region_dispatch(
            text,
            text_va,
            data_regions,
            ss,
            viab,
            &mut cache,
            off,
            max_entries,
        ) {
            out.push(t);
        }
    }
    // Deduplicate by table address: prefer interpretations backed by a
    // bounds check, then the longest.
    out.sort_by_key(|t| {
        (
            t.table_va,
            std::cmp::Reverse(t.bounded),
            std::cmp::Reverse(t.targets.len()),
        )
    });
    out.dedup_by_key(|t| t.table_va);
    for t in &out {
        if t.capped {
            degradations.push(Degradation {
                phase: "jumptable",
                limit: LimitKind::JumpTableEntries,
                completed: t.targets.len() as u64,
            });
        }
    }
    DetectOutcome {
        tables: out,
        degradations,
        redecodes: cache.hits,
    }
}

/// Match the absolute-address dispatch idiom against `.rodata`-style
/// tables: `mov X, qword [I*8 + disp32]` followed by `jmp X`, where the
/// displacement falls inside a known non-executable data region.
#[allow(clippy::too_many_arguments)]
fn match_data_region_dispatch(
    text: &[u8],
    text_va: u64,
    data_regions: &[(u64, Vec<u8>)],
    ss: &Superset,
    viab: &Viability,
    cache: &mut DecodeCache,
    mov_off: u32,
    max_entries: u32,
) -> Option<DetectedTable> {
    let inst = cache.decode(text, mov_off)?;
    if inst.mnemonic != Mnemonic::Mov {
        return None;
    }
    let (dst, mem) = match (inst.operands.first()?, inst.operands.get(1)?) {
        (Operand::Reg(Reg::Gp { reg, .. }), Operand::Mem(m)) => (*reg, m),
        _ => return None,
    };
    if mem.base.is_some() || mem.index.is_none() || mem.scale != 8 || mem.disp <= 0 {
        return None;
    }
    let table_va = mem.disp as u64;
    let (region_va, region) = data_regions
        .iter()
        .find(|(va, bytes)| table_va >= *va && table_va < *va + bytes.len() as u64)
        .map(|(va, bytes)| (*va, bytes))?;
    // the jmp through the loaded register must follow shortly
    let mut jmp_off = None;
    for &o in ss.chain(mov_off, 5).iter().skip(1) {
        let i = cache.decode(text, o)?;
        if i.mnemonic == Mnemonic::JmpInd {
            if let Some(Operand::Reg(Reg::Gp { reg, .. })) = i.operands.first() {
                if *reg == dst {
                    jmp_off = Some(o);
                }
            }
            break;
        }
    }
    let jmp_off = jmp_off?;

    let bound = bounds_check(text, ss, viab, cache, mov_off);
    let bounded = bound.is_some();
    let cap = bound.unwrap_or(max_entries).min(max_entries);
    let start = (table_va - region_va) as usize;
    let mut targets = Vec::new();
    for i in 0..cap as usize {
        let e_off = start + i * 8;
        if e_off + 8 > region.len() {
            break;
        }
        let va = u64::from_le_bytes(region[e_off..e_off + 8].try_into().unwrap());
        if va < text_va || va >= text_va + text.len() as u64 {
            break;
        }
        let t = (va - text_va) as u32;
        if !viab.is_viable(t) {
            break;
        }
        targets.push(t);
    }
    if targets.len() < 2 {
        return None;
    }
    let capped = targets.len() as u32 == max_entries && bound.unwrap_or(u32::MAX) > max_entries;
    Some(DetectedTable {
        table_off: u32::MAX,
        table_va,
        in_text: false,
        entry_size: 8,
        targets,
        lea_off: mov_off,
        jmp_off,
        bounded,
        capped,
    })
}

/// If `off` decodes to `lea reg, [rip+disp]`, return the register and the
/// referenced text offset.
fn rip_lea(text: &[u8], cache: &mut DecodeCache, off: u32) -> Option<(Gp, u32)> {
    let inst = cache.decode(text, off)?;
    if inst.mnemonic != Mnemonic::Lea {
        return None;
    }
    let dst = match inst.operands.first()? {
        Operand::Reg(Reg::Gp { reg, .. }) => *reg,
        _ => return None,
    };
    match inst.operands.get(1)? {
        Operand::Mem(MemOperand {
            base: Some(Reg::Rip),
            disp,
            ..
        }) => {
            let target = off as i64 + inst.len as i64 + *disp as i64;
            if target >= 0 && (target as usize) < text.len() {
                Some((dst, target as u32))
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Walk the fall-through chain after the `lea` looking for the dispatch
/// idiom; on success decode and validate the table entries.
#[allow(clippy::too_many_arguments)]
fn match_dispatch(
    text: &[u8],
    text_va: u64,
    ss: &Superset,
    viab: &Viability,
    cache: &mut DecodeCache,
    lea_off: u32,
    base_reg: Gp,
    table_off: u32,
    max_entries: u32,
) -> Option<DetectedTable> {
    let chain = ss.chain(lea_off, 8);
    let mut entry_size: Option<u8> = None;
    let mut loaded_reg: Option<Gp> = None;
    let mut added = false;
    let mut jmp_off = None;
    for &o in chain.iter().skip(1) {
        let inst = cache.decode(text, o)?;
        match inst.mnemonic {
            Mnemonic::Movsxd => {
                if let (Some(Operand::Reg(Reg::Gp { reg: dst, .. })), Some(Operand::Mem(m))) =
                    (inst.operands.first(), inst.operands.get(1))
                {
                    if m.scale == 4 && m.base.and_then(Reg::as_gp) == Some(base_reg) {
                        entry_size = Some(4);
                        loaded_reg = Some(*dst);
                    }
                }
            }
            Mnemonic::Movzx => {
                // compact tables: movzx X, byte/word [B + I*1/2]
                if let (Some(Operand::Reg(Reg::Gp { reg: dst, .. })), Some(Operand::Mem(m))) =
                    (inst.operands.first(), inst.operands.get(1))
                {
                    if matches!(m.scale, 1 | 2) && m.base.and_then(Reg::as_gp) == Some(base_reg) {
                        entry_size = Some(m.scale);
                        loaded_reg = Some(*dst);
                    }
                }
            }
            Mnemonic::Mov => {
                if let (Some(Operand::Reg(Reg::Gp { reg: dst, .. })), Some(Operand::Mem(m))) =
                    (inst.operands.first(), inst.operands.get(1))
                {
                    if m.scale == 8 && m.base.and_then(Reg::as_gp) == Some(base_reg) {
                        entry_size = Some(8);
                        loaded_reg = Some(*dst);
                    }
                }
            }
            Mnemonic::Add => {
                if let (
                    Some(Operand::Reg(Reg::Gp { reg: dst, .. })),
                    Some(Operand::Reg(Reg::Gp { reg: src, .. })),
                ) = (inst.operands.first(), inst.operands.get(1))
                {
                    if Some(*dst) == loaded_reg && *src == base_reg {
                        added = true;
                    }
                }
            }
            Mnemonic::JmpInd => {
                if let Some(Operand::Reg(Reg::Gp { reg, .. })) = inst.operands.first() {
                    if Some(*reg) == loaded_reg {
                        jmp_off = Some(o);
                        break;
                    }
                }
            }
            _ => {}
        }
    }
    let (entry_size, jmp_off) = (entry_size?, jmp_off?);
    // offset tables (1/2/4-byte entries) need the `add`; absolute (8-byte)
    // tables must not have consumed one
    if entry_size != 8 && !added {
        return None;
    }

    let bound = bounds_check(text, ss, viab, cache, lea_off);
    let bounded = bound.is_some();
    let cap = bound.unwrap_or(max_entries).min(max_entries);
    let mut targets = Vec::new();
    // A table cannot overlap its own dispatch targets: compilers lay the
    // entries out before (below) the case blocks, so the first target seen
    // bounds the table extent even without a recovered bounds check.
    let mut min_target = i64::MAX;
    for i in 0..cap {
        let e_off = table_off as usize + (i as usize) * entry_size as usize;
        if e_off + entry_size as usize > text.len() || (e_off as i64) >= min_target {
            break;
        }
        let target = match entry_size {
            1 => table_off as i64 + text[e_off] as i64,
            2 => {
                let e = u16::from_le_bytes(text[e_off..e_off + 2].try_into().unwrap());
                table_off as i64 + e as i64
            }
            4 => {
                let e = i32::from_le_bytes(text[e_off..e_off + 4].try_into().unwrap());
                table_off as i64 + e as i64
            }
            _ => {
                let va = u64::from_le_bytes(text[e_off..e_off + 8].try_into().unwrap());
                va as i64 - text_va as i64
            }
        };
        if target < 0 || target as usize >= text.len() {
            break;
        }
        let t = target as u32;
        if !viab.is_viable(t) {
            break;
        }
        min_target = min_target.min(target);
        targets.push(t);
    }
    if targets.len() < 2 {
        return None;
    }
    let capped = targets.len() as u32 == max_entries && bound.unwrap_or(u32::MAX) > max_entries;
    Some(DetectedTable {
        table_off,
        table_va: text_va + table_off as u64,
        in_text: true,
        entry_size,
        targets,
        lea_off,
        jmp_off,
        bounded,
        capped,
    })
}

/// Look for the `cmp R, imm; ja default` bounds-check idiom in the
/// instructions *before* the anchor. Several overlapping byte
/// interpretations can masquerade as predecessors, so every plausible
/// (conditional-jump, cmp) chain is tried rather than just the nearest.
/// Returns the implied entry count.
fn bounds_check(
    text: &[u8],
    ss: &Superset,
    viab: &Viability,
    cache: &mut DecodeCache,
    anchor: u32,
) -> Option<u32> {
    for ja_off in predecessors(ss, viab, anchor) {
        let Some(ja) = cache.decode(text, ja_off) else {
            continue;
        };
        if !matches!(ja.mnemonic, Mnemonic::Jcc(_)) {
            continue;
        }
        for cmp_off in predecessors(ss, viab, ja_off) {
            let Some(inst) = cache.decode(text, cmp_off) else {
                continue;
            };
            if inst.mnemonic != Mnemonic::Cmp {
                continue;
            }
            if let Some(Operand::Imm(n)) = inst.operands.get(1) {
                if *n >= 0 && *n < 1 << 20 {
                    return Some(*n as u32 + 1);
                }
            }
        }
    }
    None
}

/// Every viable candidate that falls through onto `off` from within
/// `MAX_INST_LEN` bytes before it (nearest first).
fn predecessors(ss: &Superset, viab: &Viability, off: u32) -> Vec<u32> {
    let mut out = Vec::new();
    for back in 1..=x86_isa::MAX_INST_LEN as u32 {
        let Some(p) = off.checked_sub(back) else {
            break;
        };
        let c = ss.at(p);
        if c.is_valid()
            && viab.is_viable(p)
            && c.len as u32 == back
            && ss.fallthrough(p) == Some(off)
        {
            out.push(p);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use x86_isa::{Asm, Cond, Mem, OpSize};

    /// Build the canonical PIC switch and return (text, expected table off).
    fn pic_switch(entries: u32) -> (Vec<u8>, u32, Vec<u32>) {
        let mut a = Asm::new();
        let l_table = a.label();
        let l_default = a.label();
        let l_end = a.label();
        let cases: Vec<_> = (0..entries).map(|_| a.label()).collect();
        a.cmp_ri(OpSize::Q, Gp::RDI, entries as i32 - 1);
        a.jcc_label(Cond::A, l_default);
        a.lea_rip_label(Gp::RAX, l_table);
        a.movsxd_load(Gp::RCX, Mem::base_index(Gp::RAX, Gp::RDI, 4, 0));
        a.add_rr(OpSize::Q, Gp::RCX, Gp::RAX);
        a.jmp_ind(Gp::RCX);
        a.bind(l_table);
        let table_off = a.len() as u32;
        for &c in &cases {
            a.dd_label_diff(c, l_table);
        }
        let mut case_offs = Vec::new();
        for &c in &cases {
            a.bind(c);
            case_offs.push(a.len() as u32);
            a.mov_ri32(Gp::RAX, 1);
            a.jmp_label(l_end);
        }
        a.bind(l_default);
        a.mov_ri32(Gp::RAX, 0);
        a.bind(l_end);
        a.ret();
        (a.finish().unwrap(), table_off, case_offs)
    }

    fn run_detect(text: &[u8]) -> Vec<DetectedTable> {
        let ss = Superset::build(text);
        let viab = Viability::compute(&ss);
        detect(text, 0x401000, &[], &ss, &viab, 4096)
    }

    #[test]
    fn detects_pic_table_with_bounds() {
        let (text, table_off, case_offs) = pic_switch(6);
        let tables = run_detect(&text);
        assert_eq!(tables.len(), 1, "expected exactly one table: {tables:?}");
        let t = &tables[0];
        assert_eq!(t.table_off, table_off);
        assert_eq!(t.entry_size, 4);
        assert_eq!(t.targets, case_offs);
    }

    #[test]
    fn detects_absolute_table() {
        let text_va = 0x401000u64;
        let mut a = Asm::new();
        let l_table = a.label();
        let l_end = a.label();
        let cases: Vec<_> = (0..4).map(|_| a.label()).collect();
        a.lea_rip_label(Gp::RAX, l_table);
        a.mov_load(OpSize::Q, Gp::RDX, Mem::base_index(Gp::RAX, Gp::RSI, 8, 0));
        a.jmp_ind(Gp::RDX);
        a.bind(l_table);
        let table_off = a.len() as u32;
        for &c in &cases {
            a.dq_label_abs(c, text_va);
        }
        let mut case_offs = Vec::new();
        for &c in &cases {
            a.bind(c);
            case_offs.push(a.len() as u32);
            a.mov_ri32(Gp::RAX, 7);
            a.jmp_label(l_end);
        }
        a.bind(l_end);
        a.ret();
        let text = a.finish().unwrap();
        let ss = Superset::build(&text);
        let viab = Viability::compute(&ss);
        let tables = detect(&text, text_va, &[], &ss, &viab, 4096);
        assert_eq!(tables.len(), 1);
        let t = &tables[0];
        assert_eq!(t.table_off, table_off);
        assert_eq!(t.entry_size, 8);
        // absolute tables without a bounds check stop at the first entry
        // whose decoded target is not viable — all 4 here are.
        assert_eq!(t.targets, case_offs);
    }

    #[test]
    fn detects_compact_byte_table() {
        // lea rax,[rip+T]; movzx rcx, byte [rax+rdi]; add rcx, rax; jmp rcx
        let mut a = Asm::new();
        let l_table = a.label();
        let l_end = a.label();
        let cases: Vec<_> = (0..4).map(|_| a.label()).collect();
        a.cmp_ri(OpSize::Q, Gp::RDI, 3);
        a.jcc_label(Cond::A, l_end);
        a.lea_rip_label(Gp::RAX, l_table);
        a.movzx_load(Gp::RCX, Mem::base_index(Gp::RAX, Gp::RDI, 1, 0), OpSize::B);
        a.add_rr(OpSize::Q, Gp::RCX, Gp::RAX);
        a.jmp_ind(Gp::RCX);
        a.bind(l_table);
        let table_off = a.len() as u32;
        for &c in &cases {
            a.db_label_diff(c, l_table);
        }
        let mut case_offs = Vec::new();
        for &c in &cases {
            a.bind(c);
            case_offs.push(a.len() as u32);
            a.mov_ri32(Gp::RAX, 3);
            a.jmp_label(l_end);
        }
        a.bind(l_end);
        a.ret();
        let text = a.finish().unwrap();
        let tables = run_detect(&text);
        assert_eq!(tables.len(), 1, "{tables:?}");
        assert_eq!(tables[0].entry_size, 1);
        assert_eq!(tables[0].table_off, table_off);
        assert_eq!(tables[0].targets, case_offs);
    }

    #[test]
    fn plain_code_has_no_tables() {
        let mut a = Asm::new();
        a.push_r(Gp::RBP);
        a.mov_rr(OpSize::Q, Gp::RBP, Gp::RSP);
        a.add_ri(OpSize::Q, Gp::RAX, 42);
        a.pop_r(Gp::RBP);
        a.ret();
        let text = a.finish().unwrap();
        assert!(run_detect(&text).is_empty());
    }

    #[test]
    fn lea_without_dispatch_is_not_a_table() {
        let mut a = Asm::new();
        let l = a.label();
        a.lea_rip_label(Gp::RAX, l);
        a.ret();
        a.bind(l);
        a.dq(0x1122334455667788);
        let text = a.finish().unwrap();
        assert!(run_detect(&text).is_empty());
    }

    #[test]
    fn entry_budget_caps_table_and_records_degradation() {
        let (text, _, case_offs) = pic_switch(6);
        let ss = Superset::build(&text);
        let viab = Viability::compute(&ss);
        let out = detect_budgeted(&text, 0x401000, &[], &ss, &viab, 2, &Deadline::unlimited());
        assert_eq!(out.tables.len(), 1);
        let t = &out.tables[0];
        assert!(t.capped);
        assert_eq!(t.targets, case_offs[..2]);
        assert_eq!(out.degradations.len(), 1);
        assert_eq!(out.degradations[0].limit, LimitKind::JumpTableEntries);
        assert_eq!(out.degradations[0].completed, 2);
    }

    #[test]
    fn expired_deadline_skips_anchor_scan() {
        let (text, _, _) = pic_switch(6);
        let ss = Superset::build(&text);
        let viab = Viability::compute(&ss);
        let d = Deadline::start(&crate::limits::Limits::with_deadline_ms(0));
        let out = detect_budgeted(&text, 0x401000, &[], &ss, &viab, 4096, &d);
        assert!(out.tables.is_empty());
        assert_eq!(out.degradations.len(), 1);
        assert_eq!(out.degradations[0].limit, LimitKind::Deadline);
        assert_eq!(out.degradations[0].completed, 0);
    }

    #[test]
    fn bounds_check_caps_entries() {
        // 4 real entries followed by bytes that would also decode as valid
        // offsets — the cmp bound must stop the scan at 4.
        let (text, _, case_offs) = pic_switch(4);
        let tables = run_detect(&text);
        assert_eq!(tables[0].targets.len(), case_offs.len());
    }
}
