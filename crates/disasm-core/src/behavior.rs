//! Register def-use behavioral analysis.
//!
//! Real instruction streams are densely linked: an instruction defines a
//! register and a nearby successor uses it. Misaligned or garbage decodes
//! break these chains. The link rate is learned from the same corpora as
//! the opcode-class model (code vs data), and each chain contributes a
//! per-pair log-likelihood ratio that adds to the statistical score.

use x86_isa::{Gp, Inst, Mnemonic, Operand, Reg};

/// The general-purpose register an instruction defines, if the pipeline can
/// tell cheaply (destination-register forms of common instructions).
pub fn defined_reg(inst: &Inst) -> Option<Gp> {
    use Mnemonic as M;
    let writes_first_operand = matches!(
        inst.mnemonic,
        M::Mov
            | M::MovImm
            | M::Movsxd
            | M::Movzx
            | M::Movsx
            | M::Lea
            | M::Pop
            | M::Add
            | M::Or
            | M::Adc
            | M::Sbb
            | M::And
            | M::Sub
            | M::Xor
            | M::Inc
            | M::Dec
            | M::Not
            | M::Neg
            | M::Imul
            | M::Rol
            | M::Ror
            | M::Rcl
            | M::Rcr
            | M::Shl
            | M::Shr
            | M::Sar
            | M::Setcc(_)
            | M::Cmovcc(_)
            | M::Xchg
    );
    if !writes_first_operand {
        return None;
    }
    match inst.operands.first() {
        Some(Operand::Reg(Reg::Gp { reg, .. })) => Some(*reg),
        _ => None,
    }
}

/// `true` if `inst` reads `reg` through any operand (register operand or
/// memory base/index).
pub fn uses_reg(inst: &Inst, reg: Gp) -> bool {
    inst.operands.iter().any(|op| match op {
        Operand::Reg(Reg::Gp { reg: r, .. }) => *r == reg,
        Operand::Mem(m) => {
            m.base.and_then(Reg::as_gp) == Some(reg) || m.index.and_then(Reg::as_gp) == Some(reg)
        }
        _ => false,
    })
}

/// `true` if `a` defines a register that `b` reads.
pub fn is_linked(a: &Inst, b: &Inst) -> bool {
    match defined_reg(a) {
        Some(r) => uses_reg(b, r),
        None => false,
    }
}

/// Count `(links, pairs)` over consecutive instructions of a decoded
/// stream given by `starts` into `text`.
pub fn count_links(text: &[u8], starts: &[u32]) -> (u64, u64) {
    let mut links = 0u64;
    let mut pairs = 0u64;
    let mut prev: Option<Inst> = None;
    for &off in starts {
        let Ok(inst) = x86_isa::decode_at(text, off as usize) else {
            prev = None;
            continue;
        };
        if let Some(p) = &prev {
            pairs += 1;
            if is_linked(p, &inst) {
                links += 1;
            }
        }
        prev = Some(inst);
    }
    (links, pairs)
}

/// [`count_links`] for a caller that scores many overlapping chains over
/// one text (the statistical pass scores a chain at every undecided
/// offset): each offset is decoded once and only its def-use summary is
/// kept, so rescoring a chain costs lookups instead of full decodes.
#[derive(Debug)]
pub struct LinkCache {
    /// Per text offset: 0 = not decoded yet, [`NO_INST`] = no valid
    /// decode, else [`VALID`] | (defined register + 1) << 16 | read mask.
    memo: Vec<u32>,
}

const VALID: u32 = 1 << 31;
const NO_INST: u32 = 1;

/// Pack `inst`'s [`defined_reg`] and the mask of registers it reads (bit
/// `n` = `Gp(n)`, the registers [`uses_reg`] looks for).
fn summary(inst: &Inst) -> u32 {
    let def = defined_reg(inst).map_or(0, |r| u32::from(r.0) + 1);
    let mut reads = 0u32;
    for op in &inst.operands {
        let regs = match op {
            Operand::Reg(r) => [Some(*r), None],
            Operand::Mem(m) => [m.base, m.index],
            _ => [None, None],
        };
        for g in regs.into_iter().flatten().filter_map(Reg::as_gp) {
            reads |= 1 << g.0;
        }
    }
    VALID | def << 16 | reads
}

impl LinkCache {
    /// An empty cache over a text of `text_len` bytes.
    pub fn new(text_len: usize) -> LinkCache {
        LinkCache {
            memo: vec![0; text_len],
        }
    }

    /// Same result as [`count_links`]`(text, starts)`; `text` must be the
    /// text this cache was built for.
    pub fn count_links(&mut self, text: &[u8], starts: &[u32]) -> (u64, u64) {
        let mut links = 0u64;
        let mut pairs = 0u64;
        let mut prev = NO_INST;
        for &off in starts {
            let Some(slot) = self.memo.get_mut(off as usize) else {
                prev = NO_INST;
                continue;
            };
            if *slot == 0 {
                *slot = x86_isa::decode_at(text, off as usize).map_or(NO_INST, |i| summary(&i));
            }
            let cur = *slot;
            if cur != NO_INST && prev != NO_INST {
                pairs += 1;
                let def = (prev >> 16) & 0x1f;
                if def != 0 && cur & (1 << (def - 1)) != 0 {
                    links += 1;
                }
            }
            prev = cur;
        }
        (links, pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use x86_isa::decode;

    fn d(bytes: &[u8]) -> Inst {
        decode(bytes).unwrap()
    }

    #[test]
    fn defs_and_uses() {
        // mov rax, rbx defines rax
        let mov = d(&[0x48, 0x89, 0xd8]);
        assert_eq!(defined_reg(&mov), Some(Gp::RAX));
        // cmp defines nothing
        let cmp = d(&[0x48, 0x39, 0xd8]);
        assert_eq!(defined_reg(&cmp), None);
        // push defines nothing we track
        assert_eq!(defined_reg(&d(&[0x55])), None);
        // pop rbp defines rbp
        assert_eq!(defined_reg(&d(&[0x5d])), Some(Gp::RBP));
        // add rax,[rbp-8] uses rbp via the memory base
        let add = d(&[0x48, 0x03, 0x45, 0xf8]);
        assert!(uses_reg(&add, Gp::RBP));
        assert!(uses_reg(&add, Gp::RAX));
        assert!(!uses_reg(&add, Gp::RCX));
    }

    #[test]
    fn linked_pairs() {
        // mov rax, 5 ; add rbx, rax  → linked
        let a = d(&[0x48, 0xc7, 0xc0, 0x05, 0x00, 0x00, 0x00]);
        let b = d(&[0x48, 0x01, 0xc3]);
        assert!(is_linked(&a, &b));
        // mov rax, 5 ; ret → not linked
        assert!(!is_linked(&a, &d(&[0xc3])));
    }

    #[test]
    fn count_links_over_stream() {
        // push rbp; mov rbp, rsp; mov rax, [rbp-8]; ret
        let bytes = [
            0x55, // push rbp
            0x48, 0x89, 0xe5, // mov rbp, rsp (defines rbp)
            0x48, 0x8b, 0x45, 0xf8, // mov rax, [rbp-8] (uses rbp)
            0xc3,
        ];
        let (links, pairs) = count_links(&bytes, &[0, 1, 4, 8]);
        assert_eq!(pairs, 3);
        // only (mov rbp,rsp → mov rax,[rbp-8]) is linked: push defines
        // nothing we track, and ret reads nothing
        assert_eq!(links, 1);
    }

    #[test]
    fn link_cache_matches_count_links_on_overlapping_chains() {
        let w = bingen::Workload::generate(&bingen::GenConfig::small(8));
        let text = &w.text;
        let mut cache = LinkCache::new(text.len());
        // a fall-through chain of up to 64 decodes from every offset, so
        // chains overlap and later ones hit the memo
        for start in 0..text.len() as u32 {
            let mut chain = Vec::new();
            let mut off = start as usize;
            while chain.len() < 64 && off < text.len() {
                chain.push(off as u32);
                off += x86_isa::decode_at(text, off).map_or(1, |i| i.len as usize);
            }
            assert_eq!(
                cache.count_links(text, &chain),
                count_links(text, &chain),
                "chain from {start}"
            );
        }
    }
}
