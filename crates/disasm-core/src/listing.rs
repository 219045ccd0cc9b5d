//! Annotated disassembly listings (objdump-style text output).
//!
//! Renders a [`Disassembly`] over its [`Image`]: instructions with address
//! and bytes, data as `db` runs, padding collapsed, function entries and
//! jump tables labeled.

use crate::{ByteClass, Disassembly, Image};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Options for [`render`].
#[derive(Debug, Clone)]
pub struct ListingOptions {
    /// Maximum data bytes shown per `db` line.
    pub data_bytes_per_line: usize,
    /// Collapse padding runs into a single annotation line.
    pub collapse_padding: bool,
    /// Cap on rendered lines (0 = unlimited); a trailer reports elision.
    pub max_lines: usize,
}

impl Default for ListingOptions {
    fn default() -> Self {
        ListingOptions {
            data_bytes_per_line: 16,
            collapse_padding: true,
            max_lines: 0,
        }
    }
}

/// Render an annotated listing of the disassembly.
pub fn render(image: &Image, d: &Disassembly, opts: &ListingOptions) -> String {
    let text = &image.text;
    let base = image.text_va;
    let funcs: BTreeSet<u32> = d.func_starts.iter().copied().collect();
    let table_at = |off: u32| {
        d.jump_tables
            .iter()
            .find(|t| t.in_text && t.table_off == off)
    };

    let mut out = String::new();
    let mut lines = 0usize;
    let push = |out: &mut String, lines: &mut usize, s: &str| -> bool {
        if opts.max_lines > 0 && *lines >= opts.max_lines {
            return false;
        }
        out.push_str(s);
        out.push('\n');
        *lines += 1;
        true
    };

    let mut i = 0usize;
    let mut fn_counter = 0usize;
    'outer: while i < text.len() {
        let off = i as u32;
        match d.byte_class[i] {
            ByteClass::InstStart => {
                if funcs.contains(&off) {
                    fn_counter += 1;
                    if !push(
                        &mut out,
                        &mut lines,
                        &format!("\n{:016x} <fn_{}>:", base + off as u64, fn_counter),
                    ) {
                        break 'outer;
                    }
                }
                let inst = match x86_isa::decode(&text[i..]) {
                    Ok(inst) => inst,
                    Err(_) => {
                        // should not happen for accepted starts; degrade
                        if !push(
                            &mut out,
                            &mut lines,
                            &format!("{:8x}: <undecodable>", base + off as u64),
                        ) {
                            break 'outer;
                        }
                        i += 1;
                        continue;
                    }
                };
                let bytes_hex: String = text[i..i + inst.len as usize]
                    .iter()
                    .map(|b| format!("{b:02x} "))
                    .collect();
                if !push(
                    &mut out,
                    &mut lines,
                    &format!(
                        "{:8x}:   {:<30} {}",
                        base + off as u64,
                        bytes_hex.trim_end(),
                        inst.display_at(base + off as u64)
                    ),
                ) {
                    break 'outer;
                }
                i += inst.len as usize;
            }
            ByteClass::InstBody => {
                // orphaned body byte (shouldn't occur); emit as data
                i += 1;
            }
            ByteClass::Padding => {
                let start = i;
                while i < text.len() && d.byte_class[i] == ByteClass::Padding {
                    i += 1;
                }
                if opts.collapse_padding {
                    if !push(
                        &mut out,
                        &mut lines,
                        &format!(
                            "{:8x}:   <padding: {} bytes>",
                            base + start as u64,
                            i - start
                        ),
                    ) {
                        break 'outer;
                    }
                } else {
                    for b in start..i {
                        if !push(
                            &mut out,
                            &mut lines,
                            &format!("{:8x}:   {:02x}  (pad)", base + b as u64, text[b]),
                        ) {
                            break 'outer;
                        }
                    }
                }
            }
            ByteClass::Data => {
                let start = i;
                while i < text.len() && d.byte_class[i] == ByteClass::Data {
                    i += 1;
                }
                let annot = match table_at(start as u32) {
                    Some(t) => {
                        format!(" ; jump table: {} x {}B entries", t.entries(), t.entry_size)
                    }
                    None => String::new(),
                };
                let mut pos = start;
                let mut first = true;
                while pos < i {
                    let end = (pos + opts.data_bytes_per_line).min(i);
                    let hex: String = text[pos..end].iter().map(|b| format!("{b:02x} ")).collect();
                    let mut line = format!("{:8x}:   db {}", base + pos as u64, hex.trim_end());
                    if first {
                        let _ = write!(line, "{annot}");
                        first = false;
                    }
                    if !push(&mut out, &mut lines, &line) {
                        break 'outer;
                    }
                    pos = end;
                }
            }
        }
    }
    if opts.max_lines > 0 && lines >= opts.max_lines {
        let _ = writeln!(out, "... (listing truncated at {} lines)", opts.max_lines);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Config, Disassembler};
    use x86_isa::{Asm, Gp, OpSize};

    fn listing_of(text: Vec<u8>) -> String {
        let image = Image::new(0x401000, text);
        let d = Disassembler::new(Config::default()).disassemble(&image);
        render(&image, &d, &ListingOptions::default())
    }

    #[test]
    fn instructions_rendered_with_bytes() {
        let mut a = Asm::new();
        a.push_r(Gp::RBP);
        a.mov_rr(OpSize::Q, Gp::RBP, Gp::RSP);
        a.pop_r(Gp::RBP);
        a.ret();
        let s = listing_of(a.finish().unwrap());
        assert!(s.contains("push rbp"), "{s}");
        assert!(s.contains("48 89 e5"), "{s}");
        assert!(s.contains("mov rbp, rsp"), "{s}");
        assert!(s.contains("<fn_1>"), "{s}");
    }

    #[test]
    fn data_rendered_as_db() {
        let mut a = Asm::new();
        let skip = a.label();
        a.jmp_short(skip);
        a.bytes(&[0xde, 0xad, 0xbe, 0xef]);
        a.bind(skip);
        a.ret();
        let s = listing_of(a.finish().unwrap());
        assert!(s.contains("db de ad be ef"), "{s}");
    }

    #[test]
    fn padding_collapsed() {
        let mut a = Asm::new();
        a.ret();
        while !a.len().is_multiple_of(16) {
            a.nop(1);
        }
        a.ret();
        let s = listing_of(a.finish().unwrap());
        assert!(s.contains("<padding: 15 bytes>"), "{s}");
    }

    #[test]
    fn max_lines_truncates() {
        let mut a = Asm::new();
        for _ in 0..100 {
            a.push_r(Gp::RAX);
        }
        a.ret();
        let image = Image::new(0x1000, a.finish().unwrap());
        let d = Disassembler::new(Config::default()).disassemble(&image);
        let s = render(
            &image,
            &d,
            &ListingOptions {
                max_lines: 10,
                ..ListingOptions::default()
            },
        );
        assert!(s.contains("truncated"), "{s}");
        assert!(s.lines().count() <= 12);
    }

    #[test]
    fn jump_table_annotated() {
        use x86_isa::{Cond, Mem};
        let mut a = Asm::new();
        let l_table = a.label();
        let l_default = a.label();
        let l_end = a.label();
        let cases: Vec<_> = (0..4).map(|_| a.label()).collect();
        a.cmp_ri(OpSize::Q, Gp::RDI, 3);
        a.jcc_label(Cond::A, l_default);
        a.lea_rip_label(Gp::RAX, l_table);
        a.movsxd_load(Gp::RCX, Mem::base_index(Gp::RAX, Gp::RDI, 4, 0));
        a.add_rr(OpSize::Q, Gp::RCX, Gp::RAX);
        a.jmp_ind(Gp::RCX);
        a.bind(l_table);
        for &c in &cases {
            a.dd_label_diff(c, l_table);
        }
        for &c in &cases {
            a.bind(c);
            a.mov_ri32(Gp::RAX, 1);
            a.jmp_label(l_end);
        }
        a.bind(l_default);
        a.bind(l_end);
        a.ret();
        let s = listing_of(a.finish().unwrap());
        assert!(s.contains("jump table: 4 x 4B entries"), "{s}");
    }
}
