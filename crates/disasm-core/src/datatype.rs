//! Classification of recovered data regions.
//!
//! Once the pipeline has separated code from data, downstream users want to
//! know *what kind* of data each region is: a jump table, a string pool, an
//! array of pointers, or opaque bytes. These are the same heuristics
//! interactive tools apply, driven by the region contents and the detected
//! structures.

use crate::{ByteClass, Disassembly, Image};

/// Inferred kind of a data region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataKind {
    /// Overlaps a structurally detected jump table.
    JumpTable,
    /// Mostly printable ASCII with NUL terminators.
    StringPool,
    /// Array of 8-byte values pointing into the text section.
    PointerArray,
    /// Plausible numeric constant pool (small integers / doubles).
    Numeric,
    /// No structure recognized.
    Opaque,
}

impl DataKind {
    /// Short label for listings and reports.
    pub fn label(self) -> &'static str {
        match self {
            DataKind::JumpTable => "jump table",
            DataKind::StringPool => "string pool",
            DataKind::PointerArray => "pointer array",
            DataKind::Numeric => "numeric pool",
            DataKind::Opaque => "opaque",
        }
    }
}

/// A classified maximal run of data bytes in the text section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataRegion {
    /// First byte offset.
    pub start: u32,
    /// One past the last byte.
    pub end: u32,
    /// Inferred kind.
    pub kind: DataKind,
}

impl DataRegion {
    /// Region length in bytes.
    pub fn len(&self) -> u32 {
        self.end - self.start
    }

    /// `true` for a zero-length region (never produced by
    /// [`classify_data_regions`]).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Find and classify every maximal data run of a disassembled image.
pub fn classify_data_regions(image: &Image, d: &Disassembly) -> Vec<DataRegion> {
    let mut out = Vec::new();
    let n = image.text.len();
    let mut i = 0usize;
    while i < n {
        if d.byte_class[i] != ByteClass::Data {
            i += 1;
            continue;
        }
        let start = i;
        while i < n && d.byte_class[i] == ByteClass::Data {
            i += 1;
        }
        out.push(DataRegion {
            start: start as u32,
            end: i as u32,
            kind: classify(image, d, start as u32, i as u32),
        });
    }
    out
}

pub(crate) fn classify(image: &Image, d: &Disassembly, start: u32, end: u32) -> DataKind {
    // jump table overlap wins
    if d.jump_tables
        .iter()
        .any(|t| t.in_text && t.table_off < end && t.table_off + t.byte_len() > start)
    {
        return DataKind::JumpTable;
    }
    let bytes = &image.text[start as usize..end as usize];
    if is_string_pool(bytes) {
        return DataKind::StringPool;
    }
    if is_pointer_array(bytes, image) {
        return DataKind::PointerArray;
    }
    if is_numeric_pool(bytes) {
        return DataKind::Numeric;
    }
    DataKind::Opaque
}

fn is_string_pool(bytes: &[u8]) -> bool {
    if bytes.len() < 4 {
        return false;
    }
    let printable = bytes
        .iter()
        .filter(|&&b| (0x20..0x7f).contains(&b) || b == 0 || b == b'\n' || b == b'\t')
        .count();
    let nuls = bytes.iter().filter(|&&b| b == 0).count();
    printable * 10 >= bytes.len() * 9 && nuls >= 1 && nuls * 4 <= bytes.len() * 3
}

fn is_pointer_array(bytes: &[u8], image: &Image) -> bool {
    if bytes.len() < 16 || !bytes.len().is_multiple_of(8) {
        return false;
    }
    let lo = image.text_va;
    let hi = image.text_va + image.text.len() as u64;
    let words = bytes.chunks_exact(8);
    let total = words.len();
    let in_range = bytes
        .chunks_exact(8)
        .filter(|w| {
            let v = u64::from_le_bytes((*w).try_into().unwrap());
            (v >= lo && v < hi)
                || image
                    .data_regions
                    .iter()
                    .any(|(va, b)| v >= *va && v < *va + b.len() as u64)
        })
        .count();
    in_range * 2 > total
}

fn is_numeric_pool(bytes: &[u8]) -> bool {
    // 4- or 8-byte aligned records whose values are small integers or
    // plausible doubles (biased exponent in the "ordinary magnitude" band)
    if bytes.len() >= 12 && bytes.len().is_multiple_of(4) {
        let small_u32 = bytes
            .chunks_exact(4)
            .filter(|w| u32::from_le_bytes((*w).try_into().unwrap()) < 1 << 20)
            .count();
        if small_u32 * 3 >= bytes.len() / 4 * 2 {
            return true;
        }
    }
    if bytes.len() >= 16 && bytes.len().is_multiple_of(8) {
        let doubleish = bytes
            .chunks_exact(8)
            .filter(|w| {
                let v = u64::from_le_bytes((*w).try_into().unwrap());
                let exp = ((v >> 52) & 0x7ff) as i64 - 1023;
                v == 0 || (-64..=64).contains(&exp)
            })
            .count();
        if doubleish * 3 >= bytes.len() / 8 * 2 {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Config, Disassembler};
    use x86_isa::{Asm, Gp};

    fn regions_of(text: Vec<u8>) -> (Image, Vec<DataRegion>) {
        let image = Image::new(0x401000, text);
        let d = Disassembler::new(Config::default()).disassemble(&image);
        let r = classify_data_regions(&image, &d);
        (image, r)
    }

    fn skip_blob(blob: &[u8]) -> Vec<u8> {
        let mut a = Asm::new();
        let skip = a.label();
        a.jmp_short(skip);
        a.bytes(blob);
        a.bind(skip);
        a.mov_ri32(Gp::RAX, 1);
        a.ret();
        a.finish().unwrap()
    }

    #[test]
    fn string_pool_recognized() {
        let (_, r) = regions_of(skip_blob(b"hello world\0more text here\0"));
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].kind, DataKind::StringPool);
        assert_eq!(r[0].len(), 27);
    }

    #[test]
    fn pointer_array_recognized() {
        // four pointers at the entry point (real code, outside the blob —
        // pointers into the blob itself would be accepted as address-taken
        // code and dissolve the region)
        let mut blob = Vec::new();
        for _ in 0..4 {
            blob.extend_from_slice(&0x401000u64.to_le_bytes());
        }
        let (_, r) = regions_of(skip_blob(&blob));
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].kind, DataKind::PointerArray);
    }

    #[test]
    fn numeric_pool_recognized() {
        let mut blob = Vec::new();
        for v in [1u32, 100, 4096, 77, 3] {
            blob.extend_from_slice(&v.to_le_bytes());
        }
        let (_, r) = regions_of(skip_blob(&blob));
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].kind, DataKind::Numeric);
    }

    #[test]
    fn opaque_fallback() {
        let blob: Vec<u8> = (0..33u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8 | 0x80)
            .collect();
        let (_, r) = regions_of(skip_blob(&blob));
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].kind, DataKind::Opaque, "{:02x?}", blob);
    }

    #[test]
    fn generated_workload_classifies_sanely() {
        let w = bingen::Workload::generate(&bingen::GenConfig::new(
            44,
            bingen::OptProfile::O1,
            25,
            0.15,
        ));
        let image = Image::new(w.text_base(), w.text.clone()).with_entry(w.entry_off);
        let d = Disassembler::new(Config::default()).disassemble(&image);
        let regions = classify_data_regions(&image, &d);
        assert!(!regions.is_empty());
        // every generated in-text jump table region must be classified as one
        let table_hits = regions
            .iter()
            .filter(|r| r.kind == DataKind::JumpTable)
            .count();
        let truth_tables = w.truth.jump_tables.iter().filter(|t| !t.in_rodata).count();
        assert!(
            table_hits >= truth_tables / 2,
            "{table_hits} table regions vs {truth_tables} truth tables"
        );
        // kinds should be diverse on a mixed workload
        let kinds: std::collections::BTreeSet<_> = regions.iter().map(|r| r.kind.label()).collect();
        assert!(kinds.len() >= 3, "{kinds:?}");
    }
}
