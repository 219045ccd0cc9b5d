//! Workload inputs, the harness's own image builder, and scoring against
//! ground truth.

use bingen::{GenConfig, OptProfile, Workload};
use disasm_core::{Disassembly, Image};
use disasm_eval::SetMetrics;
use std::path::{Path, PathBuf};

/// One input: an ELF on disk plus what the scorer knows about it.
pub struct Input {
    pub name: String,
    pub path: PathBuf,
    pub truth: Truth,
}

pub enum Truth {
    /// A bingen workload: byte labels and instruction starts.
    Synth(Box<Workload>),
    /// objdump-derived truth for a gcc fixture's `.text`.
    Gcc(GccTruth),
}

/// The gcc-real truth file: per-byte labels of `.text`.
pub struct GccTruth {
    pub text_va: u64,
    pub text_fnv1a64: u64,
    pub labels: Vec<Label>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Label {
    Start,
    Body,
    PadStart,
    PadBody,
    Data,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded permutation of `0..n`: the order a run visits its inputs.
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = seed ^ 0x5EED;
    for i in (1..n).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

fn write_elf(dir: &Path, name: &str, w: &Workload) -> PathBuf {
    let path = dir.join(format!("{name}.elf"));
    std::fs::write(&path, w.to_elf().to_bytes()).expect("write generated ELF");
    path
}

const POOL: usize = 48;

/// synth-pool: distinct 2–4 KiB bingen ELFs across all profiles and four
/// embedded-data densities, from one fixed pool seed.
pub fn synth_pool(dir: &Path) -> Vec<Input> {
    let mut state = 0x5E4E_u64;
    (0..POOL)
        .map(|i| {
            let profile = OptProfile::ALL[i % 4];
            let density = [0.0, 0.05, 0.10, 0.20][(i / 4) % 4];
            let gen_seed = 1_000_000 + splitmix64(&mut state) % 1_000_000_000;
            let mut functions = 5 + (splitmix64(&mut state) % 6) as usize;
            let w = loop {
                let w = Workload::generate(&GenConfig::new(gen_seed, profile, functions, density));
                match w.text.len() {
                    n if n < 2 << 10 => functions += 1,
                    n if n > 4 << 10 && functions > 1 => functions -= 1,
                    _ => break w,
                }
            };
            let name = format!("pool-{i:02}-{}-{gen_seed}", profile.name());
            Input {
                path: write_elf(dir, &name, &w),
                name,
                truth: Truth::Synth(Box::new(w)),
            }
        })
        .collect()
}

/// gcc-real: the committed stripped gcc-12 fixtures and their truth files,
/// split into the dynamic fixtures, which the run times, and the `-static`
/// ones, which it only scores (see NOTES.md).
pub fn gcc_real(fixtures: &Path) -> (Vec<Input>, Vec<Input>) {
    let mut names: Vec<String> = std::fs::read_dir(fixtures)
        .unwrap_or_else(|e| panic!("read fixtures {}: {e}", fixtures.display()))
        .filter_map(|e| {
            let name = e.ok()?.file_name().into_string().ok()?;
            name.strip_suffix(".elf").map(str::to_string)
        })
        .collect();
    names.sort();
    assert!(!names.is_empty(), "no fixtures in {}", fixtures.display());
    names
        .into_iter()
        .map(|name| {
            let truth_path = fixtures.join(format!("{name}.truth"));
            let text = std::fs::read_to_string(&truth_path)
                .unwrap_or_else(|e| panic!("read {}: {e}", truth_path.display()));
            Input {
                path: fixtures.join(format!("{name}.elf")),
                truth: Truth::Gcc(parse_truth(&text, &name)),
                name,
            }
        })
        .partition(|i| !i.name.ends_with("-static"))
}

fn parse_truth(text: &str, name: &str) -> GccTruth {
    let field = |key: &str| -> &str {
        text.lines()
            .find_map(|l| l.strip_prefix(key)?.strip_prefix(' '))
            .unwrap_or_else(|| panic!("{name}.truth: no '{key}'"))
    };
    let hex = |s: &str| u64::from_str_radix(s.trim_start_matches("0x"), 16).expect("hex field");
    let text_size: usize = field("text_size").parse().expect("text_size");
    let map = text.split_once("\nstarts\n").expect("starts section").1;
    let mut labels = Vec::with_capacity(text_size);
    for c in map.chars().filter(|c| !c.is_whitespace()) {
        let (start, body, len) = match c {
            'a'..='o' => (Label::Start, Label::Body, c as usize - 'a' as usize + 1),
            'A'..='O' => (
                Label::PadStart,
                Label::PadBody,
                c as usize - 'A' as usize + 1,
            ),
            '.' => (Label::Data, Label::Data, 1),
            _ => panic!("{name}.truth: bad map character {c:?}"),
        };
        labels.push(start);
        labels.extend(std::iter::repeat_n(body, len - 1));
    }
    assert_eq!(
        labels.len(),
        text_size,
        "{name}.truth: map covers the wrong size"
    );
    GccTruth {
        text_va: hex(field("text_va")),
        text_fnv1a64: hex(field("text_fnv1a64")),
        labels,
    }
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The analysis image of a parsed input. bingen ELFs go through
/// `Image::from_elf`, as the CLI does. gcc fixtures get their `.text` with
/// every non-exec allocated section as a data region: `Image::from_elf`
/// would pick the 23-byte `.init`, which comes first.
pub fn image(input: &Input, elf: &elfobj::Elf) -> Image {
    match &input.truth {
        Truth::Synth(_) => Image::from_elf(elf).expect("bingen ELF has text"),
        Truth::Gcc(t) => {
            let text = elf
                .section_by_name(".text")
                .unwrap_or_else(|| panic!("{}: no .text", input.name));
            assert_eq!(
                (text.addr, fnv1a64(&text.data), text.data.len()),
                (t.text_va, t.text_fnv1a64, t.labels.len()),
                "{}: truth does not belong to this .text",
                input.name
            );
            let entry = text
                .contains(elf.entry)
                .then(|| (elf.entry - text.addr) as u32);
            Image {
                text_va: text.addr,
                text: text.data.clone(),
                entry,
                data_regions: elf
                    .sections
                    .iter()
                    .filter(|s| {
                        !s.is_exec() && s.flags & elfobj::SHF_ALLOC != 0 && !s.data.is_empty()
                    })
                    .map(|s| (s.addr, s.data.clone()))
                    .collect(),
            }
        }
    }
}

/// Instruction-start counts plus byte-label errors, pooled over inputs.
/// Padding is scored the way disasm-eval scores it: excluded both ways.
#[derive(Default, Clone, Copy)]
pub struct Score {
    pub inst: SetMetrics,
    pub bytes_scored: u64,
    pub bytes_wrong: u64,
}

impl Score {
    pub fn add(&mut self, input: &Input, d: &Disassembly) {
        match &input.truth {
            Truth::Synth(w) => {
                let s = disasm_eval::metrics::score(w, d);
                self.inst.add(s.inst);
                let b = s.bytes;
                self.bytes_scored +=
                    (b.code_ok + b.code_as_data + b.data_ok + b.data_as_code) as u64;
                self.bytes_wrong += (b.code_as_data + b.data_as_code) as u64;
            }
            Truth::Gcc(t) => {
                let mut m = SetMetrics::default();
                let mut pred = d.inst_starts.iter().peekable();
                for (off, &label) in t.labels.iter().enumerate() {
                    let predicted = pred.next_if_eq(&&(off as u32)).is_some();
                    match (label, predicted) {
                        (Label::Start, true) => m.tp += 1,
                        (Label::Start, false) => m.fn_ += 1,
                        (Label::PadStart, _) | (_, false) => {}
                        (_, true) => m.fp += 1,
                    }
                    let code = d.byte_class[off].is_code();
                    match label {
                        Label::PadStart | Label::PadBody => {}
                        Label::Data => {
                            self.bytes_scored += 1;
                            self.bytes_wrong += code as u64;
                        }
                        Label::Start | Label::Body => {
                            self.bytes_scored += 1;
                            self.bytes_wrong += !code as u64;
                        }
                    }
                }
                self.inst.add(m);
            }
        }
    }

    pub fn byte_error_pct(&self) -> f64 {
        100.0 * self.bytes_wrong as f64 / self.bytes_scored.max(1) as f64
    }
}
