#!/usr/bin/env python3
"""Rebuild the gcc-real fixtures and their ground truth.

For every entry of FIXTURES this compiles one C source under src/ with the
host gcc, takes the instruction starts of `.text` from `objdump -d`,
cross-checks them against the function symbols of the unstripped binary,
strips the binary, and writes

    bin/<name>.elf     the stripped ELF the benchmark analyses
    bin/<name>.truth   the instruction-start truth for its .text

The committed outputs mean a benchmark run needs neither gcc nor objdump.
Run it from any directory:

    python3 perfbench/gcc-real/build.py

Truth file format (text, one `key value` per line, then the start map):

    text_va 0x401100        virtual address of .text
    text_size 487599        bytes in .text
    text_fnv1a64 <16 hex>   FNV-1a 64 of the .text bytes (binds truth to ELF)
    insts / padding / functions   counts, for the reader
    starts                  then the map, 100 characters a line:
                            'a'..'o' one instruction of 1..15 bytes,
                            'A'..'O' one padding instruction (nop family,
                            int3) of 1..15 bytes, '.' one byte that objdump
                            did not decode as an instruction.
"""

import os
import re
import struct
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))

# (name, source, gcc flags). -O0/-O2/-O3, PIE and -no-pie, and one -static
# build that brings real glibc text with it. The benchmark times the
# dynamic fixtures and scores the `-static` one untimed (see NOTES.md).
FIXTURES = [
    ("interp-O0-pie", "interp.c", ["-O0", "-fPIE", "-pie"]),
    ("interp-O2-pie", "interp.c", ["-O2", "-fPIE", "-pie"]),
    ("interp-O3-nopie", "interp.c", ["-O3", "-fno-PIE", "-no-pie"]),
    ("sortfp-O2-nopie", "sortfp.c", ["-O2", "-fno-PIE", "-no-pie"]),
    ("sortfp-O3-pie", "sortfp.c", ["-O3", "-fPIE", "-pie"]),
    ("textproc-O2-pie", "textproc.c", ["-O2", "-fPIE", "-pie"]),
    ("textproc-O3-nopie", "textproc.c", ["-O3", "-fno-PIE", "-no-pie"]),
    ("textproc-O2-static", "textproc.c", ["-O2", "-static"]),
]

PADDING = re.compile(r"^(?:(?:data16|cs|ds|rex\S*)\s+)*(?:nop\w*|xchg\s+%ax,%ax|int3)\b")


def fnv1a64(data):
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def text_section(path):
    """(va, bytes) of the section named .text, read from the section headers."""
    with open(path, "rb") as f:
        elf = f.read()
    shoff, = struct.unpack_from("<Q", elf, 0x28)
    shentsize, shnum, shstrndx = struct.unpack_from("<HHH", elf, 0x3A)
    headers = [struct.unpack_from("<IIQQQQIIQQ", elf, shoff + i * shentsize) for i in range(shnum)]
    strtab = headers[shstrndx]
    for name, _type, _flags, addr, off, size, *_ in headers:
        end = elf.index(b"\0", strtab[4] + name)
        if elf[strtab[4] + name:end] == b".text":
            return addr, elf[off:off + size]
    sys.exit(f"{path}: no .text section")


def objdump_insts(path):
    """[(va, is_padding)] for every instruction objdump decodes in .text."""
    out = subprocess.run(
        ["objdump", "-d", "-z", "-w", "--no-show-raw-insn", "-j", ".text", path],
        check=True, capture_output=True, text=True).stdout
    insts = []
    for line in out.splitlines():
        m = re.match(r"^\s*([0-9a-f]+):\t(.*)$", line)
        if not m:
            continue
        text = m.group(2).strip()
        if text.startswith("(bad)"):
            continue
        insts.append((int(m.group(1), 16), bool(PADDING.match(text))))
    return insts


def function_symbols(path, va, size):
    """[(start, size)] of sized FUNC symbols inside .text."""
    out = subprocess.run(["readelf", "-sW", path], check=True, capture_output=True,
                         text=True).stdout
    funcs = set()
    for line in out.splitlines():
        cols = line.split()
        if len(cols) >= 8 and cols[3] == "FUNC" and cols[6] != "UND":
            start, length = int(cols[1], 16), int(cols[2], 0)
            if length > 0 and va <= start < va + size:
                funcs.add((start, length))
    return sorted(funcs)


def build(name, source, flags, tmp):
    unstripped = os.path.join(tmp, name)
    subprocess.run(["gcc", *flags, "-o", unstripped, os.path.join(HERE, "src", source)],
                   check=True)
    va, text = text_section(unstripped)
    insts = objdump_insts(unstripped)
    starts = {a for a, _ in insts}

    # Symtab cross-check: every function starts on an objdump instruction
    # and ends on an instruction boundary (or at the end of .text).
    funcs = function_symbols(unstripped, va, len(text))
    bad = [(s, n) for s, n in funcs
           if s not in starts or (s + n not in starts and s + n != va + len(text))]
    if bad:
        sys.exit(f"{name}: {len(bad)} of {len(funcs)} symbols disagree with objdump, "
                 f"first at {bad[0][0]:#x}")

    chars = []
    pos = va
    for i, (addr, pad) in enumerate(insts):
        if addr < pos:
            sys.exit(f"{name}: overlapping instructions at {addr:#x}")
        chars.append("." * (addr - pos))
        end = insts[i + 1][0] if i + 1 < len(insts) else va + len(text)
        length = end - addr
        if not 1 <= length <= 15:
            sys.exit(f"{name}: instruction at {addr:#x} spans {length} bytes")
        chars.append(chr((ord("A") if pad else ord("a")) + length - 1))
        pos = end
    chars.append("." * (va + len(text) - pos))
    starts_map = "".join(chars)

    elf_out = os.path.join(HERE, "bin", name + ".elf")
    subprocess.run(["strip", "-o", elf_out, unstripped], check=True)
    if text_section(elf_out) != (va, text):
        sys.exit(f"{name}: strip changed .text")

    padding = sum(1 for _, p in insts if p)
    with open(os.path.join(HERE, "bin", name + ".truth"), "w") as f:
        f.write(f"# {name}: gcc {' '.join(flags)} src/{source}\n")
        f.write(f"text_va {va:#x}\ntext_size {len(text)}\n")
        f.write(f"text_fnv1a64 {fnv1a64(text):016x}\n")
        f.write(f"insts {len(insts)}\npadding {padding}\nfunctions {len(funcs)}\n")
        f.write("starts\n")
        for i in range(0, len(starts_map), 100):
            f.write(starts_map[i:i + 100] + "\n")
    print(f"{name}: .text {len(text)} bytes, {len(insts)} instructions "
          f"({padding} padding), {len(funcs)} symbols agree")


def main():
    os.makedirs(os.path.join(HERE, "bin"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for name, source, flags in FIXTURES:
            build(name, source, flags, tmp)


if __name__ == "__main__":
    main()
