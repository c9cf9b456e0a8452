#!/usr/bin/env python3
"""Check EXPERIMENTS.md's tables against the bench's golden outputs.

    python3 scripts/check_experiments.py [EXPERIMENTS.md]

Every `###` section whose heading ends in an experiment id in backticks,
such as "### FIG4 — message latency vs message size (`fig4`)", is
checked against bench/expected/<id>.txt, the output `dune runtest` pins
for that experiment. Every number in the section's markdown tables must
appear in that file at the precision the table prints it: some number
in the file, rounded to the table number's decimal places, must equal
it. Two kinds of cell are exempt: the header row, and every cell of a
column whose header contains the word "paper", since those quote the
paper rather than the bench. Prose is not checked.

Exits 1 and lists every table number it could not find.
"""
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
HEADING = re.compile(r"^###\s.*\(`(\w+)`\)\s*$")
# A number not glued to a word ("p95", "FIG4"). A sign counts only at
# the start of a cell or after a space, "(", "|" or "/", where it cannot
# be a hyphen or a range dash. U+2212 is the typographic minus.
NUMBER = re.compile(r"(?:(?<![^\s(|/])[-+−])?(?<![\w.])\d+(?:\.\d+)?")


def numbers(text):
    """The numbers in [text], as (string as printed, value)."""
    out = []
    for m in NUMBER.finditer(text):
        tok = m.group().replace("−", "-").lstrip("+")
        out.append((tok, float(tok)))
    return out


def at_precision(value, places):
    return float(f"{value:.{places}f}")


def sections(lines):
    """(experiment id, heading, body lines) for each checked section."""
    current = None
    for line in lines:
        if line.startswith("#"):
            if current:
                yield current
            m = HEADING.match(line)
            current = (m.group(1), line.strip(), []) if m else None
        elif current:
            current[2].append(line)
    if current:
        yield current


def table_cells(body):
    """Every checked cell of the section's tables."""
    header = None
    for line in body:
        if not line.startswith("|"):
            header = None
            continue
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if header is None:
            header = cells
        elif not all(set(c) <= set("-: ") for c in cells):
            for head, cell in zip(header, cells):
                if "paper" not in head.lower():
                    yield cell


def main():
    doc = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ROOT / "EXPERIMENTS.md")
    missing = []
    checked = 0
    for exp, heading, body in sections(doc.read_text().splitlines()):
        golden_path = ROOT / "bench" / "expected" / f"{exp}.txt"
        if not golden_path.exists():
            missing.append(f"{heading}: no golden file {golden_path.relative_to(ROOT)}")
            continue
        golden = [v for _, v in numbers(golden_path.read_text())]
        for cell in table_cells(body):
            for tok, value in numbers(cell):
                places = len(tok.split(".")[1]) if "." in tok else 0
                checked += 1
                if not any(at_precision(g, places) == value for g in golden):
                    missing.append(f"{heading}: {tok} (cell {cell!r}) is not in {golden_path.relative_to(ROOT)}")
    for m in missing:
        print(m)
    if missing:
        print(f"check_experiments: {len(missing)} table number(s) not in the bench's golden output")
        return 1
    print(f"check_experiments: {checked} table numbers match the bench's golden output")
    return 0


if __name__ == "__main__":
    sys.exit(main())
