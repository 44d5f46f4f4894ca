"""Compare the CLI's outputs of two trees, run by run and cell by cell.

Usage:

    python tools/output_diff.py TREE_A TREE_B

For each tree, a child process with that tree's `src` and `tools`
directories first on its path runs every command of that tree's
`output_digest.commands()` through `pdflow.cli.main`, each in its own
directory, and keeps its exit code, stdout, stderr and the files it wrote.
Warnings are kept as their category and message.  Runs are matched by
their arguments.

For each run the script prints the two exit codes, the stop reasons and
data-row counts of its CSV files and its `check` verdict rows, then one
line per output: the largest |b - a| / max(1, |a|) over the numeric cells
of the output, with a read from TREE_A.  `key = value` lines (CSV footers
and reports) are compared by key, and other lines by position, split into
cells at commas, blanks, `=` and `:`.

A key found in one tree only is noted.  Any other difference is flagged:
a run, output, line or cell found in one tree only, a non-numeric cell
that differs, a numeric cell that is not finite on one side only, or two
numeric cells of equal value whose text differs (a sign-of-zero flip).  The
exit status is 1 if an exit code, stop reason, row count or verdict
differs or anything is flagged, else 0.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings

_KEY_VALUE = re.compile(r"^#?\s*([\w.\-]+) = (.*)$")
_CELL_SEP = re.compile(r"[\s,=:]+")
_VERDICT = re.compile(r"^(ok|FAIL|skip)\s+(\S+):", re.M)


def emit(tree, out_dir) -> int:
    """Run the tree's digest commands, one directory per run under out_dir.

    Each run directory holds `files/` (what the run wrote), `stdout`,
    `stderr` and `run.json` with the arguments and exit code.
    """
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "tools")]
    import output_digest
    from pdflow import cli

    for i, argv in enumerate(output_digest.commands()):
        run_dir = os.path.join(out_dir, f"{i:03d}")
        files = os.path.join(run_dir, "files")
        os.makedirs(files)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(argv + ["--out", files])
        # warnings without the file and line they came from, which differ
        # between trees
        err.writelines(f"{w.category.__name__}: {w.message}\n" for w in caught)
        for name, text in (("stdout", out.getvalue()), ("stderr", err.getvalue())):
            with open(os.path.join(run_dir, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        with open(os.path.join(run_dir, "run.json"), "w", encoding="utf-8") as fh:
            json.dump({"argv": argv, "code": code}, fh)
    return 0


def _load(out_dir) -> dict:
    """' '.join(argv) -> (exit code, {output name: text}) for one tree."""
    runs = {}
    for run in sorted(os.listdir(out_dir)):
        run_dir = os.path.join(out_dir, run)
        with open(os.path.join(run_dir, "run.json"), encoding="utf-8") as fh:
            meta = json.load(fh)
        texts = {}
        for name in ("stdout", "stderr"):
            with open(os.path.join(run_dir, name), encoding="utf-8") as fh:
                texts[f"<{name}>"] = fh.read()
        files = os.path.join(run_dir, "files")
        for name in sorted(os.listdir(files)):
            with open(os.path.join(files, name), encoding="utf-8") as fh:
                texts[name] = fh.read()
        runs[" ".join(meta["argv"])] = (meta["code"], texts)
    return runs


def _parse(text):
    """The positional lines of a text, split into cells, and its
    `key = value` lines as a dict of cells."""
    lines, pairs = [], {}
    for line in text.splitlines():
        kv = _KEY_VALUE.match(line)
        if kv:
            pairs[kv.group(1)] = _CELL_SEP.split(kv.group(2).strip())
        else:
            lines.append(_CELL_SEP.split(line.strip()))
    return lines, pairs


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def _cell_delta(a, b):
    """|b - a| / max(1, |a|) for two numeric cells, else None when the
    cells are equal text and inf when they differ.  Numeric cells of equal
    value but different text, such as -0.0 and 0.0, are inf too."""
    x, y = _number(a), _number(b)
    if x is None or y is None:
        return None if a == b else math.inf
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0 if a == b else math.inf
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(y - x) / max(1.0, abs(x))


def _compare_cells(a_cells, b_cells, where, flags):
    worst = 0.0
    if len(a_cells) != len(b_cells):
        flags.append(f"{where}: {len(a_cells)} vs {len(b_cells)} cells")
        return worst
    for a, b in zip(a_cells, b_cells):
        d = _cell_delta(a, b)
        if d == math.inf:
            flags.append(f"{where}: {a!r} vs {b!r}")
        elif d is not None:
            worst = max(worst, d)
    return worst


def compare_text(a_text, b_text, name, flags, notes) -> float:
    """The largest relative cell move between two outputs; a key found in
    one output only goes to notes, any other difference that is not a
    numeric move to flags."""
    a_lines, a_pairs = _parse(a_text)
    b_lines, b_pairs = _parse(b_text)
    worst = 0.0
    if len(a_lines) != len(b_lines):
        flags.append(f"{name}: {len(a_lines)} vs {len(b_lines)} lines")
    for i, (a, b) in enumerate(zip(a_lines, b_lines)):
        worst = max(worst, _compare_cells(a, b, f"{name} line {i + 1}", flags))
    for key in sorted(a_pairs.keys() | b_pairs.keys()):
        if key not in a_pairs or key not in b_pairs:
            side = "A" if key in a_pairs else "B"
            notes.append(f"{name}: key {key} only in {side}")
            continue
        worst = max(worst, _compare_cells(a_pairs[key], b_pairs[key],
                                          f"{name} {key}", flags))
    return worst


def _csv_facts(texts) -> dict:
    """CSV name -> (stop reason, data rows) of one run."""
    facts = {}
    for name, text in texts.items():
        if name.endswith(".csv"):
            lines = text.splitlines()[1:]
            rows = sum(1 for ln in lines if not ln.startswith("#"))
            _, pairs = _parse(text)
            facts[name] = (" ".join(pairs.get("stop_reason", ["-"])), rows)
    return facts


def _verdicts(texts) -> list:
    return _VERDICT.findall(texts.get("<stdout>", ""))


def report(runs_a, runs_b) -> int:
    failed = 0
    overall = 0.0
    for argv in list(runs_a) + [a for a in runs_b if a not in runs_a]:
        if argv not in runs_a or argv not in runs_b:
            side = "A" if argv in runs_a else "B"
            print(f"{argv}: only in {side}  FLAG")
            failed += 1
            continue
        (code_a, texts_a), (code_b, texts_b) = runs_a[argv], runs_b[argv]
        flags, notes = [], []
        worst = {}
        for name in sorted(texts_a.keys() | texts_b.keys()):
            if name not in texts_a or name not in texts_b:
                flags.append(f"{name} only in {'A' if name in texts_a else 'B'}")
                continue
            worst[name] = compare_text(texts_a[name], texts_b[name], name,
                                       flags, notes)
        facts_a, facts_b = _csv_facts(texts_a), _csv_facts(texts_b)
        verdicts_a, verdicts_b = _verdicts(texts_a), _verdicts(texts_b)
        same = (code_a == code_b and facts_a == facts_b
                and verdicts_a == verdicts_b and not flags)
        failed += not same
        run_worst = max(worst.values(), default=0.0)
        overall = max(overall, run_worst)
        print(f"{argv}: exit {code_a}/{code_b}, max rel move {run_worst:.3g}"
              + ("" if same else "  FLAG"))
        for name in sorted(facts_a.keys() | facts_b.keys()):
            (stop_a, rows_a), (stop_b, rows_b) = (
                facts_a.get(name, ("-", 0)), facts_b.get(name, ("-", 0)))
            print(f"  {name}: stop {stop_a}/{stop_b}, rows {rows_a}/{rows_b}")
        if verdicts_a or verdicts_b:
            verdict = ("same" if verdicts_a == verdicts_b else
                       f"{verdicts_a} vs {verdicts_b}")
            print(f"  check verdicts ({len(verdicts_a)} rows): {verdict}")
        for name, d in worst.items():
            print(f"  {name}: max rel move {d:.3g}")
        for note in notes:
            print(f"  note {note}")
        for flag in flags:
            print(f"  FLAG {flag}")
    print(f"largest relative cell move over all runs: {overall:.3g}; "
          f"{failed} run(s) flagged")
    return 1 if failed else 0


def main(argv) -> int:
    if len(argv) == 3 and argv[0] == "--emit":
        return emit(argv[1], argv[2])
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, tree in enumerate(argv):
            tree = os.path.abspath(tree)
            out_dir = os.path.join(tmp, str(i))
            os.makedirs(out_dir)
            env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
            subprocess.run([sys.executable, os.path.abspath(__file__), "--emit",
                            tree, out_dir], cwd=tree, env=env, check=True)
            runs.append(_load(out_dir))
    return report(*runs)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
