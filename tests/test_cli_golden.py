"""Golden CLI outputs: exact stdout and exit code per invocation.

Every case runs ``cli.run`` on the README fixtures (the shaded bowtie
``L``, the tailed triangle ``K`` and the ``fold.map`` listing) or on a
small generated pair, in text and ``--json`` form.  The expected
outputs live in ``cli_golden.json`` next to this file; regenerate them
with ``PYTHONPATH=src python tests/test_cli_golden.py`` only when an
output change is intended; it prints each row whose output changed and
flags any change other than a ``"nodes"`` line.
"""

import difflib
import json
import re
from pathlib import Path

import pytest

from facetcx import cli, generate, samples
from facetcx.scx import serialize_scx

GOLDEN = Path(__file__).with_name("cli_golden.json")

_FOLD_MAP = "m a a'\nm b b'\nm c c'\nm d b'\nm e a'\n"

CASES: dict[str, list[str]] = {
    "info": ["info", "{L}"],
    "chromatic": ["chromatic", "{L}"],
    "chromatic_graph": ["chromatic", "{L}", "--graph"],
    "chromatic_strict": ["chromatic", "{L}", "--strict"],
    "map_check_none": ["map-check", "{L}", "{K}", "--kind", "facet"],
    "map_check_found": ["map-check", "{L}", "{K}", "--kind", "strict"],
    "map_check_classify_yes": ["map-check", "{L}", "{K}", "--strict", "--map", "{MAP}"],
    "map_check_classify_no": ["map-check", "{L}", "{K}", "--map", "{MAP}"],
    "map_check_undecided": ["map-check", "{A}", "{B}", "--node-budget", "3"],
    "complexity_facet": ["complexity", "{L}", "{K}"],
    "complexity_facet_injective": ["complexity", "{L}", "{K}", "--injective"],
    "complexity_strict": ["complexity", "{L}", "{K}", "--kind", "strict"],
    "complexity_strict_injective": ["complexity", "{L}", "{K}", "--strict", "--injective"],
    "complexity_infinite": ["complexity", "{EDGE}", "{TRI}"],
    "complexity_undecided": ["complexity", "{A}", "{B}", "--strict", "--node-budget", "3"],
    "complexity_bounds_only": ["complexity", "{L}", "{K}", "--bounds-only"],
    "complexity_bounds_only_injective": [
        "complexity", "{TRI}", "{TRI}", "--injective", "--bounds-only",
    ],
    "bounds": ["bounds", "{L}", "{K}"],
    "bounds_strict": ["bounds", "{L}", "{K}", "--strict"],
    "oracle_map_search_none": ["oracle", "map-search", "{L}", "{K}"],
    "oracle_map_search_found": ["oracle", "map-search", "{L}", "{K}", "--kind", "strict"],
    "oracle_complexity": ["oracle", "complexity", "{L}", "{K}"],
    "oracle_complexity_infinite": ["oracle", "complexity", "{EDGE}", "{TRI}"],
    "oracle_chromatic": ["oracle", "chromatic", "{L}"],
    "verify": ["verify", "--trials", "5"],
    "verify_replay": ["verify", "--replay", "{BUNDLE}"],
}
# Commands without --json.
PLAIN_CASES: dict[str, list[str]] = {
    "gen_gamma": ["gen", "gamma", "4"],
    "gen_kn": ["gen", "kn", "4"],
    "gen_random": ["gen", "random", "6", "--seed", "7"],
    **{f"gen_sample_{n}": ["gen", "sample", n] for n in samples.names()},
    "skeleton": ["skeleton", "{L}", "1"],
}


def all_cases() -> dict[str, list[str]]:
    out = dict(PLAIN_CASES)
    for name, argv in CASES.items():
        out[name] = argv
        out[name + "_json"] = argv + ["--json"]
    return out


def write_inputs(directory: Path) -> dict[str, str]:
    bowtie = samples.load("shaded_bowtie")
    tailed = samples.load("tailed_triangle")
    texts = {
        "L": serialize_scx(bowtie),
        "K": serialize_scx(tailed),
        "MAP": _FOLD_MAP,
        "A": serialize_scx(generate("random", 7, {"seed": 3})),
        "B": serialize_scx(generate("random", 6, {"seed": 9, "density": 0.3})),
        "EDGE": "f a b\n",
        "TRI": "f x y z\n",
        "BUNDLE": json.dumps({
            "check": "check_structure",
            "instances": {
                "L": serialize_scx(bowtie),
                "H": serialize_scx(tailed),
                "K": serialize_scx(tailed),
            },
        }),
    }
    paths = {}
    for key, text in texts.items():
        path = directory / f"{key}.in"
        path.write_text(text)
        paths[key] = str(path)
    return paths


def invoke(argv: list[str], paths: dict[str, str]) -> int:
    return cli.run([a.format(**paths) for a in argv])


def test_golden_covers_every_case():
    assert set(json.loads(GOLDEN.read_text())) == set(all_cases())


@pytest.mark.parametrize("name", sorted(all_cases()))
def test_golden_output(name, tmp_path, capsys):
    expected = json.loads(GOLDEN.read_text())[name]
    code = invoke(all_cases()[name], write_inputs(tmp_path))
    assert {"code": code, "stdout": capsys.readouterr().out} == expected


def changed_rows(old: dict, new: dict) -> list[str]:
    """One report line per row that differs; rows whose only difference
    is a ``"nodes"`` line are marked as such, every other change is flagged."""
    nodes_line = re.compile(r' *"nodes": \d+,?')
    report = []
    for name in sorted(set(old) | set(new)):
        before, after = old.get(name), new.get(name)
        if before == after:
            continue
        if before is None or after is None:
            report.append(f"{name}: {'added' if before is None else 'removed'}")
            continue
        lines = difflib.ndiff(before["stdout"].splitlines(), after["stdout"].splitlines())
        only_nodes = before["code"] == after["code"] and all(
            nodes_line.fullmatch(line[2:]) for line in lines if line[:2] in ("- ", "+ ")
        )
        report.append(f"{name}: {'nodes only' if only_nodes else 'CHANGED BEYOND NODES'}")
    return report


def test_changed_rows_flags_all_but_nodes_lines():
    row = {"code": 0, "stdout": '{\n  "nodes": 44,\n  "value": 2\n}\n'}
    old = {"same": row, "nodes": row, "value": row, "code": row, "gone": row}
    new = {
        "same": row,
        "nodes": {"code": 0, "stdout": row["stdout"].replace("44", "48")},
        "value": {"code": 0, "stdout": row["stdout"].replace("2\n", "3\n")},
        "code": {"code": 4, "stdout": row["stdout"].replace("44", "48")},
        "new": row,
    }
    assert changed_rows(old, new) == [
        "code: CHANGED BEYOND NODES", "gone: removed", "new: added",
        "nodes: nodes only", "value: CHANGED BEYOND NODES",
    ]


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    golden = {}
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_inputs(Path(tmp))
        for name, argv in sorted(all_cases().items()):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = invoke(argv, paths)
            golden[name] = {"code": code, "stdout": out.getvalue()}
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    print("\n".join(changed_rows(old, golden)) or "no row changed")
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
