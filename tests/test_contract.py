"""CLI contract replay: recorded stdout and exit codes for a fixed matrix.

The fixture tests/data/cli_contract.jsonl holds, one JSON record a line:
`table --format json` for every family from its minimum size to 40 (search
capped at 10 vertices), `compute --method formula --format json` for sizes
1-12 and 30-34, and `construct` for every target at sizes 1-12 (mobius also
at widths 13-40, 197-200 and 385-388). A table record is followed by one
line per row, so a changed row shows as one line in a diff.

The text records also pin stderr: `compute --method both` and `--method
oracle` for sizes 1-12 in text and json (search capped at 14 vertices),
`table --format text` and `--format csv` for every family to 40 (search
capped at 10 vertices), and `verify` on the certificates in tests/data. Each
is `[key, exit code, stderr, body]`. A json body is the parsed stdout; a
text body is its line count, and one record per stdout line follows.
Regenerate with `PYTHONPATH=src python tests/test_contract.py` only
when an output change is intended.
"""

import contextlib
import io
import json
from pathlib import Path

from cordial.cli import main

DATA = Path(__file__).parent / "data"
FIXTURE = DATA / "cli_contract.jsonl"
FAMILIES = ("complete", "cycle", "path", "ladder", "mobius", "wheel")


def invocations():
    """(key, argv) pairs; the key names the record in the fixture."""
    for family in FAMILIES:
        yield f"table {family}", ["table", "--families", family, "--max-n", "40",
                                  "--max-vertices", "10", "--format", "json"]
    for family in FAMILIES:
        for n in [*range(1, 13), *range(30, 35)]:
            yield f"compute {family} {n}", [
                "compute", "--family", family, "--n", str(n),
                "--method", "formula", "--format", "json"]
    for family in FAMILIES:
        for target in ("cordial", "ced", "cvd"):
            for n in range(1, 13):
                yield f"construct {family} {n} {target}", [
                    "construct", "--family", family, "--n", str(n),
                    "--target", target]
    for target in ("cordial", "ced", "cvd"):
        for n in [*range(13, 41), *range(197, 201), *range(385, 389)]:
            yield f"construct mobius {n} {target}", [
                "construct", "--family", "mobius", "--n", str(n),
                "--target", target]
    yield from text_invocations()


def text_invocations():
    """The (key, argv) pairs whose records also pin stderr."""
    for method in ("both", "oracle"):
        for fmt in ("text", "json"):
            for family in FAMILIES:
                for n in range(1, 13):
                    yield f"compute {method} {fmt} {family} {n}", [
                        "compute", "--family", family, "--n", str(n),
                        "--method", method, "--max-vertices", "14", "--format", fmt]
    for fmt in ("text", "csv"):
        for family in FAMILIES:
            yield f"table {fmt} {family}", [
                "table", "--families", family, "--max-n", "40",
                "--max-vertices", "10", "--format", fmt]
    for name in ("accepted", "accepted_explicit", "rejected", "malformed"):
        yield f"verify {name}", ["verify", str(DATA / f"verify_{name}.json")]


ROW_KEYS = ("family", "size", "cordial", "ced", "cvd", "source", "match",
            "witnesses", "notes")


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def record() -> None:
    text_keys = {key for key, _ in text_invocations()}
    lines = []
    for key, argv in invocations():
        code, out, err = invoke(argv)
        if key in text_keys and "json" in argv:
            lines.append([key, code, err, json.loads(out) if out else None])
            continue
        if key in text_keys:
            out_lines = out.splitlines()
            lines.append([key, code, err, len(out_lines)])
            lines.extend(out_lines)
            continue
        payload = json.loads(out) if out else None
        if argv[0] != "table":
            lines.append([key, code, payload])
            continue
        rows = payload["rows"]
        lines.append([key, code, payload["all_match"], len(rows)])
        for row in rows:
            row["witnesses"] = [[w["kind"], w["accepted"]] for w in row["witnesses"]]
            lines.append([row[k] for k in ROW_KEYS])
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text("".join(json.dumps(x, separators=(",", ":")) + "\n"
                               for x in lines))


def recorded():
    """(key, exit code, exact stdout, exact stderr) for every record in the
    fixture; stderr is None where the record does not pin it."""
    text_keys = {key for key, _ in text_invocations()}
    records = [json.loads(line) for line in FIXTURE.read_text().splitlines()]
    i = 0
    while i < len(records):
        key, code, *rest = records[i]
        i += 1
        if key in text_keys:
            err, body = rest
            if isinstance(body, int):
                stdout = "".join(line + "\n" for line in records[i:i + body])
                i += body
            else:
                stdout = "" if body is None else json.dumps(body, indent=2) + "\n"
            yield key, code, stdout, err
            continue
        if key.startswith("table "):
            all_match, count = rest
            rows = []
            for values in records[i:i + count]:
                row = dict(zip(ROW_KEYS, values))
                row["witnesses"] = [{"kind": k, "accepted": ok}
                                    for k, ok in row["witnesses"]]
                rows.append(row)
            i += count
            payload = {"rows": rows, "all_match": all_match}
        else:
            payload = rest[0]
        stdout = "" if payload is None else json.dumps(payload, indent=2) + "\n"
        yield key, code, stdout, None


def test_fixture_covers_the_matrix():
    assert [key for key, *_ in recorded()] == [key for key, _ in invocations()]


def test_cli_replays_the_recorded_contract():
    argvs = dict(invocations())
    diffs = []
    for key, code, stdout, stderr in recorded():
        got_code, got_out, got_err = invoke(argvs[key])
        if (got_code, got_out) != (code, stdout) or stderr not in (None, got_err):
            diffs.append(key)
    assert diffs == []


if __name__ == "__main__":
    record()
