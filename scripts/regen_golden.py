#!/usr/bin/env python3
"""Regenerate the frozen golden certificates under tests/golden/.

Every certificate is first checked against the values derived by hand in
tests/golden_cases.py (`hand_check`); if any fails, or any command exits
non-zero, nothing is written and the script exits 1.  The golden test
byte-compares against these files.
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tests"))

from golden_cases import CASES, OTHER_CASES, hand_check  # noqa: E402

from semistable_gate import cli  # noqa: E402


def main() -> int:
    golden_dir = pathlib.Path(__file__).resolve().parents[1] / "tests" / "golden"
    texts, failed = {}, []
    for name, command, doc, _ in CASES + OTHER_CASES:
        code, out, err = cli.answer([command], json.dumps(doc))
        if code != 0:
            failed.append(f"{name}: exit {code}: {err.strip()}")
        elif not hand_check(name, json.loads(out)):
            failed.append(f"{name}: fails its hand-derived check")
        texts[name] = out
    if failed:
        print("nothing written:", *failed, sep="\n  ", file=sys.stderr)
        return 1
    golden_dir.mkdir(exist_ok=True)
    for name, text in texts.items():
        path = golden_dir / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
