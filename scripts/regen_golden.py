#!/usr/bin/env python3
"""Regenerate the frozen golden certificates under tests/golden/.

Run only after re-verifying the expected values in tests/golden_cases.py by
hand; the acceptance suite byte-compares against these files.
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tests"))

from golden_cases import CASES, OTHER_CASES  # noqa: E402

from semistable_gate import cli  # noqa: E402


def certificate_text(command: str, doc: dict) -> str:
    code, out, _ = cli.answer([command], json.dumps(doc))
    if code != 0:
        raise RuntimeError(f"{command} exited {code}")
    return out


def main() -> None:
    golden_dir = pathlib.Path(__file__).resolve().parents[1] / "tests" / "golden"
    golden_dir.mkdir(exist_ok=True)
    for name, command, doc, _ in CASES + OTHER_CASES:
        path = golden_dir / f"{name}.json"
        path.write_text(certificate_text(command, doc), encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
