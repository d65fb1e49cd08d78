"""Run the exact CLI with numpy blocked and check its outputs by SHA-256.

Puts src/ on the path, so it runs under any Python 3.10+ without the package or
its dependencies installed:

    python tests/check_exact_cli_stdlib.py

A `None` entry in `sys.modules` makes every `import numpy` fail, as on a Python
without it.  Each case calls `lcross.cli.run` in this process and hashes what it
prints.  The digests were recorded from the `lcross` command under Python 3.11;
the first two are CI's Long-horizon and Off-lattice smoke digests.  The script
prints the interpreter version and the cases it checked, and exits nonzero on
the first exit code or digest that differs, or if the Monte-Carlo module was
loaded.
"""

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

sys.modules["numpy"] = None
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lcross.cli import run  # noqa: E402

PROBLEM = {"support": ["-3", "-1", "0", "1/2", "2", "5"], "kernel": "123"}
LAW = {"atoms": [{"v": "-1", "w": "1/2"}, {"v": "2", "w": "1/3"}, {"v": "7/2", "w": "1/6"}]}
# Decided on the first alternative with witness (0, 0, 1), so the verdict's other fields are null.
WITNESS = {
    "support": ["-1", "0", "1/2"],
    "kernel": {"table": [["1", "-1/2", "0"], ["-1/2", "2", "3"], ["0", "3", "-1"]]},
}

# (argv, SHA-256 of stdout); "{dir}" is a temporary directory holding the inputs.
CASES = [
    (
        "crossing --dist rademacher --horizon 2048",
        "a79ba5912882157f4c0bdb85f972ca70f5ed497a94bfe505399ed18be8e106be",
    ),
    (
        "crossing --dist lazy --level 1/3 --horizon 512",
        "49252fcbb972b701ec7b1a5d0cfcdaa4e79862d99c8eb719b500830acf4d78fc",
    ),
    (
        "ratio --family-n 200",
        "fdfb687baf6789c61dc0ef37bddbdebfe7739dcf88f2f7cc40f9e5b9182031db",
    ),
    (
        "dichotomy --input {dir}/problem.json",
        "ea108a5b813aaf9f605e6f4c106433dcf0f721d4e8a003b5e4f67e9d6c0261e7",
    ),
    (
        "lemma1 --dist {dir}/law.json --window 3/2",
        "e2db3a94fe0ee07dd154681b7f04516e98dd4d5838192fba0b74f52be254be6c",
    ),
    (
        "crossing --dist lazy --level 1/3 --horizon 64 --json",
        "4aa9bf38ea04246b77ee713b4f1f1ec35c4f6cf3bac7f2060648dcade15214ca",
    ),
    (
        "ratio --dist lazy --table",
        "28c2ab39c4068368964988fb8b7d7ba69b633afbdb996e83102c89662036d1c6",
    ),
    (
        "ratio --family-n 40 --table",
        "246580aa1cfa22dde34e5ff2f85baf16ffb6c3099f34268ef2676dcf4d7aeaa9",
    ),
    (
        "dichotomy --input {dir}/witness.json",
        "7cd411be02082ab978d4b259ed2e688937d03e48d619ea501aec6b45fb0a0f43",
    ),
]


def main():
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "problem.json").write_text(json.dumps(PROBLEM))
        Path(tmp, "law.json").write_text(json.dumps(LAW))
        Path(tmp, "witness.json").write_text(json.dumps(WITNESS))
        for command, want in CASES:
            out = io.StringIO()
            with redirect_stdout(out):
                code = run(command.format(dir=tmp).split())
            got = hashlib.sha256(out.getvalue().encode()).hexdigest()
            if code != 0 or got != want:
                sys.exit(f"lcross {command}: exit {code}, sha256 {got}, expected exit 0, {want}")
    if "lcross.mc" in sys.modules:
        sys.exit("the exact subcommands loaded lcross.mc")
    version = sys.version.split()[0]
    print(f"Python {version}, numpy blocked: {len(CASES)} exact CLI outputs match their digests")


if __name__ == "__main__":
    main()
