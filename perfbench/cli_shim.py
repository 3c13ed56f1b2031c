"""Run nvisc CLI commands under benchmark control.

    python3 -X importtime perfbench/cli_shim.py --spans FILE -- <nvisc args>

runs one command traced: it times ``import nvisc.cli``, wraps the public
functions (tracer.py), calls ``cli.main`` and writes the spans to FILE.
The command's files and exit code are those of ``python -m nvisc.cli``.

    python3 perfbench/cli_shim.py --chain CONFIG OUTDIR

runs every command of the chain in this one process, untraced, each into
OUTDIR/<command>, and writes the exit codes to OUTDIR/exit_codes.json.
run.py uses it to replay the pinned seed against reference.json.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

import inputs
from tracer import Tracer, install


def step_name(step: list[str]) -> str:
    return step[0] if step[0] != "sweep" else "sweep-" + step[1]


def traced(spans_path: Path, argv: list[str]) -> int:
    t0 = perf_counter()
    from nvisc import cli

    t1 = perf_counter()
    tracer = Tracer()
    install(tracer)
    tracer.begin_op(0, "shim")
    try:
        rc = cli.main(argv)
    finally:
        tracer.end_op()
        spans_path.write_text(json.dumps({"import": [t0, t1], "spans": tracer.spans,
                                          "missing": tracer.missing}), encoding="utf-8")
    return rc


def chain(config: str, outdir: Path) -> int:
    from nvisc import cli

    codes = {}
    for step in inputs.CLI_CHAIN:
        name = step_name(step)
        codes[name] = cli.main(step + ["--config", config, "--out", str(outdir / name), "--quiet"])
    (outdir / "exit_codes.json").write_text(json.dumps(codes), encoding="utf-8")
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["--spans"] and argv[2:3] == ["--"]:
        return traced(Path(argv[1]), argv[3:])
    if argv[:1] == ["--chain"] and len(argv) == 3:
        return chain(argv[1], Path(argv[2]))
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
