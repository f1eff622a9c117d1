"""End-to-end benchmark of the crashlens CLI chain.

Run from the root of a crashlens checkout:

    python3 perfbench/run.py --workload synth-offline --seed 1 --seconds 40 --trace 0

With --trace 0 it times set-up (cold `--help` starts) and then repeats the
full chain of thirteen `python -m crashlens.cli` calls until --seconds have
passed (at least three times), checks every artifact, and reports the
end-to-end medians. With --trace 1 it runs `python -X importtime`, one chain of
subprocesses for its CPU time, and one in-process chain with every layer
wrapped, and reports the per-layer metrics. The last line of stdout is one
JSON object; a failed stage or check exits 1 and names what failed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
from fakechat import FakeChatServer
from layers import PER_LAYER, Tracer, unit_of

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PER_CHAIN = 2
MIN_CHAINS = 3

# name -> (corpus: bundled or synthesized case count, offline); bundled-offline
# is not in BENCHMARK.json (see the README), but stays runnable by hand
WORKLOADS = {
    "bundled-offline": (None, True),
    "synth-offline": (200, True),
    "endpoint-latency": (40, False),
}
STAGES = ("prepare", "augment", "train", "attribute", "analyze", "eval")


class StageFailed(Exception):
    def __init__(self, command: str, detail: str):
        super().__init__(f"stage {command!r} failed: {detail}")


def chain_commands(ctx, out: Path) -> list[tuple[str, str, list[str]]]:
    """(stage, file stem, argv) for each of the thirteen CLI calls of one chain."""
    corpus = ctx.corpus
    llm = ["--offline"] if ctx.offline else ["--endpoint", ctx.url, "--jobs", str(min(2, os.cpu_count() or 1))]
    narratives = ["--narratives", str(out / "narratives.jsonl")]
    model = ["--model", str(out / "model.json"), "--tokenizer", str(out / "tokenizer.json")]
    tables = [f"--{t}={corpus / f'{t}.csv'}" for t in ("crashes", "segments", "vehicles", "persons")]
    cmds = [
        ("prepare", "ingest", ["ingest", *tables, "--out", str(out / "cases.jsonl")]),
        ("prepare", "narrate", ["narrate", "--cases", str(out / "cases.jsonl"), "--out", str(out / "narratives.jsonl")]),
        ("augment", "augment", ["augment", *narratives, "--out", str(out / "augmented.jsonl"), *llm]),
        ("train", "train-ref", ["train-ref", *narratives, "--out-model", str(out / "model.json"),
                                "--out-tokenizer", str(out / "tokenizer.json")]),
    ]
    for method in ("occlusion", "taylor"):
        cmds.append(("attribute", f"attribute-{method}", ["attribute", *narratives, *model, "--method", method,
                                                          "--out", str(out / f"attr_{method}.jsonl")]))
    cmds += [
        ("analyze", "analyze", ["analyze", "--attributions", str(out / "attr_occlusion.jsonl"),
                                "--out", str(out / "factors.jsonl"), "--graph-out", str(out / "graph.json"), *llm]),
        ("analyze", "export-sankey", ["export", "--kind", "sankey", "--graph", str(out / "graph.json"),
                                      "--out", str(out / "sankey.html")]),
        ("analyze", "export-heatmap", ["export", "--kind", "heatmap", "--attributions", str(out / "attr_occlusion.jsonl"),
                                       "--caseno", ctx.heatmap_caseno, "--out", str(out / "heatmap.html")]),
    ]
    for strategy in ("zs", "zs-cot", "fs"):
        cmds.append(("eval", f"eval-{strategy}", ["eval", *narratives, "--strategy", strategy, *llm,
                                                  "--out", str(out / f"pred_{strategy}.jsonl"),
                                                  "--metrics-out", str(out / f"metrics_{strategy}.json")]))
    cmds.append(("eval", "build-sft", ["build-sft", *narratives, "--out", str(out / "sft.jsonl")]))
    return cmds


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def run_process(argv: list[str], stdout: Path, stderr: Path) -> tuple[float, int, float]:
    """Run one process to its end; returns (wall s, max RSS KiB, user+sys CPU s)."""
    with open(stdout, "wb") as so, open(stderr, "wb") as se:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=so, stderr=se, env=_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        detail = stderr.read_text(encoding="utf-8", errors="replace").strip().splitlines()
        raise StageFailed(" ".join(argv[1:4]), detail[-1] if detail else f"exit {proc.returncode}")
    return wall, usage.ru_maxrss, usage.ru_utime + usage.ru_stime


def run_chain(ctx, out: Path) -> dict:
    out.mkdir(parents=True)
    calls = {}
    rss, cpu = 0, 0.0
    start = time.perf_counter()
    for _, stem, argv in chain_commands(ctx, out):
        calls[stem], maxrss, used = run_process(
            [sys.executable, "-m", "crashlens.cli", *argv], out / f"{stem}.stdout", out / f"{stem}.stderr"
        )
        rss, cpu = max(rss, maxrss), cpu + used
    return {"chain": time.perf_counter() - start, "calls": calls, "rss_kib": rss, "cpu": cpu}


def stage_medians(ctx, chains: list[dict]) -> dict[str, float]:
    """Each stage's time: the sum over its calls of each call's median over the chains."""
    stages = dict.fromkeys(STAGES, 0.0)
    for stage, stem, _ in chain_commands(ctx, Path()):
        stages[stage] += statistics.median(c["calls"][stem] for c in chains)
    return stages


def measure_setup(work: Path, n: int) -> list[float]:
    """Wall times of n cold starts of `crashlens --help`."""
    argv = [sys.executable, "-m", "crashlens.cli", "--help"]
    return [run_process(argv, work / "help.stdout", work / "help.stderr")[0] for _ in range(n)]


def import_times(work: Path) -> dict[str, float]:
    """Seconds per package from `python -X importtime -c 'import crashlens.cli'`."""
    err = work / "importtime.stderr"
    run_process([sys.executable, "-X", "importtime", "-c", "import crashlens.cli"], work / "importtime.stdout", err)
    total, first = 0.0, {}
    for line in err.read_text(encoding="utf-8").splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if not m:
            continue
        cumulative, depth, name = int(m.group(2)) / 1e6, len(m.group(3)), m.group(4)
        if depth == 1:
            total += cumulative
        first.setdefault(name, cumulative)
    out = {"import.total_s": total}
    for pkg in ("numpy", "requests", "jsonschema", "yaml"):
        out[f"import.{pkg}_s"] = first.get(pkg, 0.0)
    return out


def traced_chain(ctx, out: Path):
    """One chain in this process with every layer wrapped; returns the tracer."""
    from crashlens import cli

    tracer = Tracer()
    tracer.install()
    out.mkdir(parents=True)
    try:
        for _, stem, argv in chain_commands(ctx, out):
            buf = io.StringIO()
            tracer.stage = argv[0]
            with tracer.span(f"cli.{argv[0]}"), contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            (out / f"{stem}.stdout").write_text(buf.getvalue(), encoding="utf-8")
            if code != 0:
                raise StageFailed(stem, f"exit {code}")
    finally:
        tracer.restore()
    return tracer


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(ctx, work: Path, seconds: float) -> tuple[dict, int]:
    measure_setup(work, 1)  # compiles the bytecode and warms the file cache
    setup, chains, dirs = [], [], []
    start = time.perf_counter()
    # set-up samples are spread between the chains, so that a slow phase of
    # the machine weighs on both metrics alike
    while len(chains) < MIN_CHAINS or time.perf_counter() - start < seconds:
        setup += measure_setup(work, SETUP_PER_CHAIN)
        dirs.append(work / f"chain{len(dirs)}")
        chains.append(run_chain(ctx, dirs[-1]))
        print(f"chain {len(chains)}: {chains[-1]['chain']:.2f} s, "
              + ", ".join(f"{k} {v:.2f}" for k, v in stage_medians(ctx, chains[-1:]).items()), file=sys.stderr)
    setup += measure_setup(work, SETUP_PER_CHAIN)
    passed = checks.run_all(dirs[0], ctx)
    checks.check_determinism(dirs)
    print(f"checks passed: {', '.join(passed)}, determinism over {len(dirs)} chains", file=sys.stderr)
    med = statistics.median
    metrics = {
        "setup_s": _metric(med(setup), "s"),
        "chain_s": _metric(med(c["chain"] for c in chains), "s"),
        **{f"{s}_s": _metric(v, "s") for s, v in stage_medians(ctx, chains).items()},
        "peak_rss_mb": _metric(med(c["rss_kib"] for c in chains) / 1024.0, "MB"),
    }
    return metrics, 1 + len(setup) + len(chains) * len(chain_commands(ctx, work))


def traced_run(ctx, work: Path, trace_path: Path) -> tuple[dict, int]:
    values = import_times(work)
    chain = run_chain(ctx, work / "chain0")
    tracer = traced_chain(ctx, work / "traced")
    for d in (work / "chain0", work / "traced"):
        checks.run_all(d, ctx)
    checks.check_determinism([work / "chain0", work / "traced"])
    values.update(tracer.metrics())
    values["chain.cpu_s"] = chain["cpu"]
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    record = tracer.dump() | {"metrics": values, "subprocess_chain_wall_s": chain["chain"]}
    trace_path.write_text(json.dumps(record), encoding="utf-8")
    print(f"trace written to {trace_path.relative_to(ROOT)}", file=sys.stderr)
    return {name: _metric(values[name], unit_of(name)) for name in PER_LAYER}, 1 + 2 * len(chain_commands(ctx, work))


def make_inputs(workload: str, seed: int, work: Path):
    """The corpus of a workload, built from the seed, and the chain's context."""
    n_cases, offline = WORKLOADS[workload]
    if n_cases is None:
        corpus = SRC / "crashlens" / "data" / "corpus"
    else:
        from crashlens import synth

        corpus = work / "corpus"
        synth.write_corpus(corpus, n_cases=n_cases, seed=seed)
    casenos = [row["CASENO"] for row in checks.read_csv(corpus / "crashes.csv")]
    caseno = random.Random(seed).choice(casenos)
    return checks.Context(corpus=corpus, seed=seed, offline=offline, heatmap_caseno=caseno)


@contextlib.contextmanager
def chat_endpoint(ctx):
    """Runs the fake chat server for an online workload and sets ctx.url."""
    if ctx.offline:
        yield ctx
        return
    with FakeChatServer(ctx.seed) as server:
        ctx.url = server.url
        yield ctx


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "crashlens" / "cli.py").is_file():
        print(f"perfbench: {SRC / 'crashlens' / 'cli.py'} not found; run from the root of a crashlens checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        ctx = make_inputs(args.workload, args.seed, work)
        with chat_endpoint(ctx):
            if args.trace:
                trace_path = OUT / "traces" / f"{args.workload}-seed{args.seed}.json"
                metrics, attempted = traced_run(ctx, work, trace_path)
            else:
                metrics, attempted = timed_run(ctx, work, args.seconds)
    except (checks.CheckFailed, StageFailed) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
