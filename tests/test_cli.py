from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import corpus_path, python_cli, run_cli
from crashlens.util import atomic_write_jsonl, parse_annotated


def _ingest_args(out: Path) -> list[str]:
    return [
        "ingest",
        "--crashes", str(corpus_path("crashes")),
        "--segments", str(corpus_path("segments")),
        "--vehicles", str(corpus_path("vehicles")),
        "--persons", str(corpus_path("persons")),
        "--out", str(out),
    ]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run the offline pipeline once; individual tests inspect the artifacts."""
    d = tmp_path_factory.mktemp("pipeline")
    steps = [
        _ingest_args(d / "cases.jsonl"),
        ["narrate", "--cases", str(d / "cases.jsonl"), "--out", str(d / "narratives.jsonl")],
        [
            "train-ref",
            "--narratives", str(d / "narratives.jsonl"),
            "--out-model", str(d / "model.json"),
            "--out-tokenizer", str(d / "tok.json"),
            "--seed", "7",
            "--epochs", "12",
            "--window", "32",
        ],
        [
            "attribute",
            "--narratives", str(d / "narratives.jsonl"),
            "--model", str(d / "model.json"),
            "--tokenizer", str(d / "tok.json"),
            "--method", "occlusion",
            "--out", str(d / "attr_occ.jsonl"),
        ],
        [
            "attribute",
            "--narratives", str(d / "narratives.jsonl"),
            "--model", str(d / "model.json"),
            "--tokenizer", str(d / "tok.json"),
            "--method", "taylor",
            "--out", str(d / "attr_tay.jsonl"),
        ],
        [
            "analyze", "--offline",
            "--attributions", str(d / "attr_occ.jsonl"),
            "--out", str(d / "factors.jsonl"),
            "--graph-out", str(d / "graph.json"),
        ],
        [
            "export", "--kind", "sankey",
            "--graph", str(d / "graph.json"),
            "--out", str(d / "sankey.html"),
        ],
        [
            "export", "--kind", "heatmap",
            "--attributions", str(d / "attr_occ.jsonl"),
            "--caseno", "C0001",
            "--out", str(d / "heat.html"),
        ],
        [
            "eval", "--offline",
            "--narratives", str(d / "narratives.jsonl"),
            "--strategy", "zs",
            "--out", str(d / "pred.jsonl"),
            "--metrics-out", str(d / "metrics.json"),
        ],
        ["build-sft", "--narratives", str(d / "narratives.jsonl"), "--out", str(d / "sft.jsonl")],
        [
            "augment", "--offline",
            "--narratives", str(d / "narratives.jsonl"),
            "--out", str(d / "aug.jsonl"),
        ],
    ]
    summaries = []
    for args in steps:
        code, out = run_cli(args)
        assert code == 0, f"{args[0]} failed: {out}"
        summaries.append(json.loads(out))
    return d, summaries


def test_ingest_summary_counts(pipeline):
    _, summaries = pipeline
    ingest = summaries[0]
    assert ingest["cases"] == 50
    assert ingest["rejected_rows"] == 0
    assert ingest["orphan_vehicles"] == 0
    assert ingest["orphan_persons"] == 0
    assert ingest["ambiguous_links"] >= 1


def test_narrate_produces_jsonl(pipeline):
    d, summaries = pipeline
    assert summaries[1]["narratives"] == 50
    lines = (d / "narratives.jsonl").read_text().splitlines()
    assert len(lines) == 50
    first = json.loads(lines[0])
    assert set(first) == {"caseno", "descriptive", "outcome", "label"}


def test_attribute_both_methods_cover_all_cases(pipeline):
    d, _ = pipeline
    for name, method in [("attr_occ.jsonl", "occlusion"), ("attr_tay.jsonl", "taylor")]:
        records = [json.loads(l) for l in (d / name).read_text().splitlines()]
        assert len(records) == 50
        assert all(r["method"] == method for r in records)
        assert all(r["L"] == 100 and r["b"] == 1 for r in records)
        # word scores travel only in the annotation
        assert not any("words" in r for r in records)


def test_attribution_columns_peak_at_exactly_L(pipeline):
    from crashlens import attribution, narrator, refmodel

    d, _ = pipeline
    model = refmodel.TinyLM.load(d / "model.json")
    tokenizer = refmodel.Tokenizer.load(d / "tok.json")
    columns = 0
    for pair in narrator.read_pairs(d / "narratives.jsonl"):
        ids = tokenizer.encode(pair.descriptive)
        label, _ = refmodel.classify(model, tokenizer, ids)
        for importance in (attribution.occlusion_importance, attribution.taylor_importance):
            values = importance(model, [refmodel.BOS_ID] + ids, tokenizer.label_id(label))
            if values.max() > 0:
                assert attribution.normalize_scores(values).scores.max() == 100, (pair.caseno, importance.__name__)
                columns += 1
    assert columns >= 50


def test_analyze_emits_all_categories(pipeline):
    d, _ = pipeline
    records = [json.loads(l) for l in (d / "factors.jsonl").read_text().splitlines()]
    assert len(records) == 50
    for record in records[:3]:
        assert set(record["categories"]) == {
            "environmental",
            "vehicle_occupant",
            "behavioral",
            "infrastructure",
            "unusual",
        }
        assert record["source"] == "rules"


def test_exports_exist(pipeline):
    d, _ = pipeline
    assert "<svg" in (d / "sankey.html").read_text()
    heat = (d / "heat.html").read_text()
    assert "C0001" in heat and "<span" in heat


def test_eval_outputs_metrics(pipeline):
    d, _ = pipeline
    metrics = json.loads((d / "metrics.json").read_text())
    for key in ("n_failed_parses", "accuracy", "macro_f1", "confusion"):
        assert key in metrics
    assert len(metrics["confusion"]) == 4
    preds = [json.loads(l) for l in (d / "pred.jsonl").read_text().splitlines()]
    assert all(p["parse_status"] in ("exact", "fuzzy", "failed") for p in preds)


def test_sft_and_augment_cover_all_cases(pipeline):
    d, _ = pipeline
    assert len((d / "sft.jsonl").read_text().splitlines()) == 50
    aug = [json.loads(l) for l in (d / "aug.jsonl").read_text().splitlines()]
    assert len(aug) == 50
    assert all(r["passed"] for r in aug)


def test_unknown_flag_exits_2():
    proc = subprocess.run(
        python_cli("ingest", "--nonsense"), capture_output=True, text=True
    )
    assert proc.returncode == 2
    assert "usage" in proc.stderr.lower()


def test_unknown_subcommand_exits_2():
    proc = subprocess.run(python_cli("frobnicate"), capture_output=True, text=True)
    assert proc.returncode == 2


def test_missing_input_file_reports_json_error(tmp_path, capsys):
    from crashlens.cli import main

    code = main(["narrate", "--cases", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "o")])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FileNotFoundError"


@pytest.mark.parametrize(
    "case, error",
    [
        ("narrate-cases-dir", "IsADirectoryError"),
        ("ingest-crashes-dir", "IsADirectoryError"),
        ("config-dir", "IsADirectoryError"),
        ("out-under-a-file", "FileExistsError"),
    ],
    ids=["narrate-cases-dir", "ingest-crashes-dir", "config-dir", "out-under-a-file"],
)
def test_unusable_path_is_one_json_error(tmp_path, capsys, case, error):
    """A directory where a file is read, or an output path under a regular
    file, is an OSError: one JSON line on stderr, exit 1."""
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    argv = _ingest_args(tmp_path / "out.jsonl")
    if case == "narrate-cases-dir":
        argv = ["narrate", "--cases", str(tmp_path), "--out", str(tmp_path / "out.jsonl")]
    elif case == "ingest-crashes-dir":
        argv[argv.index("--crashes") + 1] = str(tmp_path)
    elif case == "config-dir":
        argv += ["--config", str(tmp_path)]
    else:
        argv[argv.index("--out") + 1] = str(blocker / "out.jsonl")
    assert _main_error(argv, capsys)["error"] == error
    assert not (tmp_path / "out.jsonl").exists()


@pytest.mark.parametrize(
    "ratio, error",
    [("inf", "ValueError"), ("nan", "ValueError"), ("1e308", "InsufficientMajorityError")],
)
def test_ingest_balance_ratio_it_cannot_meet_is_one_json_error(tmp_path, capsys, ratio, error):
    out = tmp_path / "cases.jsonl"
    argv = _ingest_args(out) + ["--balance", "--target-ratio", ratio]
    assert _main_error(argv, capsys)["error"] == error
    assert not out.exists()


def test_ingest_balance_checks_the_ratio_before_loading_tables(tmp_path, capsys):
    """The crashes path does not exist: a ValueError, not a FileNotFoundError,
    shows that the ratio is read first."""
    out = tmp_path / "cases.jsonl"
    argv = _ingest_args(out) + ["--balance", "--target-ratio", "inf"]
    argv[argv.index("--crashes") + 1] = str(tmp_path / "missing.csv")
    assert _main_error(argv, capsys)["error"] == "ValueError"
    assert not out.exists()


def test_unknown_config_key_rejected(tmp_path, capsys):
    from crashlens.cli import main

    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("no_such_option: 1\n")
    code = main(["narrate", "--config", str(cfg), "--cases", "x", "--out", "y"])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert "no_such_option" in err["detail"]


def test_config_supplies_defaults_and_flags_win(tmp_path):
    d = tmp_path
    code, _ = run_cli(_ingest_args(d / "cases.jsonl"))
    assert code == 0
    code, _ = run_cli(
        ["narrate", "--cases", str(d / "cases.jsonl"), "--out", str(d / "narratives.jsonl")]
    )
    assert code == 0
    code, _ = run_cli(
        [
            "train-ref",
            "--narratives", str(d / "narratives.jsonl"),
            "--out-model", str(d / "model.json"),
            "--out-tokenizer", str(d / "tok.json"),
            "--seed", "7", "--epochs", "6",
        ]
    )
    assert code == 0

    base = [
        "attribute",
        "--narratives", str(d / "narratives.jsonl"),
        "--model", str(d / "model.json"),
        "--tokenizer", str(d / "tok.json"),
        "--method", "taylor",
        "--caseno", "C0001",
    ]
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("display_divisor: 10.0\n")

    code, _ = run_cli(base + ["--out", str(d / "default.jsonl")])
    assert code == 0
    code, _ = run_cli(base + ["--config", str(cfg), "--out", str(d / "from_config.jsonl")])
    assert code == 0
    code, _ = run_cli(
        base
        + ["--config", str(cfg), "--display-divisor", "20.0", "--out", str(d / "flag_wins.jsonl")]
    )
    assert code == 0

    def scores(path: Path) -> list[float]:
        record = json.loads(path.read_text().splitlines()[0])
        assert "words" not in record
        _, words = parse_annotated(record["annotated"])
        return [w.score for w in words]

    default = scores(d / "default.jsonl")
    halved_divisor = scores(d / "from_config.jsonl")
    flag_wins = scores(d / "flag_wins.jsonl")
    # default divisor is 20; config 10 doubles every display score
    assert halved_divisor == [s * 2 for s in default]
    # an explicit flag beats the config file
    assert flag_wins == default


def _corpus_copy(tmp_path: Path, edit) -> list[str]:
    """ingest flags for a copy of the bundled corpus whose crash table went
    through `edit` (a function of its lines)."""
    args = _ingest_args(tmp_path / "cases.jsonl")
    for table in ("crashes", "segments", "vehicles", "persons"):
        lines = corpus_path(table).read_text().splitlines(keepends=True)
        copy = tmp_path / f"{table}.csv"
        copy.write_text("".join(edit(lines) if table == "crashes" else lines))
        args[args.index(f"--{table}") + 1] = str(copy)
    return args


def test_unknown_hit_and_run_keeps_the_case_and_drops_its_clause(tmp_path):
    def unknown_c0002(lines: list[str]) -> list[str]:
        header = lines[0].strip().split(",")
        row = next(i for i, line in enumerate(lines) if line.startswith("C0002,"))
        cells = lines[row].rstrip("\n").split(",")
        cells[header.index("HIT_AND_RUN")] = "unknown"
        return lines[:row] + [",".join(cells) + "\n"] + lines[row + 1 :]

    code, summary = run_cli(_corpus_copy(tmp_path, unknown_c0002))
    assert code == 0
    doc = json.loads(summary)
    assert (doc["cases"], doc["rejected_rows"], doc["rejects"]) == (50, 0, [])
    assert (doc["orphan_vehicles"], doc["orphan_persons"]) == (0, 0)
    out = tmp_path / "narratives.jsonl"
    assert run_cli(["narrate", "--cases", str(tmp_path / "cases.jsonl"), "--out", str(out)])[0] == 0
    voiced = {
        r["caseno"]: "hit-and-run" in r["descriptive"]
        for r in map(json.loads, out.read_text().splitlines())
    }
    assert not voiced.pop("C0002")
    assert all(voiced.values())


def test_ingest_summary_names_each_rejected_row(tmp_path):
    code, summary = run_cli(_corpus_copy(tmp_path, lambda lines: lines + ["C9999,2022-01-01,08:00\n"]))
    assert code == 0
    doc = json.loads(summary)
    assert doc["rejected_rows"] == 1
    n_cells = len(corpus_path("crashes").read_text().splitlines()[0].split(","))
    assert doc["rejects"] == [
        {"table": "crash", "line": 52, "reason": f"3 cells where the header has {n_cells}"}
    ]
    assert list(doc).index("rejects") == list(doc).index("rejected_rows") + 1


def test_jsonl_write_that_fails_partway_keeps_the_old_file(tmp_path):
    out = tmp_path / "out.jsonl"
    out.write_text("old\n")

    def records():
        yield {"n": 1}
        # written as produced: the temp file is open while records come
        assert [p.name.endswith(".tmp") for p in tmp_path.iterdir()].count(True) == 1
        raise RuntimeError("record 2 failed")

    with pytest.raises(RuntimeError, match="record 2 failed"):
        atomic_write_jsonl(out, records())
    assert out.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]
    atomic_write_jsonl(out, ({"n": n} for n in range(2)))
    assert out.read_text() == '{"n": 0}\n{"n": 1}\n'


def test_ingest_balance_applies_downsampling(tmp_path):
    out = tmp_path / "cases.jsonl"
    code, summary = run_cli(
        _ingest_args(out) + ["--balance", "--target-ratio", "1.0", "--seed", "3"]
    )
    assert code == 0
    doc = json.loads(summary)
    assert doc["cases"] < 50
    labels = [
        json.loads(line)["crash"]["severity"] for line in out.read_text().splitlines()
    ]
    assert labels.count("NoApparentOrMinor") == labels.count("SeriousOrFatal")


def test_attribute_rejects_tokenizer_of_another_vocabulary(pipeline, tmp_path):
    d, _ = pipeline
    few = tmp_path / "few.jsonl"
    few.write_text("".join((d / "narratives.jsonl").read_text().splitlines(keepends=True)[:5]))
    code, out = run_cli(
        [
            "train-ref",
            "--narratives", str(few),
            "--out-model", str(tmp_path / "model.json"),
            "--out-tokenizer", str(tmp_path / "tok.json"),
            "--epochs", "1",
        ]
    )
    assert code == 0
    small_vocab = json.loads(out)["vocab"]
    proc = subprocess.run(
        python_cli(
            "attribute",
            "--narratives", str(d / "narratives.jsonl"),
            "--model", str(tmp_path / "model.json"),
            "--tokenizer", str(d / "tok.json"),
            "--method", "occlusion",
            "--out", str(tmp_path / "attr.jsonl"),
        ),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    err = json.loads(lines[0])
    assert err["error"] == "RefModelError"
    full_vocab = len(json.loads((d / "tok.json").read_text())["tokens"])
    assert str(small_vocab) in err["detail"] and str(full_vocab) in err["detail"]
    assert not (tmp_path / "attr.jsonl").exists()


def _factor_reply(user: str) -> str:
    """A pure function of the request: unavailable for some records, prose
    (so the repair request runs) for others, else a factor JSON."""
    from crashlens.analytics import AspectCategory
    from crashlens.attribution import parse_annotated
    from crashlens.augment import UnavailableError

    if len(user) % 11 == 0:
        raise UnavailableError("transport failed after 4 attempts")
    if len(user) % 3 == 0:
        return "Here are the factors you asked for."
    _, words = parse_annotated(user.split("\n\n")[0])
    doc = {cat.value: {"summary": cat.value, "terms": []} for cat in AspectCategory}
    doc["behavioral"]["terms"] = [[w.word, w.score] for w in sorted(words, key=lambda w: -w.score)[:3]]
    return json.dumps(doc)


def test_analyze_jobs_match_serial_and_fall_back_per_record(pipeline, tmp_path, monkeypatch):
    from conftest import OverlapProbe
    from crashlens import cli
    from crashlens.augment import StubChatClient

    d, _ = pipeline
    probes = []

    def client(args):
        probes.append(OverlapProbe(StubChatClient(transform=_factor_reply)))
        return probes[-1]

    monkeypatch.setattr(cli, "_chat_client", client)
    outputs = []
    for jobs in ("1", "4"):
        out, graph = tmp_path / f"factors{jobs}.jsonl", tmp_path / f"graph{jobs}.json"
        code, _ = run_cli(
            [
                "analyze", "--jobs", jobs,
                "--attributions", str(d / "attr_occ.jsonl"),
                "--out", str(out),
                "--graph-out", str(graph),
            ]
        )
        assert code == 0
        outputs.append((out.read_bytes(), graph.read_bytes()))
    assert outputs[0] == outputs[1]
    assert probes[1].overlapped
    records = [json.loads(line) for line in outputs[0][0].decode().splitlines()]
    assert len(records) == len((d / "attr_occ.jsonl").read_text().splitlines())
    assert {r["source"] for r in records} == {"llm", "rules"}


def test_eval_unavailable_case_costs_only_that_case(pipeline, tmp_path, monkeypatch):
    from crashlens import cli, narrator
    from crashlens.augment import StubChatClient, UnavailableError

    d, _ = pipeline
    pairs = narrator.read_pairs(d / "narratives.jsonl")
    down = pairs[3]

    def answer(user: str) -> str:
        if user.endswith(down.descriptive):
            raise UnavailableError("transport failed after 4 attempts")
        return "Serious injury or fatal"

    monkeypatch.setattr(cli, "_chat_client", lambda args: StubChatClient(transform=answer))
    out = tmp_path / "pred.jsonl"
    code, summary = run_cli(
        ["eval", "--narratives", str(d / "narratives.jsonl"), "--strategy", "zs", "--out", str(out)]
    )
    assert code == 0
    assert json.loads(summary)["cases"] == len(pairs)
    preds = [json.loads(line) for line in out.read_text().splitlines()]
    assert [p["caseno"] for p in preds] == [p.caseno for p in pairs]
    failed = [p for p in preds if p["parse_status"] == "failed"]
    assert failed == [
        {"caseno": down.caseno, "raw_output": "", "label": None, "parse_status": "failed"}
    ]


@pytest.mark.parametrize(
    "command, flag, source",
    [("build-sft", "--narratives", "narratives.jsonl"), ("analyze", "--attributions", "attr_occ.jsonl")],
)
def test_non_object_jsonl_line_is_one_json_error(pipeline, tmp_path, command, flag, source):
    d, _ = pipeline
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join((d / source).read_text().splitlines(keepends=True)[:2]) + "[1, 2]\n")
    out = tmp_path / "out.jsonl"
    proc = subprocess.run(
        python_cli(command, "--offline", flag, str(bad), "--out", str(out)),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    err = json.loads(lines[0])
    assert err["error"] == "ParseError"
    assert err["detail"].startswith("line 3:")
    assert not out.exists()


STAGE_MODULES = tuple(
    f"crashlens.{m}"
    for m in ("schema", "narrator", "augment", "analytics", "evaluation", "refmodel", "attribution")
)


def _loaded_after(code: str, modules: tuple[str, ...]) -> list[str]:
    """Run `code` in a fresh interpreter; which of `modules` it imported."""
    probe = f"{code}\nimport json, sys\nprint(json.dumps([m for m in {modules!r} if m in sys.modules]))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_package_root_imports_no_dependencies():
    assert _loaded_after("import crashlens", ("numpy", "requests", "jsonschema")) == []


@pytest.mark.parametrize(
    "code",
    [
        "import crashlens.cli",
        # what the `crashlens` console script runs
        "import sys\nfrom crashlens.cli import main\nsys.argv = ['crashlens', '--help']\n"
        "try:\n    main()\nexcept SystemExit as exc:\n    assert exc.code == 0",
    ],
    ids=["import", "help"],
)
def test_cli_start_loads_no_heavy_dependencies(code):
    modules = ("numpy", "requests", "http.client", "jsonschema", "yaml", "concurrent.futures") + STAGE_MODULES
    # dataclasses pulls in inspect, and only writes and bundled data files
    # need tempfile and importlib.resources; a bare interpreter may load any
    # of them through its site hooks already
    lazy = ("dataclasses", "inspect", "tempfile", "importlib.resources")
    preloaded = _loaded_after("pass", lazy)
    modules += tuple(m for m in lazy if m not in preloaded)
    assert _loaded_after(code, modules) == []


def _stage_argv(d: Path, tmp_path: Path, stage: str) -> list[str]:
    """A small offline call of `stage` on the pipeline's artifacts."""
    narratives = ["--narratives", str(d / "narratives.jsonl")]
    model = ["--model", str(d / "model.json"), "--tokenizer", str(d / "tok.json")]
    if stage == "ingest":
        return _ingest_args(tmp_path / "cases.jsonl")
    argv = {
        "narrate": ["narrate", "--cases", str(d / "cases.jsonl")],
        "augment": ["augment", "--offline", *narratives],
        "train-ref": [
            "train-ref", *narratives, "--epochs", "1",
            "--out-model", str(tmp_path / "model.json"), "--out-tokenizer", str(tmp_path / "tok.json"),
        ],
        "attribute": ["attribute", *narratives, *model, "--method", "taylor", "--caseno", "C0001"],
        "eval": ["eval", "--offline", *narratives, "--strategy", "zs"],
        "build-sft": ["build-sft", *narratives],
        "analyze": [
            "analyze", "--offline",
            "--attributions", str(d / "attr_occ.jsonl"),
            "--graph-out", str(tmp_path / "graph.json"),
        ],
        "export": [
            "export", "--kind", "heatmap",
            "--attributions", str(d / "attr_occ.jsonl"),
            "--caseno", "C0001",
        ],
        "export-sankey": ["export", "--kind", "sankey", "--graph", str(d / "graph.json")],
    }[stage]
    return argv if stage == "train-ref" else argv + ["--out", str(tmp_path / "out")]


def _main_probe(argv: list[str]) -> str:
    return f"from crashlens.cli import main\nassert main({argv!r}) == 0"


@pytest.mark.parametrize(
    "stage", ["ingest", "narrate", "augment", "eval", "build-sft", "analyze", "export", "export-sankey"]
)
def test_offline_stages_load_no_numpy_or_requests(pipeline, tmp_path, stage):
    d, _ = pipeline
    # jsonschema too: export --kind sankey validates its graph without it
    probe = _main_probe(_stage_argv(d, tmp_path, stage))
    assert _loaded_after(probe, ("numpy", "requests", "http.client", "jsonschema")) == []


def test_live_eval_loads_no_requests(pipeline, tmp_path, scripted):
    """A chat stage against a live http endpoint runs on `http.client`;
    `ssl` loads only as far as `http.client` itself imports it."""
    d, _ = pipeline
    server = scripted()
    narratives = tmp_path / "narratives.jsonl"
    narratives.write_text("".join((d / "narratives.jsonl").read_text().splitlines(keepends=True)[:5]))
    argv = ["eval", "--narratives", str(narratives), "--strategy", "zs", "--endpoint", server.url,
            "--jobs", "2", "--out", str(tmp_path / "pred.jsonl")]
    with_http_client = _loaded_after("import http.client", ("ssl",))
    modules = ("requests", "urllib3", "urllib.request", "http.client", "ssl")
    assert _loaded_after(_main_probe(argv), modules) == ["http.client", *with_http_client]
    assert server.posts == 5


@pytest.mark.parametrize(
    "stage, loaded",
    [
        ("ingest", ["schema"]),
        ("narrate", ["schema", "narrator", "yaml"]),
        ("augment", ["schema", "narrator", "augment"]),
        ("train-ref", ["schema", "narrator", "refmodel"]),
        ("attribute", ["schema", "narrator", "refmodel", "attribution"]),
        ("analyze", ["augment", "analytics", "yaml"]),
        ("export", ["augment", "analytics"]),
        ("eval", ["schema", "narrator", "augment", "evaluation"]),
        ("build-sft", ["schema", "narrator", "augment", "evaluation"]),
    ],
)
def test_each_stage_loads_only_the_modules_it_runs(pipeline, tmp_path, stage, loaded):
    """Which stage modules, data-file parser and thread pool a call loads;
    with jobs 1 no stage starts a thread pool."""
    d, _ = pipeline
    modules = STAGE_MODULES + ("yaml", "concurrent.futures")
    expected = [m for m in modules if m.split(".")[-1] in loaded]
    assert _loaded_after(_main_probe(_stage_argv(d, tmp_path, stage)), modules) == expected


def _main_error(argv: list[str], capsys) -> dict:
    """Run the CLI in process; it must fail with one JSON line on stderr."""
    from crashlens.cli import main

    assert main(argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    return json.loads(lines[0])


@pytest.mark.parametrize(
    "flag, text, error",
    [
        ("--lexicon", "", "ValueError"),
        ("--lexicon", "fields: [1, 2]\n", "ValueError"),
        ("--lexicon", "null_markers: [nan]\nfields: {}\n", "ValueError"),
        ("--templates", "templates: [a]\n", "NarratorError"),
        ("--grouping-rules", "", "ValueError"),
        ("--category-lexicon", "categories: [a]\n", "ValueError"),
        ("--category-lexicon", "categories:\n  environmental: ['re:(dusk']\n", "AnalyticsError"),
        ("--category-lexicon", "categories:\n  behavioral: [1, null]\n", "AnalyticsError"),
    ],
    ids=["lexicon-empty", "lexicon-list", "lexicon-null-markers", "template-string",
         "grouping-rules-empty", "category-lexicon-list", "category-lexicon-bad-regex",
         "category-lexicon-non-string"],
)
def test_malformed_data_file_is_one_json_error(pipeline, tmp_path, capsys, flag, text, error):
    d, _ = pipeline
    data = tmp_path / "data.yaml"
    data.write_text(text)
    if flag in ("--lexicon", "--templates"):
        argv = ["narrate", "--cases", str(d / "cases.jsonl")]
    else:
        argv = ["analyze", "--offline", "--attributions", str(d / "attr_occ.jsonl")]
    out = tmp_path / "out.jsonl"
    assert _main_error([*argv, flag, str(data), "--out", str(out)], capsys)["error"] == error
    assert not out.exists()


@pytest.mark.parametrize(
    "text, command",
    [
        ("seed: [1]\n", ["ingest", "--balance"]),
        # a truthy string must not switch eval to the stub client
        ('offline: "false"\n', ["eval", "--strategy", "zs"]),
        ("column_maps: {crash: [1]}\n", ["ingest"]),
        ("column_maps: {crash: {caseno: 5}}\n", ["ingest"]),
        # an int is taken for a float, but not one too large for a float
        (f"temperature: {'9' * 400}\n", ["eval", "--offline", "--strategy", "zs"]),
    ],
    ids=["seed-list", "offline-string", "column-map-list", "column-name-int", "float-overflow"],
)
def test_config_value_of_wrong_type_rejected(pipeline, tmp_path, capsys, text, command):
    d, _ = pipeline
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text)
    if command[0] == "ingest":
        argv = _ingest_args(tmp_path / "out.jsonl") + command[1:]
    else:
        argv = [*command, "--narratives", str(d / "narratives.jsonl"), "--out", str(tmp_path / "out.jsonl")]
    err = _main_error([*argv, "--config", str(cfg)], capsys)
    assert err["error"] == "CliError"
    assert repr(text.split(":")[0]) in err["detail"]
    assert not (tmp_path / "out.jsonl").exists()


@pytest.mark.parametrize("endpoint", ["localhost:9/v1", "ftp://host/x"])
def test_eval_endpoint_that_is_not_an_http_url_is_one_json_error(pipeline, tmp_path, capsys, monkeypatch, endpoint):
    # a client that sent anyway would sleep through its retries
    monkeypatch.setattr("crashlens.augment.time.sleep", lambda s: None)
    d, _ = pipeline
    out = tmp_path / "pred.jsonl"
    argv = ["eval", "--strategy", "zs", "--narratives", str(d / "narratives.jsonl"), "--endpoint", endpoint]
    err = _main_error([*argv, "--out", str(out)], capsys)
    assert err["error"] == "ValueError" and repr(endpoint) in err["detail"]
    assert not out.exists()


def test_augment_temperature_out_of_range_is_value_error(pipeline, tmp_path, capsys):
    d, _ = pipeline
    out = tmp_path / "aug.jsonl"
    argv = ["augment", "--offline", "--narratives", str(d / "narratives.jsonl"), "--temperature", "3", "--out", str(out)]
    err = _main_error(argv, capsys)
    assert err == {"error": "ValueError", "detail": "temperature 3.0 outside [0, 2]"}
    assert not out.exists()


@pytest.mark.parametrize("temperature", ["-3", "2.5"])
def test_eval_temperature_out_of_range_is_value_error(pipeline, tmp_path, capsys, temperature):
    """eval follows augment's temperature policy, checked before any request."""
    d, _ = pipeline
    out = tmp_path / "pred.jsonl"
    argv = ["eval", "--offline", "--narratives", str(d / "narratives.jsonl"), "--strategy", "zs",
            "--temperature", temperature, "--out", str(out)]
    err = _main_error(argv, capsys)
    assert err == {"error": "ValueError", "detail": f"temperature {float(temperature)} outside [0, 2]"}
    assert not out.exists()


@pytest.mark.parametrize("top_k", ["0", "-2"])
def test_analyze_top_k_below_one_is_value_error(pipeline, tmp_path, capsys, top_k):
    """A top-k below 1 would keep no factor; it is rejected before any record is read."""
    d, _ = pipeline
    out = tmp_path / "factors.jsonl"
    argv = ["analyze", "--offline", "--attributions", str(d / "attr_occ.jsonl"), "--top-k", top_k, "--out", str(out)]
    err = _main_error(argv, capsys)
    assert err == {"error": "ValueError", "detail": f"need top_k >= 1; got {top_k}"}
    assert not out.exists()


def _one_error_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    return json.loads(lines[0])


def test_sankey_link_past_node_list_is_validation_error(tmp_path):
    graph = tmp_path / "bad.json"
    node = {"name": "dusk", "aspect": "environmental", "count": 1, "color": "#4e79a7"}
    graph.write_text(json.dumps({"nodes": [node], "links": [{"source": 0, "target": 1, "count": 1}]}))
    out = tmp_path / "sankey.html"
    proc = subprocess.run(
        python_cli("export", "--kind", "sankey", "--graph", str(graph), "--out", str(out)),
        capture_output=True,
        text=True,
    )
    assert _one_error_line(proc)["error"] == "ValidationError"
    assert not out.exists()


def _ingest_with_crashes(tmp_path: Path, text: str) -> list[str]:
    """Ingest arguments for the bundled corpus, with `text` as the crash table."""
    crashes = tmp_path / "crashes.csv"
    crashes.write_text(text, encoding="utf-8")
    args = _ingest_args(tmp_path / "out")
    args[args.index("--crashes") + 1] = str(crashes)
    return args


@pytest.mark.parametrize(
    "case, error",
    [
        ("schema", "MissingColumnError"),
        ("schema-weather", "MissingColumnError"),
        ("schema-column-map", "SchemaError"),
        ("schema-oversized-cell", "SchemaError"),
        ("narrator", "NarratorError"),
    ],
    ids=["schema", "schema-weather", "schema-column-map", "schema-oversized-cell", "narrator"],
)
def test_error_of_a_lazily_loaded_module_is_one_json_line(pipeline, tmp_path, case, error):
    """In a fresh interpreter the stage module is loaded only inside the
    stage, and its error must still be one of the handled ones. Every mapped
    column must be in the header, a column map may name only known fields,
    and a CSV the csv module cannot read is a SchemaError."""
    d, _ = pipeline
    crashes = corpus_path("crashes").read_text(encoding="utf-8")
    if case == "schema":
        argv = _ingest_with_crashes(tmp_path, crashes.replace("SEVERITY", "RENAMED", 1))
    elif case == "schema-weather":
        argv = _ingest_with_crashes(tmp_path, crashes.replace("WEATHER", "RENAMED", 1))
    elif case == "schema-column-map":
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("column_maps: {crash: {casenumber: ID}}\n")
        argv = [*_ingest_args(tmp_path / "out"), "--config", str(cfg)]
    elif case == "schema-oversized-cell":
        # a cell past the csv module's field size limit (131072 characters)
        argv = _ingest_with_crashes(tmp_path, crashes + "C9999," + "x" * 200_000 + "\n")
    else:
        templates = tmp_path / "templates.yaml"
        templates.write_text("templates: [a]\n")
        argv = ["narrate", "--cases", str(d / "cases.jsonl"), "--templates", str(templates),
                "--out", str(tmp_path / "out")]
    proc = subprocess.run(python_cli(*argv), capture_output=True, text=True)
    assert _one_error_line(proc)["error"] == error
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag", ["--model", "--tokenizer"])
def test_attribute_rejects_a_non_object_model_file(pipeline, tmp_path, flag):
    d, _ = pipeline
    bad = tmp_path / "bad.json"
    bad.write_text("[1]")
    model = bad if flag == "--model" else d / "model.json"
    tokenizer = bad if flag == "--tokenizer" else d / "tok.json"
    out = tmp_path / "attr.jsonl"
    proc = subprocess.run(
        python_cli(
            "attribute", "--narratives", str(d / "narratives.jsonl"),
            "--model", str(model), "--tokenizer", str(tokenizer),
            "--method", "occlusion", "--out", str(out),
        ),
        capture_output=True,
        text=True,
    )
    err = _one_error_line(proc)
    assert err["error"] == "RefModelError"
    assert "must hold a JSON object, not list" in err["detail"]
    assert not out.exists()


def test_invalid_yaml_config_is_yaml_error(tmp_path):
    import yaml

    text = "seed: [1, 2\n"
    with pytest.raises(yaml.YAMLError) as raised:
        yaml.safe_load(text)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text)
    proc = subprocess.run(
        python_cli("narrate", "--config", str(cfg), "--cases", "x", "--out", str(tmp_path / "o")),
        capture_output=True,
        text=True,
    )
    # the name is the YAMLError subclass that the parser raised (ParserError)
    assert _one_error_line(proc)["error"] == raised.type.__name__


def test_attribute_encodes_each_narrative_once(pipeline, tmp_path, monkeypatch):
    from crashlens.refmodel import Tokenizer

    d, _ = pipeline
    calls = {"encode": 0, "encode_with_spans": 0}
    for name in calls:
        original = getattr(Tokenizer, name)

        def counted(self, text, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, text)

        monkeypatch.setattr(Tokenizer, name, counted)
    out = tmp_path / "attr.jsonl"
    code, _ = run_cli(
        [
            "attribute",
            "--narratives", str(d / "narratives.jsonl"),
            "--model", str(d / "model.json"),
            "--tokenizer", str(d / "tok.json"),
            "--method", "occlusion",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert calls == {"encode": 0, "encode_with_spans": 50}
    assert out.read_bytes() == (d / "attr_occ.jsonl").read_bytes()


def _train_ref_args(d: Path, tmp_path: Path, *extra: str) -> list[str]:
    few = tmp_path / "few.jsonl"
    few.write_text("".join((d / "narratives.jsonl").read_text().splitlines(keepends=True)[:5]))
    return [
        "train-ref", "--narratives", str(few),
        "--out-model", str(tmp_path / "model.json"), "--out-tokenizer", str(tmp_path / "tok.json"),
        *extra,
    ]


@pytest.mark.parametrize("flag", ["--window", "--dim"])
def test_train_ref_rejects_an_empty_dimension(pipeline, tmp_path, flag):
    d, _ = pipeline
    proc = subprocess.run(
        python_cli(*_train_ref_args(d, tmp_path, flag, "0", "--epochs", "1")), capture_output=True, text=True
    )
    err = _one_error_line(proc)
    assert err["error"] == "RefModelError"
    assert "must be >= 1" in err["detail"]
    assert not (tmp_path / "model.json").exists() and not (tmp_path / "tok.json").exists()


@pytest.mark.parametrize(
    "flag, value",
    [("--epochs", "0"), ("--epochs", "-3"), ("--lr", "0"), ("--lr", "-0.05"), ("--lr", "inf"), ("--lr", "nan")],
)
def test_train_ref_rejects_an_untrainable_config_before_reading(tmp_path, capsys, flag, value):
    """No epoch, or a learning rate that cannot descend: a ValueError before
    the narratives are read (this path does not exist), and no model."""
    argv = [
        "train-ref", "--narratives", str(tmp_path / "missing.jsonl"),
        "--out-model", str(tmp_path / "model.json"), "--out-tokenizer", str(tmp_path / "tok.json"),
        flag, value,
    ]
    assert _main_error(argv, capsys)["error"] == "ValueError"
    assert not (tmp_path / "model.json").exists()


def test_diverging_train_ref_writes_one_json_line(pipeline, tmp_path):
    """numpy's overflow warnings stay off stderr; the divergence error is
    the only line there."""
    d, _ = pipeline
    proc = subprocess.run(
        python_cli(*_train_ref_args(d, tmp_path, "--lr", "1e6", "--epochs", "3")), capture_output=True, text=True
    )
    assert _one_error_line(proc)["error"] == "TrainingDivergedError"
    assert not (tmp_path / "model.json").exists()


@pytest.mark.parametrize(
    "flags, model",
    [
        (["--L", "0"], None),
        (["--b", "-1"], None),
        (["--display-divisor", "0"], None),
        (["--display-divisor", "nan"], None),
        (["--display-divisor", "inf"], None),
        (["--L", "5", "--b", "5"], None),
        ([], "nan"),
    ],
    ids=["L-0", "b-negative", "divisor-0", "divisor-nan", "divisor-inf", "b-at-L", "model-nan"],
)
def test_attribute_rejects_bad_scale_or_model_before_writing(pipeline, tmp_path, flags, model):
    """L, b and the display divisor are checked before the model is read (a
    model path that does not exist is never opened): b at or above L would
    leave no score, and an infinite divisor would annotate every word as 0.
    A model holding NaN is a RefModelError."""
    d, _ = pipeline
    model_path = tmp_path / "missing.json"
    if model == "nan":
        doc = json.loads((d / "model.json").read_text())
        doc["output_bias"][0] = float("nan")
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(doc))
    out = tmp_path / "attr.jsonl"
    proc = subprocess.run(
        python_cli(
            "attribute", "--narratives", str(d / "narratives.jsonl"),
            "--model", str(model_path), "--tokenizer", str(d / "tok.json"),
            "--method", "taylor", "--out", str(out), *flags,
        ),
        capture_output=True,
        text=True,
    )
    err = _one_error_line(proc)
    assert err["error"] == ("RefModelError" if model else "ValueError")
    assert not out.exists()


def test_summaries_count_what_a_dead_endpoint_cost(pipeline, tmp_path, monkeypatch):
    """A client that is always unavailable: every eval answer fails to parse
    and every analyze summary falls back to the rules, and both summary
    lines say so. Offline, analyze has no client to fall back from."""
    from crashlens import cli
    from crashlens.augment import StubChatClient, UnavailableError

    d, summaries = pipeline

    def down(user: str) -> str:
        raise UnavailableError("transport failed after 4 attempts")

    monkeypatch.setattr(cli, "_chat_client", lambda args: StubChatClient(transform=down))
    code, out = run_cli(
        ["eval", "--narratives", str(d / "narratives.jsonl"), "--strategy", "zs", "--out", str(tmp_path / "p.jsonl")]
    )
    assert code == 0
    assert json.loads(out)["failed_parses"] == json.loads(out)["cases"] == 50
    code, out = run_cli(
        ["analyze", "--attributions", str(d / "attr_occ.jsonl"), "--out", str(tmp_path / "f.jsonl")]
    )
    assert code == 0
    assert json.loads(out)["fallbacks"] == json.loads(out)["cases"] == 50
    analyze, evaluate = summaries[5], summaries[8]
    assert analyze["fallbacks"] == 0
    assert evaluate["failed_parses"] == 0


def _write_narratives(path: Path, texts: list[str]) -> None:
    atomic_write_jsonl(
        path,
        [
            {"caseno": f"K{i}", "descriptive": text, "outcome": "", "label": "NoApparentOrMinor"}
            for i, text in enumerate(texts)
        ],
    )


def test_augment_blank_narrative_falls_back_alone(tmp_path):
    narratives, out = tmp_path / "narratives.jsonl", tmp_path / "aug.jsonl"
    _write_narratives(narratives, ["A crash on Route 9 at 8:00 PM.", "   ", "The road in Chelan was dry."])
    code, summary = run_cli(["augment", "--offline", "--narratives", str(narratives), "--out", str(out)])
    assert code == 0
    assert json.loads(summary)["fallbacks"] == 1
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["caseno"] for r in records] == ["K0", "K1", "K2"]
    assert [r["passed"] for r in records] == [True, False, True]
    assert [r["error"] is not None for r in records] == [False, True, False]
    assert records[1]["augmented"] == "   " and records[1]["failures"] == []


def test_augment_summary_counts_failed_constraints(tmp_path, monkeypatch):
    """A rewrite that drops one record's milepost fails NumbersPreserved
    alone, and the summary counts it there and nowhere else."""
    from crashlens import cli
    from crashlens.augment import StubChatClient

    narratives, out = tmp_path / "narratives.jsonl", tmp_path / "aug.jsonl"
    texts = ["The crash was at milepost 22.4 on a dry road.", "The crash was at milepost 7 on a wet road."]
    _write_narratives(narratives, texts)
    drop = StubChatClient(transform=lambda user: user.replace("milepost 22.4", "the milepost"))
    monkeypatch.setattr(cli, "_chat_client", lambda args: drop)
    code, summary = run_cli(["augment", "--narratives", str(narratives), "--out", str(out)])
    assert code == 0
    doc = json.loads(summary)
    assert doc["fallbacks"] == 1
    assert doc["failed_constraints"] == {
        "NumbersPreserved": 1,
        "DatesTimesPreserved": 0,
        "ProperNounsPreserved": 0,
        "NoNullMarkers": 0,
        "ChronologyPreserved": 0,
    }
    assert list(doc) == ["narratives", "fallbacks", "failed_constraints", "out"]


def _attribution_lines(pipeline_dir: Path) -> list[str]:
    return (pipeline_dir / "attr_occ.jsonl").read_text().splitlines(keepends=True)


def _export_heatmap(attributions: Path, caseno: str, out: Path) -> list[str]:
    return [
        "export", "--kind", "heatmap", "--attributions", str(attributions), "--caseno", caseno, "--out", str(out),
    ]


def test_heatmap_export_stops_at_the_first_matching_record(pipeline, tmp_path):
    """A malformed line after the case's record is never read, and the page
    equals the one rendered from the whole, valid file."""
    d, _ = pipeline
    lines = _attribution_lines(d)
    attributions = tmp_path / "attr.jsonl"
    attributions.write_text("".join(lines[:2]) + "{not json\n" + "".join(lines[2:]))
    caseno, out, whole = json.loads(lines[1])["caseno"], tmp_path / "heat.html", tmp_path / "whole.html"
    assert run_cli(_export_heatmap(attributions, caseno, out))[0] == 0
    assert run_cli(_export_heatmap(d / "attr_occ.jsonl", caseno, whole))[0] == 0
    assert out.read_bytes() == whole.read_bytes()


def test_heatmap_export_reports_a_malformed_line_before_the_match(pipeline, tmp_path, capsys):
    d, _ = pipeline
    lines = _attribution_lines(d)
    attributions = tmp_path / "attr.jsonl"
    attributions.write_text(lines[0] + "[1, 2]\n" + "".join(lines[1:]))
    out = tmp_path / "heat.html"
    err = _main_error(_export_heatmap(attributions, json.loads(lines[1])["caseno"], out), capsys)
    assert err["error"] == "ParseError" and err["detail"].startswith("line 2:")
    assert not out.exists()


def test_heatmap_export_of_a_missing_caseno_is_a_cli_error(pipeline, tmp_path, capsys):
    d, _ = pipeline
    out = tmp_path / "heat.html"
    err = _main_error(_export_heatmap(d / "attr_occ.jsonl", "NOPE", out), capsys)
    assert err == {"error": "CliError", "detail": "caseno 'NOPE' not found in attributions"}
    assert not out.exists()


@pytest.mark.parametrize("threshold", ["0", "-1", "nan"])
def test_heatmap_threshold_at_or_below_zero_is_value_error(pipeline, tmp_path, capsys, threshold):
    """An unscored word scores 0, so a threshold at or below 0 would paint
    every word red, and nan would paint none."""
    d, _ = pipeline
    out = tmp_path / "heat.html"
    argv = _export_heatmap(d / "attr_occ.jsonl", "C0001", out) + ["--threshold-hi", threshold]
    err = _main_error(argv, capsys)
    assert err == {"error": "ValueError", "detail": f"need threshold_hi > 0; got {float(threshold)}"}
    assert not out.exists()


def test_heatmap_infinite_threshold_paints_no_word_red(pipeline, tmp_path):
    d, _ = pipeline
    out = tmp_path / "heat.html"
    assert run_cli(_export_heatmap(d / "attr_occ.jsonl", "C0001", out) + ["--threshold-hi", "inf"])[0] == 0
    page = out.read_text()
    assert 'class="hi"' not in page and 'class="mid"' in page


# Each command's flags as (dest, type, action), recorded from the parser
# before its settings flags came from one table; a flag without a type
# passes its text through, as `str` does.
_STORE, _STORE_TRUE = "_StoreAction", "_StoreTrueAction"
_COMMON_FLAGS = {
    "--config": ("config", "str", _STORE),
    "--seed": ("seed", "int", _STORE),
    "--offline": ("offline", None, _STORE_TRUE),
    "--jobs": ("jobs", "int", _STORE),
}
CLI_SURFACE = {
    "ingest": {
        "--crashes": ("crashes", "str", _STORE),
        "--segments": ("segments", "str", _STORE),
        "--vehicles": ("vehicles", "str", _STORE),
        "--persons": ("persons", "str", _STORE),
        "--out": ("out", "str", _STORE),
        "--balance": ("balance", None, _STORE_TRUE),
        "--target-ratio": ("target_ratio", "float", _STORE),
    },
    "narrate": {
        "--cases": ("cases", "str", _STORE),
        "--out": ("out", "str", _STORE),
        "--lexicon": ("lexicon", "str", _STORE),
        "--templates": ("templates", "str", _STORE),
    },
    "augment": {
        "--narratives": ("narratives", "str", _STORE),
        "--out": ("out", "str", _STORE),
        "--temperature": ("temperature", "float", _STORE),
        "--endpoint": ("endpoint", "str", _STORE),
    },
    "train-ref": {
        "--narratives": ("narratives", "str", _STORE),
        "--out-model": ("out_model", "str", _STORE),
        "--out-tokenizer": ("out_tokenizer", "str", _STORE),
        "--dim": ("dim", "int", _STORE),
        "--window": ("window", "int", _STORE),
        "--epochs": ("epochs", "int", _STORE),
        "--lr": ("lr", "float", _STORE),
    },
    "attribute": {
        "--narratives": ("narratives", "str", _STORE),
        "--model": ("model", "str", _STORE),
        "--tokenizer": ("tokenizer", "str", _STORE),
        "--out": ("out", "str", _STORE),
        "--method": ("method", "str", _STORE),
        "--caseno": ("caseno", "str", _STORE),
        "--L": ("L", "int", _STORE),
        "--b": ("b", "int", _STORE),
        "--display-divisor": ("display_divisor", "float", _STORE),
    },
    "analyze": {
        "--attributions": ("attributions", "str", _STORE),
        "--out": ("out", "str", _STORE),
        "--graph-out": ("graph_out", "str", _STORE),
        "--grouping-rules": ("grouping_rules", "str", _STORE),
        "--category-lexicon": ("category_lexicon", "str", _STORE),
        "--top-k": ("top_k", "int", _STORE),
        "--endpoint": ("endpoint", "str", _STORE),
    },
    "export": {
        "--kind": ("kind", "str", _STORE),
        "--out": ("out", "str", _STORE),
        "--graph": ("graph", "str", _STORE),
        "--attributions": ("attributions", "str", _STORE),
        "--caseno": ("caseno", "str", _STORE),
        "--threshold-hi": ("threshold_hi", "float", _STORE),
    },
    "eval": {
        "--narratives": ("narratives", "str", _STORE),
        "--strategy": ("strategy", "str", _STORE),
        "--out": ("out", "str", _STORE),
        "--metrics-out": ("metrics_out", "str", _STORE),
        "--temperature": ("temperature", "float", _STORE),
        "--endpoint": ("endpoint", "str", _STORE),
    },
    "build-sft": {
        "--narratives": ("narratives", "str", _STORE),
        "--out": ("out", "str", _STORE),
    },
}


def test_every_command_keeps_its_flags():
    import argparse

    from crashlens.cli import build_parser

    (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    surface = {
        name: {
            option: (a.dest, None if a.nargs == 0 else (a.type or str).__name__, type(a).__name__)
            for a in command._actions
            if not isinstance(a, argparse._HelpAction)
            for option in a.option_strings
        }
        for name, command in sub.choices.items()
    }
    assert surface == {name: {**_COMMON_FLAGS, **flags} for name, flags in CLI_SURFACE.items()}


# Each setting as (config text, config value, flag text, flag value); a
# store_true flag has no text. column_maps has no flag.
_SETTING_VALUES = {
    "seed": ("3", 3, "4", 4),
    "offline": ("true", True, None, True),
    "jobs": ("3", 3, "2", 2),
    "balance": ("true", True, None, True),
    "target_ratio": ("2", 2.0, "1.5", 1.5),
    "column_maps": ("{crash: {date: CRASH_DATE}}", {"crash": {"date": "CRASH_DATE"}}, None, None),
    "lexicon": ("a.yaml", "a.yaml", "b.yaml", "b.yaml"),
    "templates": ("a.yaml", "a.yaml", "b.yaml", "b.yaml"),
    "dim": ("16", 16, "8", 8),
    "window": ("64", 64, "400", 400),
    "epochs": ("3", 3, "5", 5),
    "lr": ("1", 1.0, "0.005", 0.005),
    "L": ("50", 50, "20", 20),
    "b": ("0", 0, "2", 2),
    "display_divisor": ("10", 10.0, "2.5", 2.5),
    "grouping_rules": ("a.yaml", "a.yaml", "b.yaml", "b.yaml"),
    "category_lexicon": ("a.yaml", "a.yaml", "b.yaml", "b.yaml"),
    "top_k": ("3", 3, "7", 7),
    "threshold_hi": ("4", 4.0, "inf", float("inf")),
    "temperature": ("0", 0.0, "0.7", 0.7),
    "endpoint": ("http://localhost:1/v1", "http://localhost:1/v1", "http://localhost:2/v1", "http://localhost:2/v1"),
}

# what each command's parser requires besides its settings
_REQUIRED_FLAGS = {
    "ingest": ["--crashes", "c", "--segments", "s", "--vehicles", "v", "--persons", "p", "--out", "o"],
    "narrate": ["--cases", "c", "--out", "o"],
    "augment": ["--narratives", "n", "--out", "o"],
    "train-ref": ["--narratives", "n", "--out-model", "m", "--out-tokenizer", "t"],
    "attribute": ["--narratives", "n", "--model", "m", "--tokenizer", "t", "--out", "o", "--method", "taylor"],
    "analyze": ["--attributions", "a", "--out", "o"],
    "export": ["--kind", "heatmap", "--out", "o"],
    "eval": ["--narratives", "n", "--strategy", "zs", "--out", "o"],
    "build-sft": ["--narratives", "n", "--out", "o"],
}

_SETTING_FLAGS = [
    (command, option, dest)
    for command, flags in CLI_SURFACE.items()
    for option, (dest, _, _) in {**_COMMON_FLAGS, **flags}.items()
    if dest in _SETTING_VALUES
] + [("ingest", None, "column_maps")]


@pytest.mark.parametrize(
    "command, option, key", _SETTING_FLAGS, ids=[f"{c}-{k}" for c, _, k in _SETTING_FLAGS]
)
def test_each_setting_reaches_its_stage_from_flag_then_config_then_default(
    tmp_path, monkeypatch, command, option, key
):
    """The stage's `args` holds the default with neither flag nor config,
    the config file's value (an int given for a float arrives as a float)
    without the flag, and the flag's value with both."""
    from crashlens import cli

    config_text, config_value, flag_text, flag_value = _SETTING_VALUES[key]
    seen = []
    monkeypatch.setattr(cli, "cmd_" + command.replace("-", "_"), lambda args: seen.append(getattr(args, key)) or 0)

    def run(config: str | None, *flag: str) -> None:
        argv = [command, *_REQUIRED_FLAGS[command], *flag]
        if config is not None:
            path = tmp_path / "cfg.yaml"
            path.write_text(f"{key}: {config}\n")
            argv += ["--config", str(path)]
        assert cli.main(argv) == 0

    run(None)
    run(config_text)
    expected = [cli.SETTINGS[key][0], config_value]
    if option is not None:
        # a store_true flag can only say true, so it must win over a false in the file
        run("false" if flag_text is None else config_text, option, *([] if flag_text is None else [flag_text]))
        expected.append(flag_value)
    assert seen == expected
    assert [type(v) for v in seen] == [type(v) for v in expected]


def test_every_setting_has_a_precedence_case():
    from crashlens.cli import SETTINGS

    assert {key for _, _, key in _SETTING_FLAGS} == set(_SETTING_VALUES) == set(SETTINGS)
