"""Shows that every output check can fail.

Run from the root of a crashlens checkout:

    python3 perfbench/selftest.py

It runs one chain on bundled-offline and one on endpoint-latency (seed 1),
then runs each check on the chain's artifacts, where it must pass, and on a
deliberately corrupted copy of the artifact it reads, where it must fail. It
prints one line per corruption and exits 1 if any check passes a corrupted
copy or fails a clean one.
"""

from __future__ import annotations

import copy
import math
import shutil
import sys
import tempfile
from pathlib import Path

import checks
import run

SEED = 1


def _first(records: list[dict], pred) -> dict:
    return next(r for r in records if pred(r))


def drop_person(art: dict) -> None:
    case = _first(art["cases.jsonl"], lambda c: c["units"] and c["units"][0]["persons"])
    case["units"][0]["persons"].pop()


def null_marker(art: dict) -> None:
    art["narratives.jsonl"][3]["descriptive"] += " The weather was unknown."


def edited_rewrite(art: dict) -> None:
    art["augmented.jsonl"][0]["augmented"] += " It was raining."


def kept_broken_rewrite(art: dict) -> None:
    _first(art["augmented.jsonl"], lambda r: not r["passed"])["passed"] = True


def nll_above_uniform(art: dict) -> None:
    art["train_summary"]["final_nll"] = math.log(len(art["tokenizer.json"]["tokens"])) + 0.1


def inverted_head(art: dict) -> None:
    doc = art["model.json"]
    doc["output_weights"] = [[-x for x in row] for row in doc["output_weights"]]
    doc["output_bias"] = [-x for x in doc["output_bias"]]


def score_above_range(art: dict) -> None:
    rec = art["attr_taylor.jsonl"][0]
    rec["score_matrix"][0][2] = rec["L"] + 5


def column_short_of_L(art: dict) -> None:
    rec = art["attr_occlusion.jsonl"][0]
    rec["score_matrix"] = [e for e in rec["score_matrix"] if e[2] < rec["L"]]


def edited_score(art: dict) -> None:
    for rec in art["attr_occlusion.jsonl"]:
        if rec["score_matrix"]:
            min(rec["score_matrix"], key=lambda e: e[2])[2] += 7
        else:
            rec["score_matrix"].append([1, 0, rec["L"] // 2])


def changed_link_count(art: dict) -> None:
    art["graph.json"]["links"][0]["count"] += 1


def dropped_heatmap_word(art: dict) -> None:
    art["heatmap.html"] = art["heatmap.html"].replace(" Washington.", " .", 1)


def flipped_prediction(art: dict) -> None:
    pred = _first(art["pred_zs.jsonl"], lambda p: p["label"] is not None)
    pred["label"] = "SeriousOrFatal" if pred["label"] == "NoApparentOrMinor" else "NoApparentOrMinor"


def fuzzy_status(art: dict) -> None:
    art["pred_zs-cot.jsonl"][0]["parse_status"] = "fuzzy"


def label_in_prompt(art: dict) -> None:
    rec = art["sft.jsonl"][0]
    rec["user"] += " Serious injury or fatal."
    rec["mask_boundary"] += len(" Serious injury or fatal.")


def shifted_boundary(art: dict) -> None:
    art["sft.jsonl"][0]["mask_boundary"] += 1


def swapped_top_factors(art: dict) -> None:
    for rec in art["factors.jsonl"]:
        for names in rec["top_factors"].values():
            if len(names) >= 2 and names[0] != names[1]:
                names[0], names[1] = names[1], names[0]
                return
    raise AssertionError("no case has two top factors to swap")


# check name -> corruptions of the artifact it reads
CORRUPTIONS = {
    "join": [("a dropped person row", drop_person)],
    "narratives": [("a null marker in a narrative", null_marker)],
    "augment-offline": [("an edited rewrite", edited_rewrite)],
    "augment-endpoint": [("a broken rewrite marked passed", kept_broken_rewrite)],
    "model": [("final_nll above ln(vocab)", nll_above_uniform), ("an inverted output head", inverted_head)],
    "scores": [("a score above L + 1", score_above_range), ("a column short of L", column_short_of_L)],
    "occlusion": [("an edited score", edited_score)],
    "graph": [("a changed link count", changed_link_count)],
    "heatmap": [("a dropped word", dropped_heatmap_word)],
    "eval": [("a flipped label", flipped_prediction)],
    "eval-endpoint": [("an exact parse marked fuzzy", fuzzy_status)],
    "sft": [("a label in the user turn", label_in_prompt), ("a shifted mask boundary", shifted_boundary)],
    "factors-endpoint": [("two top factors swapped", swapped_top_factors)],
}


def _rejects(check, art: dict, ctx) -> bool:
    try:
        check(art, ctx)
    except checks.CheckFailed:
        return True
    return False


def selftest_workload(workload: str, work: Path) -> int:
    ctx = run.make_inputs(workload, SEED, work)
    chain = work / "chain0"
    with run.chat_endpoint(ctx):
        run.run_chain(ctx, chain)
    art = checks.load_artifacts(chain)
    bad = 0
    for name, check in checks.checks_for(ctx):
        clean = not _rejects(check, copy.deepcopy(art), ctx)
        for what, corrupt in CORRUPTIONS[name]:
            corrupted = copy.deepcopy(art)
            corrupt(corrupted)
            rejected = _rejects(check, corrupted, ctx)
            bad += not (clean and rejected)
            print(f"{workload:17s} {name:17s} clean: {'pass' if clean else 'FAIL':4s}  "
                  f"{what}: {'rejected' if rejected else 'ACCEPTED'}")
    twin = work / "chain1"
    shutil.copytree(chain, twin)
    clean = not _rejects(lambda *_: checks.check_determinism([chain, twin]), art, ctx)
    data = bytearray((twin / "graph.json").read_bytes())
    data[-2] ^= 1
    (twin / "graph.json").write_bytes(bytes(data))
    rejected = _rejects(lambda *_: checks.check_determinism([chain, twin]), art, ctx)
    bad += not (clean and rejected)
    print(f"{workload:17s} {'determinism':17s} clean: {'pass' if clean else 'FAIL':4s}  "
          f"one flipped bit in graph.json: {'rejected' if rejected else 'ACCEPTED'}")
    return bad


def main() -> int:
    if not (run.SRC / "crashlens" / "cli.py").is_file():
        print("selftest: run from the root of a crashlens checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    run.OUT.mkdir(exist_ok=True)
    bad = 0
    for workload in ("bundled-offline", "endpoint-latency"):
        work = Path(tempfile.mkdtemp(prefix=f"selftest-{workload}-", dir=run.OUT))
        try:
            bad += selftest_workload(workload, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    print("every check rejected its corrupted copies" if not bad else f"{bad} check(s) misbehaved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
