"""Constraint-checked narrative rewriting, demonstrated without a live API.

The stub client echoes the narrative, and a scripted rewriter mangles it
on purpose, so the fact-preservation checks can be watched doing their
job: a rewrite that drops a number, a date, or a place name is rejected
and the original text is kept byte for byte.
"""
from __future__ import annotations

from crashlens.augment import SYSTEM_PROMPT, augment_batch
from crashlens.cli import load_config
from crashlens.util import StubChatClient

NARRATIVE = (
    "On June 29, 2022, at 8:00 PM, a traffic accident occurred on Alternate "
    "Route 097ARi in Chelan, Washington. The crash site was at milepost 22.4. "
    "The posted speed limit was 60 mph. By 9:15 PM the road had been cleared."
)


class Rewriter:
    """A chat client whose completion is `rewrite(user)`."""

    def __init__(self, rewrite):
        self.rewrite = rewrite

    def send(self, system: str, user: str, temperature: float) -> str:
        return self.rewrite(user)


def main() -> None:
    cfg = load_config(None)  # `augment`'s defaults
    temperature, jobs = cfg["temperature"], cfg["jobs"]
    print("system prompt sent to the rewriter:")
    print(SYSTEM_PROMPT)
    print()

    # a well-behaved rewriter: everything passes
    _, report = augment_batch([NARRATIVE], StubChatClient(), temperature, jobs)[0]
    print(f"identity rewrite: passed={report.passed}")

    # a sloppy rewriter: numbers and places go missing
    def sloppy(user: str) -> str:
        return user.replace("milepost 22.4", "the milepost").replace(
            " in Chelan, Washington", ""
        )

    text, report = augment_batch([NARRATIVE], Rewriter(sloppy), temperature, jobs)[0]
    print(f"sloppy rewrite:   passed={report.passed}, fell back to original={text == NARRATIVE}")
    for failure in report.failures:
        print(f"  {failure.kind.name}: {failure.offending}")

    # restating a time in 24-hour form is a legal paraphrase, not a violation
    def military(user: str) -> str:
        return user.replace("8:00 PM", "20:00").replace("9:15 PM", "21:15")

    text, report = augment_batch([NARRATIVE], Rewriter(military), temperature, jobs)[0]
    print(f"24h restatement:  passed={report.passed}")


if __name__ == "__main__":
    main()
