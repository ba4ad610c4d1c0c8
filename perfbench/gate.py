"""Output gate: every item's output is checked before it counts as done.

Two kinds of checks:

* digests -- sha256 of stdout plus the exit code, compared with the values
  recorded in digests.json (written by record_digests.py at the commit that
  defined the benchmark) for every item whose key is recorded, and with the
  first output of the same item within a run;
* oracles -- independent checks computed here from the printed output,
  without calling into multiseg: the degree of every resolved word, the
  dual's support, involution and rows/columns law (against this module's
  own Moeglin-Waldspurger implementation), verify's vanishing report,
  complex-check's suites, and clean exit 1 on malformed input.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import Counter
from pathlib import Path

DIGESTS = Path(__file__).resolve().parent / "digests.json"


def digest(rc, stdout: str) -> list:
    return [rc, hashlib.sha256(stdout.encode()).hexdigest()[:16]]


def load_digests(workload: str) -> dict:
    try:
        table = json.loads(DIGESTS.read_text())
    except FileNotFoundError:
        return {}
    return table.get(workload, {})


class Gate:
    """Checks items of one workload and counts failures."""

    def __init__(self, workload: str, recorded: dict | None = None):
        self.recorded = load_digests(workload) if recorded is None else recorded
        self.seen: dict = {}
        self.failures: list = []
        self.checked_recorded = 0

    def check(self, item, rc, stdout: str, stderr: str, error: str | None) -> bool:
        """True if the output passes; records the reason otherwise."""
        reason = self._reason(item, rc, stdout, stderr, error)
        if reason:
            self.failures.append(f"{' '.join(item.argv)[:80]}: {reason}")
        return reason is None

    def _reason(self, item, rc, stdout, stderr, error):
        if error is not None:
            return "raised: " + error.strip().splitlines()[-1]
        if "Traceback" in stderr:
            return "traceback on stderr"
        key = item.key()
        dig = digest(rc, stdout)
        if key in self.seen:
            # a repeat of an item already checked in this run
            return None if self.seen[key] == dig else "output differs from an earlier pass"
        if key in self.recorded:
            self.checked_recorded += 1
            if self.recorded[key] != dig:
                return f"digest {dig} differs from recorded {self.recorded[key]}"
        try:
            reason = ORACLES[item.check](item, rc, stdout, stderr)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            reason = f"unreadable output ({type(exc).__name__}: {exc})"
        if reason is None:
            self.seen[key] = dig
        return reason


# ---------------------------------------------------------------- parsing

def parse_half(text: str) -> int:
    """'p/2' or an integer -> doubled integer."""
    text = text.strip()
    if text.endswith("/2"):
        return int(text[:-2])
    return 2 * int(text)


_SEG = re.compile(r"\[\s*([^.\]\s]+)\s*\.\.\s*([^\]\s]+)\s*\]\s*([A-Za-z_]\w*)?")


def parse_ms(text: str) -> Counter:
    """Multisegment text -> Counter of unoriented (label, hi2, lo2)."""
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError(f"not a multisegment: {text[:40]!r}")
    out: Counter = Counter()
    for s, e, lab in _SEG.findall(text[1:-1]):
        s2, e2 = parse_half(s), parse_half(e)
        out[(lab or "rho", max(s2, e2), min(s2, e2))] += 1
    return out


def support(ms: Counter) -> Counter:
    pts: Counter = Counter()
    for (lab, hi, lo), k in ms.items():
        for x in range(lo, hi + 1, 2):
            pts[(lab, x)] += k
    return pts


def mw_dual(ms: Counter) -> Counter:
    """Zelevinsky involution by the Moeglin-Waldspurger algorithm.

    Per (label, coset) family: take a shortest segment with the largest end,
    then repeatedly a shortest segment ending one step lower that starts
    strictly lower; the chain's ends span one dual segment.  Drop each chain
    segment's end point and repeat.
    """
    fams: dict = {}
    for (lab, hi, lo), k in ms.items():
        fams.setdefault((lab, hi % 2), []).extend([[lo, hi]] * k)
    out: Counter = Counter()
    for (lab, _), segs in fams.items():
        segs = [list(s) for s in segs]
        while segs:
            top = max(e for _, e in segs)
            end, prev_lo, chain = top, None, []
            while True:
                cands = [i for i, (lo, e) in enumerate(segs)
                         if e == end and i not in chain and (prev_lo is None or lo < prev_lo)]
                if not cands:
                    break
                i = max(cands, key=lambda j: segs[j][0])
                chain.append(i)
                prev_lo = segs[i][0]
                end -= 2
            out[(lab, top, end + 2)] += 1
            for i in chain:
                segs[i][1] -= 2
            segs = [s for s in segs if s[1] >= s[0]]
    return out


def word_degree(word, dims) -> int:
    deg = 0
    for atom in word:
        rows = [[atom["start"], atom["end"]]] if atom["type"] == "segment" else atom["rows"]
        length = sum(abs(parse_half(s) - parse_half(e)) // 2 + 1 for s, e in rows)
        deg += length * dims[atom["rho"]]
    return deg


# ---------------------------------------------------------------- oracles

def _rc(item, rc, stdout, stderr):
    return None if rc == item.rc else f"exit code {rc}, expected {item.rc}"


def _classify(item, rc, stdout, stderr):
    n = item.info["n"]
    if rc != 0:
        return f"exit code {rc}"
    if "--json" in item.argv:
        return None if json.loads(stdout)["n"] == n else "wrong n"
    return None if stdout.startswith(f"n = {n}\n") else "wrong n"


def _degree(item, rc, stdout, stderr):
    """Every word of the printed expression has degree n."""
    n = item.info["n"]
    if rc != 0:
        return f"exit code {rc}"
    if "--json" not in item.argv:
        return None if f"(n = {n})" in stdout.split("\n", 1)[0] else "wrong n"
    payload = json.loads(stdout)
    if payload.get("n", n) != n:
        return f"n = {payload['n']}, expected {n}"
    for term in payload["terms"]:
        deg = word_degree(term["word"], item.info["dims"])
        if deg != n:
            return f"word of degree {deg}, expected {n}"
    return None


def _verify(item, rc, stdout, stderr):
    """Single block: exit 0 and every check vanishes."""
    if rc != 0:
        return f"exit code {rc}"
    if "--json" in item.argv:
        report = json.loads(stdout)
        ok = report["checks"] and all(ch["vanishes"] for ch in report["checks"])
        return None if ok and report["all_vanish"] else "a check does not vanish"
    lines = stdout.splitlines()[1:]
    ok = lines and all(line.rstrip().endswith("vanishes") for line in lines)
    return None if ok else "a check does not vanish"


def _verify_commutative(item, rc, stdout, stderr):
    """Several blocks: every check vanishes at least modulo commutation, and
    the exit code is 0 exactly when every check vanishes on the nose."""
    report = json.loads(stdout)
    checks = report["checks"]
    if not checks:
        return "no checks"
    if not all(ch.get("vanishes_mod_commutative", ch["vanishes"]) for ch in checks):
        return "a check does not vanish modulo commutation"
    expected = 0 if all(ch["vanishes"] for ch in checks) else 2
    return None if rc == expected else f"exit code {rc}, expected {expected}"


def _dual(item, rc, stdout, stderr):
    if rc != 0:
        return f"exit code {rc}"
    given = parse_ms(item.argv[-1])
    printed = json.loads(stdout)["dual"] if "--json" in item.argv else stdout
    dual = parse_ms(printed)
    if support(dual) != support(given):
        return "dual changes the support"
    if mw_dual(dual) != given:
        return "dual is not an involution"
    if dual != mw_dual(given):
        return "dual differs from the Moeglin-Waldspurger dual"
    if "cols" in item.info:
        cols = Counter((lab, max(s, e), min(s, e)) for lab, s, e in item.info["cols"])
        if dual != cols:
            return "rows/columns law fails"
    return None


def _complex(item, rc, stdout, stderr):
    if rc != 0:
        return f"exit code {rc}"
    if "--json" in item.argv:
        ok = all(suite["pass"] for suite in json.loads(stdout))
    else:
        ok = all(line.endswith("PASS") for line in stdout.splitlines())
    return None if ok and stdout.strip() else "a suite failed"


def _malformed(item, rc, stdout, stderr):
    if rc != 1:
        return f"exit code {rc}, expected 1"
    return None if stderr.startswith("error: ") else "no error message"


ORACLES = {
    "rc": _rc,
    "classify": _classify,
    "degree": _degree,
    "verify": _verify,
    "verify_commutative": _verify_commutative,
    "dual": _dual,
    "complex": _complex,
    "malformed": _malformed,
}
