"""The argv corpus of ``tests/corpus.py`` as a gate.

One fresh process runs every argv of the corpus under ``sys.setprofile``,
installed before ``umbra`` is imported (``corpus.traced_sweep``).  Each
argv's (exit code, stdout, stderr) must keep its digest in
``tests/golden/corpus-digests.json``, and every function that
``src/umbra`` defines must be entered by some argv or be listed, with
its reason, in ``tests/unreached.txt``, which lists nothing else.

Re-record the digests (only for an intended output change, noted in
CHANGES.md) with ``python tests/corpus.py --record``.
"""

import json
from pathlib import Path

import corpus

UNREACHED = Path(__file__).parent / "unreached.txt"


def _listed() -> dict[str, str]:
    """{function: reason} from ``unreached.txt``."""
    out = {}
    for line in UNREACHED.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            name, _, reason = line.partition(":")
            assert reason.strip(), f"{name} is listed without a reason"
            out[name.strip()] = reason.strip()
    return out


def test_the_corpus_keeps_its_digests_and_enters_every_unlisted_function():
    argvs = corpus.corpus()
    results, unreached = corpus.traced_sweep(argvs)
    want = json.loads(corpus.DIGESTS.read_text())
    got = corpus.digests(argvs, results)
    changed = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
    assert not changed, f"{len(changed)} argvs changed their output, as {changed[:10]}"
    listed = _listed()
    dead, stale = sorted(unreached - listed.keys()), sorted(listed.keys() - unreached)
    assert not dead, f"entered by no argv and not listed: {dead}"
    assert not stale, f"listed, but entered by an argv or not defined: {stale}"
