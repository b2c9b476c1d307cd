"""Fresh-process probe: set-up time and peak resident set of one workload.

Usage: python3 cold.py SRC_DIR COLD_ARGV_JSON [PASS_JSON]

Times a fresh interpreter importing ``detuned_tls.cli``, parsing the scenario
and making the first (cold) call, given as a JSON list of CLI arguments.  When
PASS_JSON (a JSON list of argument lists) is given, it then runs those
commands once.  Prints one JSON object: ``setup_s``, ``peak_rss_mb`` (the
process's peak resident set), the exit codes of all calls, and the SHA-256
digest of each PASS_JSON command's output.
"""

import time

_START = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _call(cli, argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def main() -> int:
    sys.path.insert(0, sys.argv[1])
    from detuned_tls import cli

    codes = [_call(cli, json.loads(sys.argv[2]))[0]]
    setup_s = time.perf_counter() - _START
    digests = []
    for argv in json.loads(sys.argv[3]) if len(sys.argv) > 3 else []:
        code, digest = _call(cli, argv)
        codes.append(code)
        digests.append(digest)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({
        "setup_s": setup_s,
        "peak_rss_mb": peak_kib * 1024 / 1e6,
        "codes": codes,
        "digests": digests,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
