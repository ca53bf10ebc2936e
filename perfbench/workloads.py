"""The four workloads: seeded inputs, one timed request, and output checks.

Every workload is a closed loop with one client.  `items(seed)` yields the
seeded request inputs without end; `request(item)` is the only timed code;
`check(index, item, output, tally)` runs outside the timed region and
records failures and per-layer counters in a `Tally`.  The package is reached only
through module attributes looked up at call time, so the tracer's wrappers
see every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import subprocess

import numpy as np

from xpoincare import checks, cli, lorentz, poincare, xlorentz

DecompositionError = lorentz.DecompositionError

# Relative tolerances: every comparison is scaled by the size of its inputs.
REL_TOL = 1e-8
THETA_TOL = 1e-6          # the theta suite's gate, closed vs numeric entries
OPLUS_HOM_EVERY = 10      # oplus homomorphism spot check on every 10th request
THETA_NUMERIC_EVERY = 100  # theta_closed vs theta_numeric on every 100th request
VERIFY_TRIALS = 1000
CLI_TIMEOUT_S = 60.0


class Tally:
    """Failures and counters gathered by the output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.counts: dict[str, int] = {}
        self.messages: list[str] = []

    def count(self, name: str) -> None:
        self.counts[name] = self.counts.get(name, 0) + 1

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(message)


class Workload:
    """Interface of a workload; subclasses define items, request, check."""

    name = ""
    block = 1            # requests per checked report in the untraced loop
    command_is_block = False  # a user command is one request, or one report
    trace_requests = 1   # requests in the fixed pass of a traced run

    def items(self, seed):
        raise NotImplementedError

    def warm_item(self, seed):
        """Input of the untimed, unchecked warm-up request."""
        return next(iter(self.items(seed)))

    def request(self, item):
        raise NotImplementedError

    def check(self, index, item, out, tally: "Tally") -> None:
        raise NotImplementedError


def _amax(x) -> float:
    return float(np.max(np.abs(x)))


def _scale(*norms: float) -> float:
    return max(1.0, *norms)


def _translation(g) -> np.ndarray:
    return np.concatenate([g.a, [g.alpha]])


def _finite_params(g) -> bool:
    return bool(np.all(np.isfinite(poincare.params_to_vector(g))))


# --- shared checks ------------------------------------------------------------

def check_compose(g2, g1, m2, m1, out, tally: Tally, tag: str) -> None:
    """compose against the affine route, the round trip of the accepted
    product matrix, and the classification of rejections.  m2 and m1 are
    the extended-Lorentz matrices of g2 and g1."""
    m = m2 @ m1
    try:
        ref = poincare.compose_via_affine(g2, g1)
    except DecompositionError:
        ref = None
    if isinstance(out, DecompositionError):
        tally.count("rejects_gsgs_below_minus1" if m[4, 4] < -1.0 else "rejects_other")
        if ref is not None:
            tally.count("route_disagreements")
        return
    tally.count("compose_accepted")
    if ref is None:
        tally.count("route_disagreements")
    if not _finite_params(out):
        tally.fail(f"{tag}: compose returned non-finite parameters")
        return
    mnorm = _amax(m)
    m_out = xlorentz.xl_matrix(out.xl)
    res = _amax(m_out - m)
    if res > REL_TOL * _scale(mnorm ** 2):
        tally.fail(f"{tag}: compose round trip residual {res:.3e} (|M| {mnorm:.3g})")
    if ref is not None:
        tscale = _scale(mnorm ** 2, _amax(m2) * _amax(_translation(g1))
                        + _amax(_translation(g2)))
        res = max(_amax(m_out - xlorentz.xl_matrix(ref.xl)),
                  _amax(_translation(out) - _translation(ref)))
        if res > REL_TOL * tscale:
            tally.fail(f"{tag}: compose vs compose_via_affine residual {res:.3e}")


def check_inverse(g, m, g_inv, tally: Tally, tag: str) -> None:
    """compose(g, inverse(g)) against the identity; m is the
    extended-Lorentz matrix of g."""
    if not _finite_params(g_inv):
        tally.fail(f"{tag}: inverse returned non-finite parameters")
        return
    try:
        e = poincare.compose(g, g_inv)
    except DecompositionError as exc:
        tally.fail(f"{tag}: compose(g, inverse(g)) rejected: {exc}")
        return
    res = max(_amax(xlorentz.xl_matrix(e.xl) - np.eye(5)), _amax(_translation(e)))
    if res > REL_TOL * _scale(_amax(m) ** 2 * _scale(_amax(_translation(g)))):
        tally.fail(f"{tag}: compose(g, inverse(g)) is {res:.3e} from the identity")


def check_decompose(m, out, tally: Tally, tag: str) -> None:
    """Round trip of an accepted xl_decompose of m."""
    res = _amax(xlorentz.xl_matrix(out) - m)
    if not np.isfinite(res) or res > REL_TOL * _scale(_amax(m) ** 2):
        tally.fail(f"{tag}: xl_decompose round trip residual {res:.3e}")


# --- workloads ----------------------------------------------------------------

class GroupOps(Workload):
    """Library caller's path on pairs inside the chart (sample_params narrow)."""

    name = "group-ops"
    block = 1000
    command_is_block = True
    trace_requests = 1000

    def items(self, seed):
        rng = np.random.default_rng([seed, 11])
        while True:
            yield checks.sample_params(rng), checks.sample_params(rng)

    def request(self, item):
        g2, g1 = item
        try:
            c = poincare.compose(g2, g1)
        except DecompositionError as exc:
            c = exc
        return (c, poincare.inverse(g2), poincare.oplus(g1),
                poincare.theta_closed(g2))

    def check(self, index, item, out, tally: Tally) -> None:
        g2, g1 = item
        tag = f"{self.name} request {index}"
        c, g2_inv, o1, t2 = out
        m2, m1 = xlorentz.xl_matrix(g2.xl), xlorentz.xl_matrix(g1.xl)
        check_compose(g2, g1, m2, m1, c, tally, tag)
        check_inverse(g2, m2, g2_inv, tally, tag)
        if not np.all(np.isfinite(o1)):
            tally.fail(f"{tag}: oplus returned non-finite entries")
        elif _amax(o1[10:, 10:] - m1) > 1e-12 * _scale(_amax(o1)):
            tally.fail(f"{tag}: oplus translation block differs from xl_matrix")
        elif index % OPLUS_HOM_EVERY == 0 and not isinstance(c, DecompositionError):
            o2 = poincare.oplus(g2)
            res = _amax(poincare.oplus(c) - o2 @ o1)
            if res > REL_TOL * _scale(_amax(o2) * _amax(o1)):
                tally.fail(f"{tag}: oplus homomorphism residual {res:.3e}")
        mask = poincare.theta_claimed_mask()
        if not (np.all(np.isfinite(t2[mask])) and np.all(np.isnan(t2[~mask]))):
            tally.fail(f"{tag}: theta_closed breaks its finite/NaN contract")
        elif index % THETA_NUMERIC_EVERY == 0:
            res = _amax((t2 - poincare.theta_numeric(g2))[mask])
            if res > THETA_TOL:
                tally.fail(f"{tag}: theta_closed vs theta_numeric residual {res:.3e}")


def pinned_xl(rng, u) -> "xlorentz.XLParams":
    """Element pinned near the trig branch point r = pi and |theta| = pi."""
    v = rng.normal(size=3)
    n = np.concatenate([[np.sqrt(1.0 + v @ v)], v])
    r = np.pi - rng.choice([0.0, 1e-9, 1e-6])
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    ang = np.pi - rng.choice([0.0, 1e-7, 1e-4])
    return xlorentz.XLParams(n * r, u, axis * ang)


class ChartEdge(Workload):
    """Wide pairs over all three branches; every tenth pair sits at the
    trig branch point.  Takes the branch-edge and rejection paths."""

    name = "chart-edge"
    block = 1000
    command_is_block = True
    trace_requests = 1000

    def items(self, seed):
        rng = np.random.default_rng([seed, 12])
        for i in itertools.count():
            g2 = checks.sample_params(rng, wide=True)
            g1 = checks.sample_params(rng, wide=True)
            if i % 10 == 0:
                g2 = poincare.GroupParams(g2.alpha, g2.a, pinned_xl(rng, g2.xl.u))
                g1 = poincare.GroupParams(g1.alpha, g1.a, pinned_xl(rng, g1.xl.u))
            yield g2, g1

    def request(self, item):
        g2, g1 = item
        try:
            c = poincare.compose(g2, g1)
        except DecompositionError as exc:
            c = exc
        return c, xlorentz.xl_decompose(xlorentz.xl_matrix(g1.xl))

    def check(self, index, item, out, tally: Tally) -> None:
        g2, g1 = item
        tag = f"{self.name} request {index}"
        c, d1 = out
        m2, m1 = xlorentz.xl_matrix(g2.xl), xlorentz.xl_matrix(g1.xl)
        check_compose(g2, g1, m2, m1, c, tally, tag)
        check_decompose(m1, d1, tally, tag)
        if index % OPLUS_HOM_EVERY == 0:
            check_inverse(g1, m1, poincare.inverse(g1), tally, tag)


class Verify(Workload):
    """What `xpoincare check --suite all --trials 1000` users wait on."""

    name = "verify"
    block = 1
    trace_requests = 1

    def __init__(self):
        self._first: dict[int, str] = {}

    def items(self, seed):
        while True:
            yield seed, VERIFY_TRIALS

    def warm_item(self, seed):
        return seed, 10

    def request(self, item):
        seed, trials = item
        return checks.run_suite("all", trials, seed)

    def check(self, index, item, report, tally: Tally) -> None:
        seed = item[0]
        tag = f"{self.name} report {index}"
        if report.get("pass") is not True:
            tally.fail(f"{tag}: report does not pass: {report.get('failures')}")
        text = json.dumps(report)
        first = self._first.setdefault(seed, text)
        if text != first:
            tally.fail(f"{tag}: report differs from the first report of seed {seed}")


# --- cli ------------------------------------------------------------------------

CLI_KINDS = ("compose", "invert", "oplus", "theta", "decompose", "check")


def _matrix_doc(m) -> dict:
    return {"matrix": [[None if np.isnan(x) else float(x) for x in row] for row in m]}


class Cli(Workload):
    """Fresh `xpoincare` processes, one at a time, over seeded input files.

    Each item is (argv, expected exit code, expected JSON document, or None
    for no output); the document is computed in-process from the same inputs
    before any timing.
    """

    name = "cli"
    block = len(CLI_KINDS)
    trace_requests = 6 * len(CLI_KINDS)

    def __init__(self, script: str, env: dict, workdir: str):
        self.script = script
        self.env = env
        self.workdir = workdir

    def _write(self, name: str, obj) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return path

    def _outside_chart(self, rng) -> np.ndarray:
        while True:
            m = (xlorentz.xl_matrix(checks.sample_xl(rng, wide=True))
                 @ xlorentz.xl_matrix(checks.sample_xl(rng, wide=True)))
            if m[4, 4] < -1.0:
                try:
                    xlorentz.xl_decompose(m)
                except DecompositionError:
                    return m

    def items(self, seed):
        rng = np.random.default_rng([seed, 13])
        n_decompose = 0
        for i in itertools.count():
            kind = CLI_KINDS[i % len(CLI_KINDS)]
            if kind == "compose":
                g2, g1 = checks.sample_params(rng), checks.sample_params(rng)
                args = ["compose", self._write(f"{i}-l.json", checks.element_doc(g2)),
                        self._write(f"{i}-r.json", checks.element_doc(g1))]
                yield args, 0, checks.element_doc(poincare.compose(g2, g1))
            elif kind in ("invert", "oplus", "theta"):
                g = checks.sample_params(rng)
                path = self._write(f"{i}.json", checks.element_doc(g))
                if kind == "invert":
                    yield ["invert", path], 0, checks.element_doc(poincare.inverse(g))
                elif kind == "oplus":
                    yield ["oplus", path], 0, _matrix_doc(poincare.oplus(g))
                else:
                    yield ["theta", path], 0, _matrix_doc(poincare.theta_numeric(g))
            elif kind == "decompose":
                if n_decompose % 10 == 0:
                    m, code, doc = self._outside_chart(rng), 3, None
                else:
                    m = xlorentz.xl_matrix(checks.sample_xl(rng, wide=True))
                    code = 0
                    doc = checks.element_doc(poincare.GroupParams(xl=xlorentz.xl_decompose(m)))
                n_decompose += 1
                path = self._write(f"{i}-m.json", {"matrix": m.tolist()})
                yield ["decompose", "--matrix", path], code, doc
            else:
                s = int(rng.integers(0, 2 ** 31))
                yield (["check", "--suite", "jacobi", "--trials", "10", "--seed", str(s)],
                       0, checks.run_suite("jacobi", 10, s))

    def request(self, item):
        """One fresh console-script process; returns (exit code, stdout)."""
        argv = item[0]
        proc = subprocess.Popen([self.script, *argv], env=self.env,
                                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL)
        try:
            out, _ = proc.communicate(timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        return proc.returncode, out

    def request_inproc(self, item):
        """The same command through cli.main in this process."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(item[0]))
        return code, buf.getvalue().encode()

    def check(self, index, item, out, tally: Tally) -> None:
        """Exit code, bytes equal to the canonical text of the expected
        document, and values that parse back to it exactly."""
        argv, code, doc = item
        got_code, got = out
        tag = f"{self.name} command {index} ({argv[0]})"
        text = "" if doc is None else cli.canonical_json(doc) + "\n"
        if got_code != code:
            tally.fail(f"{tag}: exit code {got_code}, expected {code}")
        elif got != text.encode():
            tally.fail(f"{tag}: stdout differs from the in-process canonical output")
        elif doc is not None and json.loads(got) != doc:
            tally.fail(f"{tag}: stdout does not parse back to the exact values")
        elif code == 3:
            tally.count("rejects_expected")
