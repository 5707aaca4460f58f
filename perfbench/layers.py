"""Per-layer tracing from outside the package.

``Tracer.install`` replaces the public functions of each library module,
the kernel entry points and the CLI's ``_resolve``, runners, sweep loop
and ``_emit`` with timing wrappers, and ``uninstall`` puts the originals
back. Library modules call each other through module attributes, so the
wrappers see nested calls too. Each wrapper records calls, inclusive
time, self time (inclusive minus the time of wrapped callees) and calls
that raised, and a few hooks read work counts off arguments and results.

Layer self time is single-threaded bookkeeping: never trace a
``--workers`` > 1 run.

``import_times`` runs ``python -X importtime`` in a fresh interpreter per
module and reads the module's cumulative import time.
"""

import functools
import io
import os
import subprocess
import sys
import time
from collections import defaultdict

LIBRARY_MODULES = (
    "numerics", "dipole_fields", "oscillator_pair", "matsubara", "response_kinetics",
    "materials_spectral", "geometry_coupling", "friction_forces", "verification",
)
KERNELS = ("rk4_batch", "mode_sum", "halfspace_chunk")
SUITES = ("numerics", "fields", "oscillator", "matsubara", "response", "materials",
          "geometry", "forces")
# metric prefix -> importable module
IMPORT_MODULES = dict(
    [("cli", "magfriction.cli"), ("kernels", "magfriction._kernels")]
    + [(m, "magfriction." + m) for m in LIBRARY_MODULES]
)

PER_LAYER = (
    [("%s.import_s" % name, "s") for name in IMPORT_MODULES]
    + [
        ("cli.resolve.self_s", "s"), ("cli.runner.self_s", "s"), ("cli.sweep.self_s", "s"),
        ("cli.rows", "count"), ("cli.emit.self_s", "s"), ("cli.emit.bytes", "bytes"),
        ("cli.sweep.pool_ratio", "ratio"),
        ("friction_forces.calls", "count"), ("friction_forces.self_s", "s"),
        ("friction_forces.errors", "count"),
        ("geometry_coupling.calls", "count"), ("geometry_coupling.self_s", "s"),
        ("materials_spectral.calls", "count"), ("materials_spectral.self_s", "s"),
        ("materials_spectral.smoothed_H0.quad_share", "ratio"),
        ("numerics.quad_finite.calls", "count"), ("numerics.quad_finite.evals", "count"),
        ("numerics.quad_finite.self_s", "s"),
        ("numerics.quad_semi_infinite.calls", "count"), ("numerics.quad_semi_infinite.self_s", "s"),
        ("numerics.errors", "count"),
        ("matsubara.induced_free_energy.calls", "count"),
        ("matsubara.induced_free_energy.self_s", "s"),
        ("matsubara.induced_free_energy.errors", "count"), ("matsubara.modes", "count"),
        ("kernels.mode_sum.terms", "count"), ("kernels.mode_sum.self_s", "s"),
        ("oscillator_pair.integrate_eom.calls", "count"), ("oscillator_pair.integrate_eom.self_s", "s"),
        ("kernels.rk4_batch.steps", "count"), ("kernels.rk4_batch.self_s", "s"),
        ("numerics.mc_integrate.samples", "count"), ("numerics.mc_integrate.self_s", "s"),
        ("kernels.halfspace_chunk.samples", "count"), ("kernels.halfspace_chunk.self_s", "s"),
        ("kernels.bytes_computed", "bytes"),
        ("response_kinetics.self_s", "s"), ("dipole_fields.self_s", "s"),
    ]
    + [("verification.%s.s" % suite, "s") for suite in SUITES]
    + [("verification.pass_ratio", "ratio"), ("trace.overhead_frac", "ratio")]
)


class _Stat:
    __slots__ = ("calls", "total", "self", "errors")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.errors = 0


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


class Tracer:
    """Timing wrappers around the package's layers, and their totals."""

    def __init__(self):
        self.stats = defaultdict(_Stat)
        self.counts = defaultdict(float)
        self.checks_run = 0
        self.checks_passed = 0
        self._stack = []
        self._undo = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, key, fn, pre=None, post=None):
        stats = self.stats[key]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = pre(args, kwargs) if pre else None
            stack.append(0.0)
            failed = True
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                stats.calls += 1
                stats.total += dt
                stats.self += dt - child
                stats.errors += failed
            if post:
                post(args, kwargs, result, state)
            return result

        return wrapper

    def _patch(self, owner, name, key, **hooks):
        original = getattr(owner, name)
        setattr(owner, name, self._wrap(key, original, **hooks))
        self._undo.append((owner, name, original))

    def install(self, cli):
        """Wrap the layers reachable from the ``magfriction.cli`` module."""
        import magfriction._kernels as kernels

        count = self.counts
        for mod_name in LIBRARY_MODULES:
            module = sys.modules["magfriction." + mod_name]
            for name, _ in list(_public_functions(module)):
                hooks = self._library_hooks(mod_name, name)
                self._patch(module, name, "%s.%s" % (mod_name, name), **hooks)

        def arg(args, kwargs, i, name):
            return args[i] if len(args) > i else kwargs[name]

        def rk4(args, kwargs, out, _):
            n_steps = arg(args, kwargs, 3, "n_steps")
            columns = out.shape[2]
            count["kernels.rk4_batch.steps"] += n_steps * columns
            # interface arrays: alpha, dt (B), init (4, B) in; samples out
            count["kernels.bytes_computed"] += out.nbytes + 8 * 6 * columns

        def mode_sum(args, kwargs, out, _):
            n_max = max(int(arg(args, kwargs, 2, "n_max")), 0)
            count["kernels.mode_sum.terms"] += n_max
            # the mode-index array it builds and the per-mode terms
            count["kernels.bytes_computed"] += 2 * 8 * n_max

        def halfspace(args, kwargs, out, _):
            u = arg(args, kwargs, 1, "u")
            count["kernels.halfspace_chunk.samples"] += u.shape[1]
            # uniforms in, one weight per sample out
            count["kernels.bytes_computed"] += u.nbytes + 8 * u.shape[1]

        for name, post in zip(KERNELS, (rk4, mode_sum, halfspace)):
            self._patch(kernels, name, "kernels." + name, post=post)

        # CLI plumbing: runners are also held by two dispatch tables
        tables = (cli._RUNNERS, cli._TARGET_RUNNERS)
        for name in sorted({fn.__name__ for table in tables for fn in table.values()}):
            self._patch(cli, name, "cli.runner")
        for table in tables:
            for key, fn in list(table.items()):
                self._undo.append((table, key, fn))
                table[key] = getattr(cli, fn.__name__)
        self._patch(cli, "_resolve", "cli.resolve")
        self._patch(cli, "_run_sweep", "cli.sweep")

        def emit_pre(args, kwargs):
            # in-process operations write stdout into a StringIO
            return sys.stdout.tell() if isinstance(sys.stdout, io.StringIO) else None

        def emit_post(args, kwargs, result, before):
            cfg, rows = args[0], args[1]
            count["cli.rows"] += len(rows)
            if cfg.out:
                count["cli.emit.bytes"] += os.path.getsize(cfg.out)
            elif before is not None:
                count["cli.emit.bytes"] += sys.stdout.tell() - before
            if cfg.json_out:
                count["cli.emit.bytes"] += os.path.getsize(cfg.json_out)

        self._patch(cli, "_emit", "cli.emit", pre=emit_pre, post=emit_post)

        verification = sys.modules["magfriction.verification"]
        for suite, checks in verification.SUITES.items():
            for chk in checks:
                self._patch(chk, "fn", "suite." + suite, pre=self._check_start, post=self._check_done)

    def _check_start(self, args, kwargs):
        self.checks_run += 1

    def _check_done(self, args, kwargs, result, _):
        self.checks_passed += bool(result[0])

    def _library_hooks(self, mod_name, name):
        count = self.counts
        stats = self.stats
        if (mod_name, name) == ("numerics", "quad_finite"):
            def evals(a, k, result, s):
                count["numerics.quad_finite.evals"] += result.evaluations
            return {"post": evals}
        if (mod_name, name) == ("numerics", "mc_integrate"):
            def samples(a, k, result, s):
                count["numerics.mc_integrate.samples"] += result.samples
            return {"post": samples}
        if (mod_name, name) == ("matsubara", "induced_free_energy"):
            def modes(a, k, r, s):
                grid = a[1] if len(a) > 1 else k["grid"]
                count["matsubara.modes"] += grid.n_max
            return {"post": modes}
        if (mod_name, name) == ("materials_spectral", "smoothed_H0"):
            # quadrature route taken iff the call made semi-infinite quadratures
            def pre(a, k):
                return stats["numerics.quad_semi_infinite"].calls

            def post(a, k, r, before):
                if stats["numerics.quad_semi_infinite"].calls > before:
                    count["smoothed_H0.quad"] += 1
            return {"pre": pre, "post": post}
        return {}

    def uninstall(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)

    # -- reporting --------------------------------------------------------

    def _module(self, prefix, field):
        return sum(getattr(s, field) for k, s in self.stats.items() if k.startswith(prefix + "."))

    def metrics(self):
        """Per-layer values accumulated so far (import times excluded)."""
        st = self.stats
        c = self.counts
        h0 = st["materials_spectral.smoothed_H0"].calls
        out = {
            "cli.resolve.self_s": st["cli.resolve"].self,
            "cli.runner.self_s": st["cli.runner"].self,
            "cli.sweep.self_s": st["cli.sweep"].self,
            "cli.rows": c["cli.rows"],
            "cli.emit.self_s": st["cli.emit"].self,
            "cli.emit.bytes": c["cli.emit.bytes"],
            "materials_spectral.smoothed_H0.quad_share": c["smoothed_H0.quad"] / h0 if h0 else 0.0,
            "numerics.quad_finite.evals": c["numerics.quad_finite.evals"],
            "numerics.errors": self._module("numerics", "errors"),
            "matsubara.modes": c["matsubara.modes"],
            "numerics.mc_integrate.samples": c["numerics.mc_integrate.samples"],
            "verification.pass_ratio": (
                self.checks_passed / self.checks_run if self.checks_run else 0.0
            ),
        }
        for mod in ("friction_forces", "geometry_coupling", "materials_spectral"):
            out[mod + ".calls"] = self._module(mod, "calls")
            out[mod + ".self_s"] = self._module(mod, "self")
        out["friction_forces.errors"] = self._module("friction_forces", "errors")
        for mod in ("response_kinetics", "dipole_fields"):
            out[mod + ".self_s"] = self._module(mod, "self")
        for key in ("numerics.quad_finite", "numerics.quad_semi_infinite",
                    "matsubara.induced_free_energy", "oscillator_pair.integrate_eom"):
            out[key + ".calls"] = st[key].calls
        for key in ("numerics.quad_finite", "numerics.quad_semi_infinite",
                    "matsubara.induced_free_energy", "oscillator_pair.integrate_eom",
                    "numerics.mc_integrate", "kernels.mode_sum", "kernels.rk4_batch",
                    "kernels.halfspace_chunk"):
            out[key + ".self_s"] = st[key].self
        out["matsubara.induced_free_energy.errors"] = st["matsubara.induced_free_energy"].errors
        for key in ("kernels.mode_sum.terms", "kernels.rk4_batch.steps",
                    "kernels.halfspace_chunk.samples", "kernels.bytes_computed"):
            out[key] = c[key]
        for suite in SUITES:
            out["verification.%s.s" % suite] = st["suite." + suite].total
        return out


def import_times(root):
    """{'<prefix>.import_s': seconds} from -X importtime, one fresh interpreter each."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    out = {}
    for prefix, module in IMPORT_MODULES.items():
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import " + module],
            cwd=root, env=env, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError("import of %s failed: %s" % (module, proc.stderr[-500:]))
        cumulative = None
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == module:
                cumulative = int(parts[1]) * 1e-6
        if cumulative is None:
            raise RuntimeError("no importtime line for %s" % module)
        out[prefix + ".import_s"] = cumulative
    return out
