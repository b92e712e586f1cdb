"""Which package functions the traced run wraps, and the per-layer metrics.

Metric names are ``<module>.<function>.<stat>``.  ``calls`` and the extra
counts repeat exactly for a deterministic workload; ``self_s`` is a span's
time minus its traced children; ``total_s`` sums outermost calls only.
"""

from __future__ import annotations

from tracer import Patcher, Tracer

def install(tracer: Tracer, patcher: Patcher):
    from blocksep import integrals, numerics, opalg, relations, report, ring, specfun, spectra

    count = tracer.counts
    wrap = tracer.wrap
    compound = (relations.Sum, relations.Prod, relations.Comm, relations.Acomm)

    def poly_out(prefix):
        def after(args, result):
            count[prefix + ".terms_out"] += len(result.terms)
        return after

    def exact_div_after(args, result):
        if result is not None:
            count["ring.exact_div.ok"] += 1

    seen_nodes: set = set()
    envs: list = []  # keeps each env alive so its id is not reused

    def eval_node_before(args, kwargs):
        node, env = args[0], args[1]
        if not isinstance(node, compound):
            return
        count["relations.eval_node.compound"] += 1
        key = (id(env), node)
        if key in seen_nodes:
            count["relations.eval_node.repeat"] += 1
        else:
            seen_nodes.add(key)
            envs.append(env)

    weights: dict = {}

    def stencil_before(args, kwargs):
        """Stencil passes and bytes computed from the terms and array shape."""
        nop, values, scheme = args[0], args[1], args[5] if len(args) > 5 else kwargs["scheme"]
        for term in nop.terms:
            shape = list(values.shape)
            for axis, m in enumerate(term.alpha):
                if not m:
                    continue
                key = (m, scheme.order)
                if key not in weights:
                    s, w = numerics.central_weights(m, scheme.order)
                    weights[key] = (s, sum(1 for v in w if v != 0.0))
                s, nonzero = weights[key]
                shape[axis] -= 2 * s
                size = 1
                for n in shape:
                    size *= n
                # nonzero shifted reads plus one write, each of the output size
                count["numerics.stencil.applications"] += 1
                count["numerics.stencil.bytes_computed"] += (nonzero + 1) * size * values.itemsize

    def lapack_before(args, kwargs):
        if tracer.inside("numerics.eigensolve"):
            count["numerics.eigensolve.lapack_calls"] += 1

    def wrap_lapack(args, kwargs):
        """Wrap the LAPACK entry points when the first solve starts.  The
        solvers import scipy.linalg then, so the traced pass pays that import
        where the untraced pass does, not while the tracer is installed."""
        if lapack_wrapped:
            return
        lapack_wrapped.append(True)
        import numpy.linalg
        import scipy.linalg

        patcher.wrap_function(scipy.linalg, "eigvalsh_tridiagonal",
                              wrap("numerics.lapack_eigvals", before=lapack_before))
        patcher.wrap_function(numpy.linalg, "eigvalsh",
                              wrap("numerics.lapack_eigvals", before=lapack_before))

    lapack_wrapped: list = []

    def assemble_traced(fn):
        psi_span = wrap("specfun.psi_eval")

        def assemble(*args, **kwargs):
            return psi_span(fn(*args, **kwargs))

        return assemble

    patcher.wrap_method(ring.Poly, "exact_div", wrap("ring.exact_div", after=exact_div_after))
    patcher.wrap_method(ring.Poly, "mul", wrap("ring.poly_mul", after=poly_out("ring.poly_mul")))
    patcher.wrap_method(ring.Context, "reduce_radicals", wrap("ring.reduce_radicals"))
    patcher.wrap_method(ring.Coefficient, "make", wrap("ring.coeff_make"))
    patcher.wrap_method(ring.Coefficient, "add", wrap("ring.coeff_add"))
    patcher.wrap_method(ring.Coefficient, "deriv", wrap("ring.coeff_deriv"))
    patcher.wrap_method(opalg.DiffOp, "mul",
                        wrap("opalg.diffop_mul", after=poly_out("opalg.diffop_mul")))
    patcher.wrap_function(relations, "eval_node",
                          wrap("relations.eval_node", before=eval_node_before))
    patcher.wrap_function(relations, "verify_relation", wrap("relations.verify_relation"))
    patcher.wrap_function(relations, "decompose_residual", wrap("relations.decompose_residual"))
    patcher.wrap_function(integrals, "build_integral", wrap("integrals.build"))
    patcher.wrap_function(numerics, "compile_operator", wrap("numerics.compile_operator"))
    patcher.wrap_function(numerics, "apply_on_grid",
                          wrap("numerics.apply_on_grid", before=stencil_before))
    patcher.wrap_function(numerics, "eval_tree_on_grid", wrap("numerics.probe_eval"))
    patcher.wrap_function(numerics, "apply_numeric", wrap("numerics.apply_numeric"))
    for solver in ("eigensolve_1d", "eigensolve_weighted_polar", "eigensolve_periodic"):
        patcher.wrap_function(numerics, solver, wrap("numerics.eigensolve", before=wrap_lapack))
    patcher.wrap_function(spectra, "lambda_chain", wrap("spectra.lambda_chain"))
    patcher.wrap_function(spectra, "oscillator_spectrum_row", wrap("spectra.row"))
    patcher.wrap_function(spectra, "coulomb_spectrum_row", wrap("spectra.row"))
    patcher.wrap_function(specfun, "assemble_eigenfunction", assemble_traced)
    patcher.wrap_function(report, "serialize", wrap("report.serialize"))


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def metrics(tracer: Tracer) -> dict:
    """Per-layer metrics as {name: (value, unit)}; the run adds trace.overhead_s."""
    calls, self_s, total_s, count = tracer.calls, tracer.self_s, tracer.total_s, tracer.counts
    out = {
        "ring.exact_div.calls": (calls["ring.exact_div"], "count"),
        "ring.exact_div.self_s": (self_s["ring.exact_div"], "s"),
        "ring.exact_div.ok_ratio": (_ratio(count["ring.exact_div.ok"], calls["ring.exact_div"]), "ratio"),
        "ring.poly_mul.calls": (calls["ring.poly_mul"], "count"),
        "ring.poly_mul.terms_out": (count["ring.poly_mul.terms_out"], "count"),
        "ring.reduce_radicals.self_s": (self_s["ring.reduce_radicals"], "s"),
        "ring.coeff_make.calls": (calls["ring.coeff_make"], "count"),
        "ring.coeff_make.self_s": (self_s["ring.coeff_make"], "s"),
        "ring.coeff_add.calls": (calls["ring.coeff_add"], "count"),
        "ring.coeff_deriv.calls": (calls["ring.coeff_deriv"], "count"),
        "opalg.diffop_mul.calls": (calls["opalg.diffop_mul"], "count"),
        "opalg.diffop_mul.self_s": (self_s["opalg.diffop_mul"], "s"),
        "opalg.diffop_mul.terms_out": (count["opalg.diffop_mul.terms_out"], "count"),
        "relations.eval_node.calls": (calls["relations.eval_node"], "count"),
        "relations.eval_node.self_s": (self_s["relations.eval_node"], "s"),
        "relations.eval_node.repeat_ratio": (
            _ratio(count["relations.eval_node.repeat"], count["relations.eval_node.compound"]), "ratio"),
        "relations.verify_relation.total_s": (total_s["relations.verify_relation"], "s"),
        "relations.decompose_residual.calls": (calls["relations.decompose_residual"], "count"),
        "relations.decompose_residual.total_s": (total_s["relations.decompose_residual"], "s"),
        "integrals.build.calls": (calls["integrals.build"], "count"),
        "integrals.build.total_s": (total_s["integrals.build"], "s"),
        "numerics.compile_operator.calls": (calls["numerics.compile_operator"], "count"),
        "numerics.compile_operator.total_s": (total_s["numerics.compile_operator"], "s"),
        "numerics.apply_on_grid.calls": (calls["numerics.apply_on_grid"], "count"),
        "numerics.apply_on_grid.self_s": (self_s["numerics.apply_on_grid"], "s"),
        "numerics.stencil.applications": (count["numerics.stencil.applications"], "count"),
        "numerics.stencil.bytes_computed": (count["numerics.stencil.bytes_computed"], "bytes"),
        "numerics.probe_eval.total_s": (total_s["numerics.probe_eval"], "s"),
        "numerics.apply_numeric.calls": (calls["numerics.apply_numeric"], "count"),
        "numerics.eigensolve.calls": (calls["numerics.eigensolve"], "count"),
        "numerics.eigensolve.total_s": (total_s["numerics.eigensolve"], "s"),
        "numerics.eigensolve.iterations": (
            _ratio(count["numerics.eigensolve.lapack_calls"], calls["numerics.eigensolve"]),
            "calls/solve"),
        "spectra.lambda_chain.calls": (calls["spectra.lambda_chain"], "count"),
        "spectra.row.self_s": (self_s["spectra.row"], "s"),
        "specfun.psi_eval.calls": (calls["specfun.psi_eval"], "count"),
        "specfun.psi_eval.total_s": (total_s["specfun.psi_eval"], "s"),
        "report.serialize.total_s": (total_s["report.serialize"], "s"),
    }
    return {name: (float(value), unit) for name, (value, unit) in out.items()}


def repeatable_counts(tracer: Tracer) -> dict:
    """Call and work counts that must repeat exactly on a deterministic workload."""
    out = {f"{name}.calls": n for name, n in tracer.calls.items()}
    out.update(tracer.counts)
    return dict(sorted(out.items()))
