"""Span tracer for qdiag, installed from outside the package.

Run as a script, it imports qdiag, wraps the public functions of each module
(see ``WRAPPED``), runs the real CLI in this process and writes one JSON
artifact with every span and per-function counts:

    PYTHONPATH=src python3 perfbench/tracer.py OUT.json run all --no-cache

Every wrapped call is timed.  Calls into the two leaf layers, ``scalars`` and
``permutations``, run hundreds of thousands of times per workload, so they are
only aggregated (calls, total and self time per function); every other
wrapped call is also kept as a span ``[name, start, end, parent, self, attrs]``
where ``parent`` is the index of the nearest enclosing kept span (-1 at the
top) and ``self`` is the span's duration minus the time of the wrapped calls
directly inside it.

``layer_metrics`` turns an artifact into the per-layer metrics of the
benchmark.  Importing this module patches nothing; only ``install`` does.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

LEAF_LAYERS = ("scalars", "permutations")

RREF = "linalg.SubspaceBasis.from_vectors"
BLOCK = "qma.BlockQuotient.__init__"

# layer -> (module, public names); "Class.attr" names a method.
WRAPPED = {
    "scalars": ("qdiag.scalars", [
        "QScalar.__add__", "QScalar.__sub__", "QScalar.__neg__",
        "QScalar.__mul__", "QScalar.__truediv__", "QScalar.inv",
        "QScalar.__pow__"]),
    "permutations": ("qdiag.permutations", [
        "identity", "s", "compose", "inverse", "length", "apply_gen",
        "reduced_word", "perm_of_word", "sign", "standardize", "all_perms",
        "multi_indices", "weight", "weight_blocks", "perm_str"]),
    "linalg": ("qdiag.linalg", [
        "SubspaceBasis.from_vectors", "SubspaceBasis.reduce", "kernel",
        "QMatrix.__mul__", "QMatrix.apply"]),
    "hecke": ("qdiag.hecke", [
        "HeckeElt.__mul__", "HeckeElt.__add__", "HeckeElt.scale",
        "HeckeElt.bar_involution", "t", "t_word", "project_p",
        "idempotents_r2", "idempotents_r3", "r3_normalizers", "theta",
        "projection_matrix", "diag_kernel_of_p", "formal_product"]),
    "rmatrix": ("qdiag.rmatrix", [
        "rhat", "rhat_reading", "generator_matrix", "pi", "idempotent_block",
        "appendix_blocks", "multiset_classes"]),
    "qma": ("qdiag.qma", [
        "BlockQuotient.__init__", "BlockQuotient.residual",
        "BlockQuotient.contains", "BlockQuotient.normal_form",
        "block_quotient", "expand_diagonal", "diag_relation_kernel",
        "membership", "proportionality"]),
    "pplactic": ("qdiag.pplactic", [
        "ppk_generators", "ideal_component", "hecke_side_kernel",
        "preplactic_ideal_component", "lemma_brute_check",
        "verify_conjecture"]),
    "checks": ("qdiag.checks", ["run_check"]),
    "cli": ("qdiag.cli", ["main"]),
}


def _rref_before(args, kwargs):
    # Materialize the input rows before the span starts, so that building
    # them (a generator in kernel() and BlockQuotient) is charged to the
    # caller and not to the elimination.
    vectors = list(args[0])
    return (vectors,) + args[1:], kwargs, {"rows_in": len(vectors)}


def _rref_after(attrs, args, result):
    attrs["rank"] = len(result.rows)
    attrs["nnz_out"] = sum(len(row) for row in result.rows)


def _block_after(attrs, args, result):
    attrs["words"] = len(args[0].words)


HOOKS = {
    RREF: (_rref_before, _rref_after),
    BLOCK: (None, _block_after),
    "checks.run_check": (None, lambda attrs, args, result:
                         attrs.update(check=result.check)),
}


class Tracer:
    """Collects spans and per-function aggregates for the wrapped calls."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.names: list = []
        self.calls: list = []
        self.total: list = []
        self.self_s: list = []
        self.spans: list = []
        # Each frame is [time of wrapped calls directly inside it]; the
        # bottom frame stands for code outside any wrapped call.
        self._stack: list = [[0.0]]
        self._open = [-1]

    def _register(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.total.append(0.0)
        self.self_s.append(0.0)
        return len(self.names) - 1

    def wrap(self, name: str, fn, keep_span: bool = True):
        """Return fn timed under ``name``; kept as spans unless keep_span is False."""
        nid = self._register(name)
        stack, clock = self._stack, time.perf_counter
        calls, total, self_s = self.calls, self.total, self.self_s

        if not keep_span:
            @functools.wraps(fn)
            def leaf(*args, **kwargs):
                frame = [0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - t0
                    stack.pop()
                    stack[-1][0] += dur
                    calls[nid] += 1
                    total[nid] += dur
                    self_s[nid] += dur - frame[0]
            return leaf

        before, after = HOOKS.get(name, (None, None))
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            attrs = {}
            if before is not None:
                args, kwargs, attrs = before(args, kwargs)
            record = [nid, 0.0, 0.0, open_[0], 0.0, attrs]
            parent = open_[0]
            open_[0] = len(spans)
            spans.append(record)
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                open_[0] = parent
                dur = t1 - t0
                stack[-1][0] += dur
                calls[nid] += 1
                total[nid] += dur
                self_s[nid] += dur - frame[0]
                record[1], record[2], record[4] = t0, t1, dur - frame[0]
            if after is not None:
                after(attrs, args, result)
            return result
        return spanned

    def artifact(self) -> dict:
        return {
            "aggregates": {name: {"calls": self.calls[i],
                                  "total_s": self.total[i],
                                  "self_s": self.self_s[i]}
                           for i, name in enumerate(self.names)},
            "spans": [[self.names[nid], t0 - self.origin, t1 - self.origin,
                       parent, own, attrs]
                      for nid, t0, t1, parent, own, attrs in self.spans],
        }


def install(tracer: Tracer) -> None:
    """Wrap every function in WRAPPED, wherever qdiag looks it up."""
    import qdiag.cli  # noqa: F401  (loads every qdiag module)
    modules = [m for name, m in sys.modules.items()
               if name == "qdiag" or name.startswith("qdiag.")]
    for layer, (module_name, names) in WRAPPED.items():
        module = importlib.import_module(module_name)
        keep = layer not in LEAF_LAYERS
        for qualname in names:
            full = f"{layer}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    setattr(cls, attr,
                            staticmethod(tracer.wrap(full, raw.__func__, keep)))
                else:
                    setattr(cls, attr, tracer.wrap(full, raw, keep))
                continue
            fn = getattr(module, qualname)
            wrapped = tracer.wrap(full, fn, keep)
            # `from .x import f` binds f in the importer: patch every binding.
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapped)


# -- per-layer metrics --------------------------------------------------------

LAYER_UNITS = {
    "scalars.mul_calls": "count", "scalars.add_calls": "count",
    "scalars.neg_calls": "count", "scalars.inv_calls": "count",
    "scalars.self_s": "s", "scalars.mul_us": "us", "scalars.add_us": "us",
    "linalg.rref_calls": "count", "linalg.rref_rows_in": "count",
    "linalg.rref_rank": "count", "linalg.rref_useful_ratio": "ratio",
    "linalg.rref_nnz_out": "count", "linalg.rref_self_s": "s",
    "linalg.kernel_calls": "count", "linalg.kernel_self_s": "s",
    "linalg.matmul_calls": "count", "linalg.matmul_self_s": "s",
    "hecke.mul_calls": "count", "hecke.self_s": "s",
    "hecke.projection_matrix_s": "s",
    "permutations.calls": "count", "permutations.self_s": "s",
    "rmatrix.pi_calls": "count", "rmatrix.self_s": "s",
    "qma.blocks_built": "count", "qma.block_words": "count",
    "qma.max_block_words": "count", "qma.relation_rows": "count",
    "qma.self_s": "s",
    "pplactic.ideal_rows": "count", "pplactic.closure_rounds": "count",
    "pplactic.self_s": "s",
}


def layer_metrics(artifact: dict) -> dict:
    """Per-layer metrics (name -> value) of one traced run."""
    agg = artifact["aggregates"]
    spans = artifact["spans"]

    def calls(name):
        return agg[name]["calls"]

    def per_call_us(name):
        n = calls(name)
        return agg[name]["total_s"] / n * 1e6 if n else 0.0

    def layer_self(layer):
        return sum(a["self_s"] for name, a in agg.items()
                   if name.startswith(layer + "."))

    rref = [s for s in spans if s[0] == RREF]
    rows_in = sum(s[5]["rows_in"] for s in rref)
    rank = sum(s[5]["rank"] for s in rref)
    blocks = [s for s in spans if s[0] == BLOCK]

    def rref_under(parent):
        return [s for s in rref if s[3] >= 0 and spans[s[3]][0] == parent]

    out = {
        "scalars.mul_calls": calls("scalars.QScalar.__mul__"),
        "scalars.add_calls": calls("scalars.QScalar.__add__"),
        "scalars.neg_calls": calls("scalars.QScalar.__neg__"),
        "scalars.inv_calls": calls("scalars.QScalar.inv"),
        "scalars.self_s": layer_self("scalars"),
        "scalars.mul_us": per_call_us("scalars.QScalar.__mul__"),
        "scalars.add_us": per_call_us("scalars.QScalar.__add__"),
        "linalg.rref_calls": len(rref),
        "linalg.rref_rows_in": rows_in,
        "linalg.rref_rank": rank,
        "linalg.rref_useful_ratio": rank / rows_in if rows_in else 0.0,
        "linalg.rref_nnz_out": sum(s[5]["nnz_out"] for s in rref),
        "linalg.rref_self_s": agg[RREF]["self_s"],
        "linalg.kernel_calls": calls("linalg.kernel"),
        "linalg.kernel_self_s": agg["linalg.kernel"]["self_s"],
        "linalg.matmul_calls": calls("linalg.QMatrix.__mul__"),
        "linalg.matmul_self_s": agg["linalg.QMatrix.__mul__"]["self_s"],
        "hecke.mul_calls": calls("hecke.HeckeElt.__mul__"),
        "hecke.self_s": layer_self("hecke"),
        "hecke.projection_matrix_s": agg["hecke.projection_matrix"]["total_s"],
        "permutations.calls": sum(a["calls"] for name, a in agg.items()
                                  if name.startswith("permutations.")),
        "permutations.self_s": layer_self("permutations"),
        "rmatrix.pi_calls": calls("rmatrix.pi"),
        "rmatrix.self_s": layer_self("rmatrix"),
        "qma.blocks_built": len(blocks),
        "qma.block_words": sum(s[5]["words"] for s in blocks),
        "qma.max_block_words": max((s[5]["words"] for s in blocks), default=0),
        "qma.relation_rows": sum(s[5]["rows_in"] for s in rref_under(BLOCK)),
        "qma.self_s": layer_self("qma"),
        "pplactic.ideal_rows": sum(
            s[5]["rows_in"] for s in rref_under("pplactic.ideal_component")),
        "pplactic.closure_rounds": len(
            rref_under("pplactic.preplactic_ideal_component")),
        "pplactic.self_s": layer_self("pplactic"),
    }
    return out


def main(argv) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from qdiag import cli
    try:
        status = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump(tracer.artifact(), fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
