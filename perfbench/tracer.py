"""Outside-in tracer for conekit: spans recorded from the benchmark's side.

``Tracer.install`` wraps the public functions of every conekit layer module
and rebinds each wrapper wherever the original is bound, i.e. in every
``conekit`` module namespace and the package itself.  A few class methods are
wrapped on their class: the ``SplitMix64`` draw methods (the rng layer) and
``CMatrix.__matmul__`` (matrix products).  Nothing inside ``src/`` changes.

Each call of a wrapped function appends one span (name, start, end, parent)
to flat in-memory arrays.  The rng methods are too hot for one span per draw:
they are aggregated as leaves instead (call count and time, with the time
charged to the enclosing span so its self time excludes it).

Pool workers forked by ``ProcessPoolExecutor`` inherit the wrappers.  Each
worker starts with empty buffers and spills them to ``spill_dir`` when it
exits; ``collect`` folds those spills back in.  ``per_layer_metrics`` turns
all spans into the per-layer numbers, with a layer's self time being its
spans' durations minus the parts covered by child spans and leaves.
"""

from __future__ import annotations

import array
import functools
import hashlib
import inspect
import os
import pickle
import sys
import time
from multiprocessing import util as mp_util
from pathlib import Path

LAYERS = (
    "rng", "sampling", "linalg", "algebra", "morphisms",
    "towers", "generate", "serialize", "suites",
)
# Scalar helpers called once per matrix entry or per tolerance test.  A span
# each would cost more than the work it measures; their time stays with the
# caller, which is in the same layer or its direct user.
UNWRAPPED = frozenset({"floor_scale", "encode_complex", "decode_complex"})
RNG_METHODS = ("next_u64", "uniform", "randint", "chance", "choice", "sample", "subset")

EIG = "linalg.eig_hermitian"
MATMUL = "linalg.CMatrix.__matmul__"
DRAW = "rng.SplitMix64.next_u64"
CANONICAL = "serialize.canonical_json"
DIM_BUCKETS = ((1, 4), (5, 8), (9, 16), (17, 32))

_COLUMNS = ("span_name", "span_start", "span_end", "span_parent", "span_leaf", "eig_dims", "eig_keys")


def _eig_key(args, kwargs) -> int:
    """64-bit digest of an eigensolve's input bytes and tolerance."""
    h = hashlib.blake2b(args[0].data.tobytes(), digest_size=8)
    h.update(repr((args[0].dim, args[1:], sorted(kwargs.items()))).encode())
    return int.from_bytes(h.digest(), "little")


class Tracer:
    """Span recorder for one process, plus the spills of its pool workers."""

    def __init__(self, spill_dir: Path):
        self.spill_dir = Path(spill_dir)
        self.names: list[str] = []
        self.span_name = array.array("H")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.span_parent = array.array("q")
        self.span_leaf = array.array("d")  # leaf and tracer time inside the span
        self.eig_dims = array.array("H")
        self.eig_keys = array.array("Q")
        self.leaf_calls: list[int] = []
        self.leaf_time: list[float] = []
        self.bytes_out = [0]
        self.stack: list[int] = []
        self.in_leaf = [False]
        self.spills: list[dict] = []
        self._undo: list[tuple[object, str, object]] = []

    # --- wrappers ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.leaf_calls.append(0)
        self.leaf_time.append(0.0)
        return len(self.names) - 1

    def _span(self, fn, name: str):
        nid = self._name_id(name)
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, leafs, stack = self.span_parent, self.span_leaf, self.stack
        eig_dims, eig_keys, bytes_out = self.eig_dims, self.eig_keys, self.bytes_out
        clock = time.perf_counter
        is_eig, is_canonical = name == EIG, name == CANONICAL

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            leafs.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                # bookkeeping inside the span is charged to it as tracer time
                if is_eig:
                    eig_dims.append(args[0].dim)
                    eig_keys.append(_eig_key(args, kwargs))
                    leafs[idx] += clock() - t0
                result = fn(*args, **kwargs)
                if is_canonical:
                    t_hook = clock()
                    bytes_out[0] += len(result)
                    leafs[idx] += clock() - t_hook
                return result
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1

        return traced

    def _leaf(self, fn, name: str):
        nid = self._name_id(name)
        calls, spent, leafs, stack, in_leaf = (
            self.leaf_calls, self.leaf_time, self.span_leaf, self.stack, self.in_leaf
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[nid] += 1
            if in_leaf[0]:
                return fn(*args, **kwargs)
            in_leaf[0] = True
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                in_leaf[0] = False
                spent[nid] += dt
                if stack:
                    leafs[stack[-1]] += dt

        return traced

    # --- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every public layer function wherever conekit binds it."""
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if name == "conekit" or name.startswith("conekit.")
        }
        wrapped = {}
        for modname, mod in sorted(modules.items()):
            layer = modname.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            for attr, value in sorted(vars(mod).items()):
                if (
                    inspect.isfunction(value)
                    and value.__module__ == modname
                    and not attr.startswith("_")
                    and attr not in UNWRAPPED
                ):
                    make = self._leaf if layer == "rng" else self._span
                    wrapped[value] = make(value, f"{layer}.{attr}")
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._patch(mod, attr, wrapped[value])

        rng_cls = modules["conekit.rng"].SplitMix64
        for attr in RNG_METHODS:
            self._patch(rng_cls, attr, self._leaf(vars(rng_cls)[attr], f"rng.SplitMix64.{attr}"))
        cmatrix = modules["conekit.linalg"].CMatrix
        self._patch(cmatrix, "__matmul__", self._span(vars(cmatrix)["__matmul__"], MATMUL))
        mp_util.register_after_fork(self, Tracer._after_fork_in_worker)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # --- pool workers -----------------------------------------------------

    def _after_fork_in_worker(self) -> None:
        # runs in a freshly forked multiprocessing child: drop the parent's
        # spans and spill this worker's own when it exits
        if not self._undo:
            return
        for column in _COLUMNS:
            del getattr(self, column)[:]
        self.leaf_calls[:] = [0] * len(self.leaf_calls)
        self.leaf_time[:] = [0.0] * len(self.leaf_time)
        self.bytes_out[0] = 0
        self.stack.clear()
        self.in_leaf[0] = False
        self.spills = []
        mp_util.Finalize(self, self._spill, exitpriority=10)

    def _snapshot(self) -> dict:
        snap = {column: getattr(self, column) for column in _COLUMNS}
        snap.update(
            leaf_calls=list(self.leaf_calls),
            leaf_time=list(self.leaf_time),
            bytes_out=self.bytes_out[0],
        )
        return snap

    def _spill(self) -> None:
        path = self.spill_dir / f"spans-{os.getpid()}.pkl"
        with open(path, "wb") as fh:
            pickle.dump(self._snapshot(), fh)

    def collect(self) -> None:
        """Fold in the spills of pool workers that have exited."""
        for path in sorted(self.spill_dir.glob("spans-*.pkl")):
            with open(path, "rb") as fh:
                self.spills.append(pickle.load(fh))
            path.unlink()

    def write(self, path: Path) -> None:
        """Write every span of this process and its workers to one file."""
        with open(path, "wb") as fh:
            pickle.dump({"names": self.names, "processes": [self._snapshot(), *self.spills]}, fh)

    # --- analysis ---------------------------------------------------------

    def per_layer_metrics(self) -> dict[str, float]:
        """Layer counts and self times over this process and its workers."""
        import numpy as np

        names = self.names
        layer_of = [n.partition(".")[0] for n in names]
        self_by_name = np.zeros(len(names))
        dur_by_name = np.zeros(len(names))
        count_by_name = np.zeros(len(names), dtype=np.int64)
        leaf_calls = np.zeros(len(names), dtype=np.int64)
        leaf_time = np.zeros(len(names))
        eig_dims, eig_keys, eig_self = [], [], []
        bytes_out = 0
        # spans nested in a span of the same group; used to count outermost calls
        groups = {
            "algebra": {i for i, l in enumerate(layer_of) if l == "algebra"},
            "encode": {i for i, n in enumerate(names) if n.startswith("serialize.encode_")},
            "decode": {i for i, n in enumerate(names) if n.startswith("serialize.decode_")},
            "gen": {names.index("generate.instance_payload"), names.index("generate.gen_instance")},
        }
        bit = {g: 1 << k for k, g in enumerate(groups)}
        name_mask = [sum(bit[g] for g, ids in groups.items() if i in ids) for i in range(len(names))]
        outer_dur = {g: 0.0 for g in groups}
        outer_calls = {g: 0 for g in groups}
        eig_id = names.index(EIG)
        eig_under_algebra = 0

        for proc in [self._snapshot(), *self.spills]:
            n = len(proc["span_name"])
            leaf_calls += np.asarray(proc["leaf_calls"], dtype=np.int64)
            leaf_time += np.asarray(proc["leaf_time"])
            bytes_out += proc["bytes_out"]
            eig_dims.extend(proc["eig_dims"])
            eig_keys.extend(proc["eig_keys"])
            if n == 0:
                continue
            nid = np.frombuffer(proc["span_name"], dtype=np.uint16).astype(np.int64)
            start = np.frombuffer(proc["span_start"], dtype=np.float64)
            end = np.frombuffer(proc["span_end"], dtype=np.float64)
            parent = np.frombuffer(proc["span_parent"], dtype=np.int64)
            leaf = np.frombuffer(proc["span_leaf"], dtype=np.float64)
            dur = end - start
            has_parent = parent >= 0
            child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
            own = dur - child - leaf
            self_by_name += np.bincount(nid, weights=own, minlength=len(names))
            dur_by_name += np.bincount(nid, weights=dur, minlength=len(names))
            count_by_name += np.bincount(nid, minlength=len(names))
            eig_self.extend(own[nid == eig_id].tolist())

            # ancestor group masks; a parent always precedes its children
            anc = [0] * n
            nid_list, parent_list, dur_list = nid.tolist(), parent.tolist(), dur.tolist()
            algebra_bit = bit["algebra"]
            for i in range(n):
                p = parent_list[i]
                above = anc[i] = anc[p] | name_mask[nid_list[p]] if p >= 0 else 0
                new = name_mask[nid_list[i]] & ~above
                if new:
                    for g, b in bit.items():
                        if new & b:
                            outer_calls[g] += 1
                            outer_dur[g] += dur_list[i]
                elif nid_list[i] == eig_id and above & algebra_bit:
                    eig_under_algebra += 1

        def by_name(values, name):
            return float(values[names.index(name)])

        def layer_self(layer):
            return float(sum(self_by_name[i] for i, l in enumerate(layer_of) if l == layer))

        eig_calls = len(eig_dims)
        metrics = {
            "rng.draws": float(by_name(leaf_calls, DRAW)),
            "rng.self_s": float(sum(leaf_time[i] for i, l in enumerate(layer_of) if l == "rng")),
            "sampling.matrices": by_name(count_by_name, "sampling.random_matrix"),
            "sampling.self_s": layer_self("sampling"),
            "linalg.eig_calls": float(eig_calls),
            "linalg.eig_self_s": by_name(self_by_name, EIG),
            "linalg.eig_repeat_frac": (
                (eig_calls - len(set(eig_keys))) / eig_calls if eig_calls else 0.0
            ),
        }
        dims = np.asarray(eig_dims, dtype=np.int64)
        eig_self_arr = np.asarray(eig_self)
        for lo, hi in DIM_BUCKETS:
            sel = (dims >= lo) & (dims <= hi)
            metrics[f"linalg.eig_us.d{lo}-{hi}"] = (
                float(eig_self_arr[sel].mean() * 1e6) if sel.any() else 0.0
            )
        algebra_outer = outer_calls["algebra"]
        metrics.update({
            "linalg.matmul_calls": by_name(count_by_name, MATMUL),
            "linalg.matmul_self_s": by_name(self_by_name, MATMUL),
            "algebra.calls": float(sum(count_by_name[i] for i, l in enumerate(layer_of) if l == "algebra")),
            "algebra.self_s": layer_self("algebra"),
            "algebra.eig_per_call": eig_under_algebra / algebra_outer if algebra_outer else 0.0,
            "morphisms.decompose_calls": by_name(count_by_name, "morphisms.decompose_positive"),
            "morphisms.self_s": layer_self("morphisms"),
            "towers.limit_decompose_calls": by_name(count_by_name, "towers.limit_decompose_positive"),
            "towers.self_s": layer_self("towers"),
            "generate.gen_s": outer_dur["gen"],
            "generate.check_s": by_name(dur_by_name, "generate.check_instance"),
            "serialize.encode_s": outer_dur["encode"],
            "serialize.decode_s": outer_dur["decode"],
            "serialize.canonical_json_s": by_name(dur_by_name, CANONICAL),
            "serialize.bytes_out": float(bytes_out),
            "suites.self_s": layer_self("suites"),
        })
        return metrics
