"""The per-function abstract interpreter behind ``repro.lint``.

One :class:`FunctionAnalyzer` walks one function body over the
:class:`~repro.lint.state.AbsState` lattice: branches fork and join
(must = intersection, may = union), loop bodies run twice (so a
second-iteration misuse like re-locking is seen) with diagnostics
deduplicated by (line, code), and ``with pytest.raises(...)`` bodies
are skipped entirely — they exist to misuse the API.

Value tracking (see :mod:`repro.lint.model`) plus escape analysis keep
the checks silent about anything the function cannot fully see: a
resource passed to an unknown call, returned, stored into an attribute
or container, or captured by a nested function is exempt from the
leak/double-release/discipline rules from that point on.
"""

from __future__ import annotations

import ast

from ..sanitizer.violations import ViolationKind
from .diagnostics import Diagnostic
from .model import (
    ARMCI_COMM_METHODS,
    ARMCI_INIT_CLASSES,
    ARMCI_WRAPPER_CLASSES,
    WIN_OP_METHODS,
    WIN_REQ_METHODS,
    base_name,
    dotted_name,
    expr_text,
    is_pytest_raises,
)
from .state import AbsState, join_all

__all__ = ["ModuleAnalyzer", "analyze_module"]

#: resource kinds the leak rule covers, with display names
_LEAKABLE = {
    "epoch": "lock epoch",
    "lockall": "lock_all epoch",
    "fence": "fence epoch",
    "dla": "direct-local-access epoch",
    "mlock": "mutex hold",
    "alloc": "ARMCI allocation",
    "mutexset": "mutex set",
    "nb": "nonblocking-op handle",
}


def _in_own_epoch(call: ast.Call) -> bool:
    """Whether a put/get/accumulate names a ``lock=`` mode: it runs in an
    epoch of its own, as ``lock``; the op; ``unlock`` would."""
    return any(
        kw.arg == "lock"
        and not (isinstance(kw.value, ast.Constant) and kw.value.value is None)
        for kw in call.keywords
    )


class _Block:
    """Result of executing a statement block."""

    __slots__ = ("fall", "breaks", "conts")

    def __init__(self, fall, breaks=None, conts=None):
        self.fall = fall
        self.breaks = breaks if breaks is not None else []
        self.conts = conts if conts is not None else []


class FunctionAnalyzer:
    def __init__(self, path: str, emit):
        self.path = path
        self._emit = emit
        #: resource key / object id -> acquisition (line, col, description)
        self.info: dict = {}
        #: resource key -> owning object id (armci/win/mutexset chains)
        self.owner: dict = {}
        self._mute = 0
        #: enclosing finally bodies, outermost first: a return statement
        #: runs them all before the function is actually left
        self._finally_stack: list = []

    # -- reporting ---------------------------------------------------------------
    def emit(self, node, kind: ViolationKind, message: str) -> None:
        if self._mute:
            return
        self._emit(Diagnostic(self.path, node.lineno, node.col_offset + 1, kind, message))

    def emit_at(self, line: int, col: int, kind: ViolationKind, message: str) -> None:
        if self._mute:
            return
        self._emit(Diagnostic(self.path, line, col + 1, kind, message))

    # -- entry -------------------------------------------------------------------
    def analyze(self, fn) -> None:
        st = AbsState()
        res = self.exec_block(fn.body, st)
        if res.fall is not None:
            self.check_leaks(res.fall, getattr(fn, "end_lineno", fn.lineno))

    # -- ownership / exemption ----------------------------------------------------
    def owner_root(self, key: tuple):
        if key[0] in ("epoch", "lockall", "fence", "dla", "mlock"):
            return key[1]
        return self.owner.get(key)

    def exempt(self, key: tuple, st: AbsState) -> bool:
        seen = set()
        k = key
        while k is not None and k not in seen:
            if k in st.escaped:
                return True
            seen.add(k)
            k = self.owner_root(k) if isinstance(k, tuple) else None
        return False

    def escape_binding(self, b, st: AbsState) -> None:
        if not b:
            return
        kind = b[0]
        if kind in ("armci", "win", "alloc", "mutexset", "req", "nb", "allocitem"):
            st.escaped.add(b[1])

    # -- leak rule ---------------------------------------------------------------
    def check_leaks(self, st: AbsState, exit_line: int) -> None:
        for key in sorted(st.must, key=repr):
            name = _LEAKABLE.get(key[0])
            if name is None or self.exempt(key, st):
                continue
            line, col, desc = self.info.get(key, (exit_line, 0, name))
            if key[0] == "nb":
                # a handle nobody can ever wait: its queued op may never
                # reach a completion point (mpi3 datapath)
                self.emit_at(
                    line, col, ViolationKind.NB_PENDING,
                    f"{desc} is still pending on the path leaving the "
                    f"function at line {exit_line}: complete it with "
                    "wait()/test(), or drain with fence/barrier",
                )
                continue
            self.emit_at(
                line, col, ViolationKind.LINT_LEAK,
                f"{desc} is still held on the path leaving the function at "
                f"line {exit_line}; release it on every path out",
            )

    # -- statement execution -------------------------------------------------------
    def exec_block(self, stmts, st: "AbsState | None") -> _Block:
        breaks: list = []
        conts: list = []
        for s in stmts:
            if st is None:
                break  # unreachable code: stay silent
            st = self.exec_stmt(s, st, breaks, conts)
        return _Block(st, breaks, conts)

    def exec_stmt(self, s, st: AbsState, breaks, conts) -> "AbsState | None":
        if isinstance(s, ast.Expr):
            b = self.eval_expr(s.value, st)
            if b:
                if b[0] == "newreq":
                    self.emit(
                        s, ViolationKind.REQUEST,
                        "rput/rget request discarded: assign it and complete "
                        "it with wait()/test() before the epoch closes",
                    )
                elif b[0] == "newnb":
                    self.emit(
                        s, ViolationKind.NB_PENDING,
                        "nonblocking-op handle discarded: assign it and "
                        "complete it with wait()/test(), or drain the queue "
                        "with fence/barrier",
                    )
                elif b[0] == "newalloc":
                    self.emit(
                        s, ViolationKind.LINT_LEAK,
                        "ARMCI allocation discarded: bind the pointer vector "
                        "so it can be freed",
                    )
                elif b[0] == "newmutexset":
                    self.emit(
                        s, ViolationKind.LINT_LEAK,
                        "mutex set discarded: bind it so it can be destroyed",
                    )
            return st
        if isinstance(s, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            return self.exec_assign(s, st)
        if isinstance(s, ast.If):
            self.eval_expr(s.test, st)
            rb = self.exec_block(s.body, st.clone())
            ro = self.exec_block(s.orelse, st.clone())
            breaks.extend(rb.breaks + ro.breaks)
            conts.extend(rb.conts + ro.conts)
            return join_all([rb.fall, ro.fall])
        if isinstance(s, (ast.While, ast.For, ast.AsyncFor)):
            return self.exec_loop(s, st, breaks, conts)
        if isinstance(s, (ast.With, ast.AsyncWith)):
            return self.exec_with(s, st, breaks, conts)
        if isinstance(s, ast.Try):
            return self.exec_try(s, st, breaks, conts)
        if isinstance(s, ast.Return):
            if s.value is not None:
                self.escape_binding(self.eval_expr(s.value, st), st)
            out = self._through_finallies(st.clone())
            if out is not None:
                self.check_leaks(out, s.lineno)
            return None
        if isinstance(s, ast.Raise):
            # exceptional exit: cleanup obligations are the caller's
            # problem (and usually unreachable in deliberate-failure code)
            if s.exc is not None:
                self.eval_expr(s.exc, st)
            return None
        if isinstance(s, ast.Break):
            breaks.append(st)
            return None
        if isinstance(s, ast.Continue):
            conts.append(st)
            return None
        if isinstance(s, ast.Assert):
            self.eval_expr(s.test, st)
            if s.msg is not None:
                self.eval_expr(s.msg, st)
            return st
        if isinstance(s, ast.Delete):
            for t in s.targets:
                if isinstance(t, ast.Name):
                    st.bindings.pop(t.id, None)
            return st
        if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            # a nested scope may capture and use anything it names;
            # its own body is analyzed separately by the module walker
            for n in ast.walk(s):
                if isinstance(n, ast.Name) and n.id in st.bindings:
                    self.escape_binding(st.bindings[n.id], st)
            return st
        if isinstance(s, (ast.Global, ast.Nonlocal)):
            for name in s.names:
                if name in st.bindings:
                    self.escape_binding(st.bindings.pop(name), st)
            return st
        if isinstance(s, (ast.Import, ast.ImportFrom, ast.Pass)):
            return st
        # anything else: evaluate contained expressions for visibility
        for child in ast.iter_child_nodes(s):
            if isinstance(child, ast.expr):
                self.eval_expr(child, st)
        return st

    # -- compound statements -------------------------------------------------------
    def exec_assign(self, s, st: AbsState) -> AbsState:
        if isinstance(s, ast.AugAssign):
            self.eval_expr(s.value, st)
            return st
        value = s.value
        if value is None:  # bare annotation
            return st
        b = self.eval_expr(value, st)
        targets = s.targets if isinstance(s, ast.Assign) else [s.target]
        for t in targets:
            self.bind_target(t, b, st)
        return st

    def bind_target(self, t, b, st: AbsState) -> None:
        if isinstance(t, ast.Name):
            if b is None:
                st.bindings.pop(t.id, None)
            elif b[0] == "newalloc":
                key = ("alloc", t.id, b[2], b[3])
                self.owner[key] = b[1]
                self.info[key] = (b[2], b[3], f"ARMCI allocation '{t.id}'")
                st.acquire(key)
                st.bindings[t.id] = ("alloc", key)
            elif b[0] == "newmutexset":
                key = ("mutexset", t.id, b[2], b[3])
                self.owner[key] = b[1]
                self.info[key] = (b[2], b[3], f"mutex set '{t.id}'")
                st.acquire(key)
                st.bindings[t.id] = ("mutexset", key)
            elif b[0] == "newreq":
                key = ("req", t.id, b[2], b[3])
                self.owner[key] = b[1]
                self.info[key] = (b[2], b[3], f"request '{t.id}'")
                st.acquire(key)
                st.bindings[t.id] = ("req", key)
            elif b[0] == "newnb":
                key = ("nb", t.id, b[2], b[3])
                self.owner[key] = b[1]
                self.info[key] = (b[2], b[3], f"nonblocking-op handle '{t.id}'")
                st.acquire(key)
                st.bindings[t.id] = ("nb", key)
            elif b[0] == "win_tuple":
                st.bindings.pop(t.id, None)
            else:
                st.bindings[t.id] = b
        elif isinstance(t, (ast.Tuple, ast.List)):
            elts = t.elts
            if b is not None and b[0] == "win_tuple" and elts and isinstance(elts[0], ast.Name):
                st.bindings[elts[0].id] = ("win", b[1])
                rest = elts[1:]
            else:
                if b is not None and b[0] != "win_tuple":
                    self.escape_binding(b, st)
                rest = elts
            for e in rest:
                if isinstance(e, ast.Name):
                    st.bindings.pop(e.id, None)
                elif isinstance(e, ast.Starred) and isinstance(e.value, ast.Name):
                    st.bindings.pop(e.value.id, None)
        else:
            # attribute / subscript store: the value leaves our sight
            self.escape_binding(b, st)
            self.eval_expr(t, st)

    def exec_loop(self, s, st: AbsState, breaks, conts) -> "AbsState | None":
        if isinstance(s, (ast.For, ast.AsyncFor)):
            self.eval_expr(s.iter, st)
            self.bind_target(s.target, None, st)
        else:
            self.eval_expr(s.test, st)
        r1 = self.exec_block(s.body, st.clone())
        s1 = join_all([r1.fall] + r1.conts)
        r2 = None
        s2 = None
        if s1 is not None:
            # second pass entered from the state one iteration leaves
            # behind: catches misuse that only appears on iteration two
            # (re-lock, re-free, ...)
            r2 = self.exec_block(s.body, s1.clone())
            s2 = join_all([r2.fall] + r2.conts)
        exits = [st] + r1.breaks + (r2.breaks if r2 is not None else [])
        if s2 is not None:
            exits.append(s2)
        out = join_all(exits)
        if s.orelse and out is not None:
            ro = self.exec_block(s.orelse, out)
            breaks.extend(ro.breaks)
            conts.extend(ro.conts)
            out = ro.fall
        return out

    def exec_with(self, s, st: AbsState, breaks, conts) -> "AbsState | None":
        for item in s.items:
            if is_pytest_raises(item.context_expr):
                # the body is *supposed* to violate: analyze nothing,
                # keep the pre-state (the exception unwinds the block)
                self._mute += 1
                try:
                    self.exec_block(s.body, st.clone())
                finally:
                    self._mute -= 1
                return st
        for item in s.items:
            self.eval_expr(item.context_expr, st)
            if item.optional_vars is not None:
                self.bind_target(item.optional_vars, None, st)
        r = self.exec_block(s.body, st)
        breaks.extend(r.breaks)
        conts.extend(r.conts)
        return r.fall

    def _through_finallies(self, st: "AbsState | None") -> "AbsState | None":
        """Run every pending finally block, innermost first (return path)."""
        stack = self._finally_stack
        saved = list(stack)
        try:
            while stack and st is not None:
                fb = stack.pop()
                st = self.exec_block(fb, st).fall
        finally:
            stack[:] = saved
        return st

    def exec_try(self, s, st: AbsState, breaks, conts) -> "AbsState | None":
        if s.finalbody:
            self._finally_stack.append(s.finalbody)
        try:
            rb = self.exec_block(s.body, st.clone())
            base = rb.fall if rb.fall is not None else st
            # a handler can be entered from any point inside the body:
            # weaken to the join of entry and exit states
            h_in = st.join(base)
            outs: list = []
            pend_breaks = list(rb.breaks)
            pend_conts = list(rb.conts)
            for h in s.handlers:
                rh = self.exec_block(h.body, h_in.clone())
                pend_breaks.extend(rh.breaks)
                pend_conts.extend(rh.conts)
                if rh.fall is not None:
                    outs.append(rh.fall)
            body_out = rb.fall
            if s.orelse and body_out is not None:
                ro = self.exec_block(s.orelse, body_out)
                pend_breaks.extend(ro.breaks)
                pend_conts.extend(ro.conts)
                body_out = ro.fall
            out = join_all(outs + [body_out])
        finally:
            if s.finalbody:
                self._finally_stack.pop()
        if s.finalbody:
            # break/continue leave through the finally as well
            pend_breaks = [
                b for b in (self.exec_block(s.finalbody, x.clone()).fall
                            for x in pend_breaks) if b is not None
            ]
            pend_conts = [
                c for c in (self.exec_block(s.finalbody, x.clone()).fall
                            for x in pend_conts) if c is not None
            ]
            rf = self.exec_block(s.finalbody, out if out is not None else h_in.clone())
            breaks.extend(rf.breaks)
            conts.extend(rf.conts)
            out = rf.fall
        breaks.extend(pend_breaks)
        conts.extend(pend_conts)
        return out

    # -- expression evaluation -------------------------------------------------------
    def eval_expr(self, e, st: AbsState):
        """Evaluate an expression; returns the tracked binding of its value."""
        if e is None or isinstance(e, ast.Constant):
            return None
        if isinstance(e, ast.Name):
            return st.bindings.get(e.id)
        if isinstance(e, ast.Call):
            return self.handle_call(e, st)
        if isinstance(e, ast.Attribute):
            self.eval_expr(e.value, st)
            return None
        if isinstance(e, ast.Subscript):
            b = self.eval_expr(e.value, st)
            self.eval_expr(e.slice, st)
            if b is not None:
                if b[0] == "alloc":
                    return ("allocitem", b[1])
                if b[0] in ("allocitem", "wb"):
                    return b
            return None
        if isinstance(e, (ast.Tuple, ast.List, ast.Set)):
            for x in e.elts:
                self.escape_binding(self.eval_expr(x, st), st)
            return None
        if isinstance(e, ast.Dict):
            for x in list(e.keys) + list(e.values):
                if x is not None:
                    self.escape_binding(self.eval_expr(x, st), st)
            return None
        if isinstance(e, ast.IfExp):
            self.eval_expr(e.test, st)
            b1 = self.eval_expr(e.body, st)
            b2 = self.eval_expr(e.orelse, st)
            if b1 is not None and b2 is not None and b1 != b2:
                self.escape_binding(b1, st)
                self.escape_binding(b2, st)
                return None
            return b1 if b1 is not None else b2
        if isinstance(e, ast.BoolOp):
            for x in e.values:
                self.eval_expr(x, st)
            return None
        if isinstance(e, ast.BinOp):
            self.eval_expr(e.left, st)
            self.eval_expr(e.right, st)
            return None
        if isinstance(e, ast.UnaryOp):
            self.eval_expr(e.operand, st)
            return None
        if isinstance(e, ast.Compare):
            self.eval_expr(e.left, st)
            for x in e.comparators:
                self.eval_expr(x, st)
            return None
        if isinstance(e, ast.Starred):
            return self.eval_expr(e.value, st)
        if isinstance(e, ast.NamedExpr):
            b = self.eval_expr(e.value, st)
            self.bind_target(e.target, b, st)
            return st.bindings.get(e.target.id) if isinstance(e.target, ast.Name) else b
        if isinstance(e, ast.Slice):
            for x in (e.lower, e.upper, e.step):
                self.eval_expr(x, st)
            return None
        if isinstance(e, ast.JoinedStr):
            for x in e.values:
                self.eval_expr(x, st)
            return None
        if isinstance(e, ast.FormattedValue):
            self.eval_expr(e.value, st)
            return None
        if isinstance(e, (ast.Lambda, ast.ListComp, ast.SetComp, ast.DictComp,
                          ast.GeneratorExp)):
            for n in ast.walk(e):
                if isinstance(n, ast.Name) and n.id in st.bindings:
                    self.escape_binding(st.bindings[n.id], st)
            return None
        if isinstance(e, (ast.Await, ast.Yield, ast.YieldFrom)):
            inner = getattr(e, "value", None)
            if inner is not None:
                self.escape_binding(self.eval_expr(inner, st), st)
            return None
        for child in ast.iter_child_nodes(e):
            if isinstance(child, ast.expr):
                self.eval_expr(child, st)
        return None

    # -- call classification --------------------------------------------------------
    def scan_args(self, call, st: AbsState, escape: bool) -> list:
        """Evaluate call arguments; returns positional-arg bindings."""
        out = []
        for a in call.args:
            b = self.eval_expr(a, st)
            out.append(b)
            if escape:
                self.escape_binding(b, st)
        for kw in call.keywords:
            b = self.eval_expr(kw.value, st)
            if escape:
                self.escape_binding(b, st)
        return out

    def handle_call(self, call, st: AbsState):
        func = call.func
        d = dotted_name(func)
        if d is not None:
            if len(d) >= 2 and d[-1] == "init" and d[-2] in ARMCI_INIT_CLASSES:
                self.scan_args(call, st, escape=False)
                aid = ("armci", call.lineno, call.col_offset)
                self.info[aid] = (call.lineno, call.col_offset, "ARMCI handle")
                return ("armci", aid)
            if len(d) >= 2 and d[-2] == "Win" and d[-1] in ("create", "allocate"):
                self.scan_args(call, st, escape=False)
                wid = ("win", call.lineno, call.col_offset)
                self.info[wid] = (call.lineno, call.col_offset, "window")
                return ("win", wid) if d[-1] == "create" else ("win_tuple", wid)
            if d[-1] in ARMCI_WRAPPER_CLASSES:
                self.scan_args(call, st, escape=True)
                aid = ("armci", call.lineno, call.col_offset)
                self.info[aid] = (call.lineno, call.col_offset, "ARMCI handle")
                return ("armci", aid)
        if isinstance(func, ast.Attribute):
            recv = self.eval_expr(func.value, st)
            if func.attr in ("agree", "shrink") and recv is None:
                # ULFM-analogue recovery boundary (repro.recover): agree()
                # and shrink() are the only operations guaranteed to
                # complete once a member has failed, and recovery abandons
                # whatever epochs the wounded world still had open.  Epochs
                # leave *must* (a path through here is a valid exit for
                # them: no leak, and recovery may re-lock on the new world)
                # but stay in *may* (an unlock on the path where the
                # attempt succeeded is still a matched release).
                self.scan_args(call, st, escape=False)
                for k in [
                    k for k in st.must
                    if k[0] in ("epoch", "lockall", "fence", "dla", "mlock", "nb")
                ]:
                    st.must.discard(k)
                return None
            if recv is not None:
                if recv[0] == "armci":
                    return self.armci_method(call, func.attr, recv[1], st)
                if recv[0] == "win":
                    return self.win_method(call, func.attr, recv[1], st)
                if recv[0] == "mutexset":
                    return self.ms_method(call, func.attr, recv[1], st)
                if recv[0] == "req":
                    return self.req_method(call, func.attr, recv[1], st)
                if recv[0] == "nb":
                    return self.nb_method(call, func.attr, recv[1], st)
                # methods on tracked values we have no rules for
                self.scan_args(call, st, escape=False)
                return None
            self.scan_args(call, st, escape=True)
            return None
        self.scan_args(call, st, escape=True)
        return None

    # -- ARMCI handle methods ---------------------------------------------------------
    def armci_method(self, call, m, aid, st: AbsState):
        esc = st.is_escaped(aid)
        if aid in st.finalized_must and not esc:
            if m == "finalize":
                self.emit(
                    call, ViolationKind.LINT_INIT,
                    "finalize called twice on the same ARMCI handle "
                    "(it is collective and must run exactly once)",
                )
            else:
                self.emit(
                    call, ViolationKind.LINT_INIT,
                    f"ARMCI call '{m}' on a handle already finalized",
                )
        if m == "finalize":
            self.scan_args(call, st, escape=False)
            if not esc:
                # finalize audits (does not drain) the nonblocking queue:
                # a still-pending handle here is the dynamic NB_PENDING
                for k in sorted(
                    (k for k in st.must
                     if k[0] == "nb" and self.owner.get(k) == aid
                     and not self.exempt(k, st)),
                    key=repr,
                ):
                    self.emit(
                        call, ViolationKind.NB_PENDING,
                        f"{self.info[k][2]} (line {self.info[k][0]}) is "
                        "still pending at finalize: wait it, or drain the "
                        "queue with fence/barrier first",
                    )
            # finalize frees every remaining allocation and mutex set
            for k in list(st.may):
                if self.owner_root(k) == aid or (
                    self.owner_root(k) is not None
                    and self.owner_root(self.owner_root(k)) == aid
                ):
                    st.drop(k)
            st.finalized_must.add(aid)
            st.finalized_may.add(aid)
            return None
        if m == "malloc":
            self.scan_args(call, st, escape=False)
            return ("newalloc", aid, call.lineno, call.col_offset)
        if m == "create_mutexes":
            self.scan_args(call, st, escape=False)
            return ("newmutexset", aid, call.lineno, call.col_offset)
        if m == "access_begin":
            self.scan_args(call, st, escape=False)
            vec = base_name(call.args[0]) if call.args else None
            if vec is None:
                return None
            key = ("dla", aid, vec)
            if key in st.must and not esc:
                self.emit(
                    call, ViolationKind.DLA,
                    f"nested access_begin on '{vec}': direct-local-access "
                    "epochs do not nest",
                )
            self.info.setdefault(
                key,
                (call.lineno, call.col_offset,
                 f"direct-local-access epoch on '{vec}'"),
            )
            st.acquire(key)
            return None
        if m == "access_end":
            self.scan_args(call, st, escape=False)
            vec = base_name(call.args[0]) if call.args else None
            if vec is None:
                return None
            key = ("dla", aid, vec)
            if key in st.may:
                st.release(key)
            elif not any(k[0] == "dla" and k[1] == aid for k in st.may) and not esc:
                self.emit(
                    call, ViolationKind.DLA,
                    f"access_end on '{vec}' without a matching access_begin",
                )
            return None
        if m == "free":
            arg_bindings = self.scan_args(call, st, escape=False)
            for b in arg_bindings:
                if b is None or b[0] not in ("alloc", "allocitem"):
                    continue
                key = b[1]
                if self.exempt(key, st):
                    continue
                if key in st.released and key not in st.may:
                    self.emit(
                        call, ViolationKind.LINT_DOUBLE_RELEASE,
                        f"free of {self.info[key][2]} already freed on "
                        "every path here",
                    )
                else:
                    st.release(key)
            return None
        if m in ARMCI_COMM_METHODS:
            self.scan_args(call, st, escape=False)
            if not esc:
                for a in call.args:
                    vec = base_name(a)
                    if vec is not None and ("dla", aid, vec) in st.must:
                        self.emit(
                            call, ViolationKind.LOCK_WHILE_DLA,
                            f"'{m}' communicates through '{vec}' while a "
                            "direct-local-access epoch is open on it "
                            "(call access_end first)",
                        )
                        break
            if m in ("fence", "all_fence"):
                # fence drains this handle's nonblocking queue (mpi3
                # datapath): every queued op reaches its completion point
                self._drop_nb(aid, st)
            if m in ("nb_put", "nb_get", "nb_acc"):
                return ("newnb", aid, call.lineno, call.col_offset)
            return None
        if m in ("barrier", "fence_all", "wait", "wait_all"):
            arg_bindings = self.scan_args(call, st, escape=False)
            if m == "wait":
                for b in arg_bindings:
                    if b is not None and b[0] == "nb":
                        st.drop(b[1])
            else:
                # barrier/fence_all drain every queue; wait_all completes
                # every handle it is given (conservatively: all of them)
                self._drop_nb(aid, st)
            return None
        # set_access_mode, translation queries, ...
        self.scan_args(call, st, escape=False)
        return None

    def _drop_nb(self, aid, st: AbsState) -> None:
        """A completion point: forget every nb handle owned by ``aid``."""
        for k in [k for k in st.may if k[0] == "nb" and self.owner.get(k) == aid]:
            st.drop(k)

    # -- Win methods -------------------------------------------------------------------
    def _epoch_on(self, win_id, s: set) -> bool:
        return any(k[0] in ("epoch", "lockall", "fence") and k[1] == win_id for k in s)

    def win_method(self, call, m, wid, st: AbsState):
        esc = st.is_escaped(wid)
        if m == "lock":
            self.scan_args(call, st, escape=False)
            if not esc and self._epoch_on(wid, st.must):
                self.emit(
                    call, ViolationKind.LOCK_NESTING,
                    "lock while an epoch is already open on this window "
                    "(MPI-2 allows one lock per window per process)",
                )
            t = expr_text(call.args[0] if call.args else None)
            key = ("epoch", wid, t)
            self.info.setdefault(
                key, (call.lineno, call.col_offset, f"lock epoch on target {t}")
            )
            st.acquire(key)
            return None
        if m == "unlock":
            self.scan_args(call, st, escape=False)
            self._pending_request_check(call, wid, st, "unlock")
            t = expr_text(call.args[0] if call.args else None)
            key = ("epoch", wid, t)
            had_any = any(k[0] == "epoch" and k[1] == wid for k in st.may)
            if key in st.must:
                st.release(key)
            # after an unlock at most zero epochs remain on this window
            # (the one-lock rule): drop whatever branch-alternatives exist
            for k in [k for k in st.may if k[0] == "epoch" and k[1] == wid]:
                st.drop(k)
            if not had_any and not self._epoch_on(wid, st.may) and not esc:
                self.emit(
                    call, ViolationKind.LOCK_UNMATCHED,
                    "unlock without a lock possibly held on this window",
                )
            return None
        if m == "lock_all":
            self.scan_args(call, st, escape=False)
            if not esc and self._epoch_on(wid, st.must):
                self.emit(
                    call, ViolationKind.LOCK_NESTING,
                    "lock_all while an epoch is already open on this window",
                )
            key = ("lockall", wid)
            self.info.setdefault(key, (call.lineno, call.col_offset, "lock_all epoch"))
            st.acquire(key)
            return None
        if m == "unlock_all":
            self.scan_args(call, st, escape=False)
            self._pending_request_check(call, wid, st, "unlock_all")
            key = ("lockall", wid)
            if key in st.may:
                st.release(key)
            elif not self._epoch_on(wid, st.may) and not esc:
                self.emit(
                    call, ViolationKind.LOCK_UNMATCHED,
                    "unlock_all without a lock_all epoch possibly open",
                )
            return None
        if m in ("flush", "flush_all"):
            self.scan_args(call, st, escape=False)
            passive = any(
                k[0] in ("epoch", "lockall") and k[1] == wid for k in st.may
            )
            if not esc and not passive:
                if any(k[0] == "fence" and k[1] == wid for k in st.must):
                    self.emit(
                        call, ViolationKind.FLUSH,
                        f"{m} inside an active-target (fence) epoch: flush "
                        "completes passive-target operations only — open a "
                        "lock or lock_all epoch instead",
                    )
                else:
                    self.emit(
                        call, ViolationKind.FLUSH,
                        f"{m} outside any passive-target epoch on this "
                        "window: nothing to complete",
                    )
            return None
        if m == "fence_sync":
            args = self.scan_args(call, st, escape=False)
            if not esc and any(
                k[0] in ("epoch", "lockall") and k[1] == wid for k in st.must
            ):
                self.emit(
                    call, ViolationKind.LOCK_NESTING,
                    "fence while holding a passive-target lock: active and "
                    "passive epochs may not overlap",
                )
            end = False
            for kw in call.keywords:
                if kw.arg == "end" and isinstance(kw.value, ast.Constant):
                    end = bool(kw.value.value)
            if call.args and isinstance(call.args[0], ast.Constant):
                end = bool(call.args[0].value)
            key = ("fence", wid)
            if end:
                st.drop(key)
            else:
                self.info.setdefault(key, (call.lineno, call.col_offset, "fence epoch"))
                st.acquire(key)
            del args
            return None
        if m in WIN_OP_METHODS:
            arg_bindings = self.scan_args(call, st, escape=False)
            if _in_own_epoch(call):  # lock=mode: lock, the op and unlock
                if not esc and self._epoch_on(wid, st.must):
                    self.emit(
                        call, ViolationKind.LOCK_NESTING,
                        f"'{m}' with lock= while an epoch is already open on "
                        "this window (MPI-2 allows one lock per window per process)",
                    )
            elif not esc and not self._epoch_on(wid, st.may):
                self.emit(
                    call, ViolationKind.EPOCH,
                    f"'{m}' outside any access epoch on this window "
                    "(lock/unlock it, or use lock_all or a fence)",
                )
            if (
                not esc
                and arg_bindings
                and arg_bindings[0] is not None
                and arg_bindings[0][0] == "wb"
                and arg_bindings[0][1] == wid
                and m in ("put", "get", "accumulate")
            ):
                self.emit(
                    call, ViolationKind.LOCAL_ALIAS,
                    f"the local buffer of this '{m}' is a view of the same "
                    "window's exposed memory: that needs a second lock the "
                    "one-lock rule forbids — stage through a private buffer",
                )
            return None
        if m in WIN_REQ_METHODS:
            self.scan_args(call, st, escape=False)
            if not esc and not self._epoch_on(wid, st.may):
                self.emit(
                    call, ViolationKind.EPOCH,
                    f"'{m}' outside any access epoch on this window",
                )
            return ("newreq", wid, call.lineno, call.col_offset)
        if m == "local_view":
            self.scan_args(call, st, escape=False)
            if not esc and not self._epoch_on(wid, st.may):
                self.emit(
                    call, ViolationKind.LOCAL_LOAD_STORE,
                    "direct load/store view taken with no epoch possibly "
                    "open (needs an exclusive self-lock or "
                    "access_begin/access_end)",
                )
            return ("wb", wid)
        if m == "exposed_buffer":
            self.scan_args(call, st, escape=False)
            return ("wb", wid)
        if m in ("free", "free_with"):
            self.scan_args(call, st, escape=True)
            for k in list(st.may):
                if self.owner_root(k) == wid:
                    st.drop(k)
            st.escaped.add(wid)  # a freed window is no longer ours to check
            return None
        self.scan_args(call, st, escape=False)
        return None

    def _pending_request_check(self, call, wid, st: AbsState, op: str) -> None:
        pending = [
            k for k in st.must
            if k[0] == "req" and self.owner.get(k) == wid and not self.exempt(k, st)
        ]
        for k in sorted(pending, key=repr):
            self.emit(
                call, ViolationKind.REQUEST,
                f"{self.info[k][2]} (rput/rget, line {self.info[k][0]}) is "
                f"still pending at {op}: complete it with wait()/test() "
                "before closing the epoch",
            )
        for k in [k for k in st.may if k[0] == "req" and self.owner.get(k) == wid]:
            st.drop(k)

    # -- mutex-set / request methods ------------------------------------------------
    def ms_method(self, call, m, ms_key, st: AbsState):
        esc = self.exempt(ms_key, st)
        if m in ("lock", "trylock"):
            self.scan_args(call, st, escape=False)
            idx = expr_text(call.args[0] if call.args else None)
            key = ("mlock", ms_key, idx)
            self.info.setdefault(
                key, (call.lineno, call.col_offset, f"mutex hold on {idx}")
            )
            if m == "lock":
                st.acquire(key)
            else:
                st.may.add(key)  # conditional acquisition
            return None
        if m == "unlock":
            self.scan_args(call, st, escape=False)
            idx = expr_text(call.args[0] if call.args else None)
            key = ("mlock", ms_key, idx)
            if key in st.may:
                st.release(key)
            return None
        if m == "destroy":
            self.scan_args(call, st, escape=False)
            if ms_key in st.released and ms_key not in st.may and not esc:
                self.emit(
                    call, ViolationKind.LINT_DOUBLE_RELEASE,
                    f"destroy of {self.info[ms_key][2]} already destroyed "
                    "on every path here",
                )
            for k in list(st.may):
                if k[0] == "mlock" and k[1] == ms_key:
                    st.drop(k)
            st.release(ms_key)
            return None
        self.scan_args(call, st, escape=False)
        return None

    def req_method(self, call, m, key, st: AbsState):
        self.scan_args(call, st, escape=False)
        if m in ("wait", "test"):
            st.drop(key)  # completed
        return None

    def nb_method(self, call, m, key, st: AbsState):
        self.scan_args(call, st, escape=False)
        if m in ("wait", "test"):
            # wait() drains; a polled test() is the completion discipline
            st.drop(key)
        return None


class ModuleAnalyzer:
    """Analyze every function in a parsed module."""

    def __init__(self, path: str):
        self.path = path
        self.diags: list[Diagnostic] = []
        self._seen: set[tuple] = set()

    def _emit(self, d: Diagnostic) -> None:
        k = (d.line, d.kind)
        if k in self._seen:
            return
        self._seen.add(k)
        self.diags.append(d)

    def run(self, tree: ast.Module) -> list[Diagnostic]:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                FunctionAnalyzer(self.path, self._emit).analyze(node)
        self.diags.sort(key=Diagnostic.sort_key)
        return self.diags


def analyze_module(source: str, path: str = "<string>") -> list[Diagnostic]:
    """Parse and lint one module's source; raises SyntaxError on bad input."""
    tree = ast.parse(source, filename=path)
    return ModuleAnalyzer(path).run(tree)
