"""Built-in contract method library.

Scenarios pick a contract `kind`; the kind decides which methods the
contract exposes.  A body, `body(vars_, params)`, changes only its own
contract's vars (see `Contract.call`), so a call writes its target or
nothing, and every body is a pure function of (vars, params).  That
makes oracle replay of recorded invocations exact.
"""

from __future__ import annotations

from typing import Iterable

from .chain import Address, Contract, MethodFailure


def _as_name(value) -> str:
    if isinstance(value, bytes):
        return value.decode("utf-8")
    raise MethodFailure("BadParams")


def _as_int(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise MethodFailure("BadParams")
    return value


def _int_var(vars_: dict, key: str) -> int:
    """A variable the method counts with; a scenario may have set it to
    any value, and a non-int one refuses the call."""
    value = vars_.get(key, 0)
    if isinstance(value, bool) or not isinstance(value, int):
        raise MethodFailure("BadState")
    return value


def _balance_key(account: str) -> str:
    return "bal:" + account


def _token_transfer(vars_, params):
    if len(params) != 3:
        raise MethodFailure("BadParams")
    src = _balance_key(_as_name(params[0]))
    dst = _balance_key(_as_name(params[1]))
    amount = _as_int(params[2])
    if amount < 0:
        raise MethodFailure("BadParams")
    have = vars_.get(src, 0)
    if have < amount:
        raise MethodFailure("InsufficientFunds")
    vars_[src] = have - amount
    vars_[dst] = vars_.get(dst, 0) + amount
    return True


def _token_mint(vars_, params):
    if len(params) != 2:
        raise MethodFailure("BadParams")
    dst = _balance_key(_as_name(params[0]))
    amount = _as_int(params[1])
    if amount < 0:
        raise MethodFailure("BadParams")
    vars_[dst] = vars_.get(dst, 0) + amount
    return True


def _counter_incr(vars_, params):
    if len(params) != 1:
        raise MethodFailure("BadParams")
    vars_["count"] = _int_var(vars_, "count") + _as_int(params[0])
    return vars_["count"]


def _counter_set(vars_, params):
    if len(params) != 1:
        raise MethodFailure("BadParams")
    vars_["count"] = _as_int(params[0])
    return vars_["count"]


def _noop(vars_, params):
    return True


def _always_fail(vars_, params):
    raise MethodFailure("AlwaysFails")


def _notification(vars_, params):
    # Destination hook for cross-chain notifications: params are
    # (origin contract, origin chain, data).
    if len(params) != 3:
        raise MethodFailure("BadParams")
    vars_["note_count"] = _int_var(vars_, "note_count") + 1
    vars_["note_last"] = params[2]
    return True


_LIBRARY = {
    "token": {"transfer": _token_transfer, "mint": _token_mint},
    "counter": {"incr": _counter_incr, "set": _counter_set},
    "inbox": {"notification": _notification},
    "noop": {"noop": _noop},
    "faulty": {"fail": _always_fail},
}


def library_kinds() -> list:
    return sorted(_LIBRARY)


def build_contract(addr: Address, kind: str, owner: Address,
                   init_vars: dict, trusted: Iterable[Address]) -> Contract:
    """A library contract with its own copies of `init_vars` and
    `trusted`, so a caller may pass state it keeps."""
    if kind not in _LIBRARY:
        raise KeyError(kind)
    return Contract(addr=addr, vars=dict(init_vars), owner=owner, kind=kind,
                    trusted_executors=set(trusted),
                    methods=dict(_LIBRARY[kind]))


def token_init(balances: dict) -> dict:
    """Translate {account: amount} into the token's variable layout."""
    return {_balance_key(name): amount for name, amount in balances.items()}
